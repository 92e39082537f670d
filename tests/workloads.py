"""The benchmark's certify workloads, as the tests and scripts certify them.

``WORKLOADS`` maps each certify workload of ``bench/corpus.py`` to its
instance count and config.  Importing this module puts ``bench/`` on the
path for ``corpus``.  It needs the standard library and the package only, so
the scripts under ``tests/`` can run against another tree's ``src/``.
"""

import sys
from pathlib import Path

from descregions.check import CertifyConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import corpus  # noqa: E402

FLAGGED = CertifyConfig(enable_simplex_search=True, enable_box_criterion=True, enable_enclosing_search=True)
# workload -> (instance count, config), as the benchmark certifies them
WORKLOADS = {
    "lowdim-flagged": (28, FLAGGED),
    "cube-recursion": (26, CertifyConfig()),
    "wide-hull": (10, CertifyConfig()),
}
