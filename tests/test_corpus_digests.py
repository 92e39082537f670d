"""The traces of the benchmark's certify corpora, pinned.

For each certify workload of ``bench/corpus.py``, the seed-1 instances are
certified under the workload's config, and the trace JSON of every instance
(``make_document`` with the text as source, ``document_to_json``) is hashed
in corpus order into one SHA-256.  A change that keeps every witness keeps
the three digests; a change that alters a witness must say so and re-pin
them.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from descregions.certify import certify_connectivity
from descregions.check import CertifyConfig
from descregions.parsing import parse_signomial
from descregions.tracedoc import document_to_json, make_document

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import corpus  # noqa: E402

FLAGGED = CertifyConfig(enable_simplex_search=True, enable_box_criterion=True, enable_enclosing_search=True)
# workload -> (instance count, config), as the benchmark certifies them
WORKLOADS = {
    "lowdim-flagged": (28, FLAGGED),
    "cube-recursion": (26, CertifyConfig()),
    "wide-hull": (10, CertifyConfig()),
}
SEED_1_SHA256 = {
    "lowdim-flagged": "cbad3cf06654cfd71b93dea6e4b7196ac02f060a9481ee8cca78fbd4da162edd",
    "cube-recursion": "0cc1058552ee831fb8f67f12ee6890a3c6f7e6f2258b840c60127d7ceec8857d",
    "wide-hull": "97377400da183b042704995922d8e2d2eb684ccca1416a3ddd66a464215002cf",
}


def corpus_digest(workload: str, seed: int) -> str:
    count, config = WORKLOADS[workload]
    digest = hashlib.sha256()
    for text in corpus.corpus(workload, seed, count):
        f = parse_signomial(text)
        cert = certify_connectivity(f, config)
        digest.update(document_to_json(make_document(f, config, cert, source=text)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_1_corpus_traces_match_pinned_digests(workload):
    assert corpus_digest(workload, 1) == SEED_1_SHA256[workload]
