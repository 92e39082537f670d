"""LP and pivot counts of the benchmark's certify corpora.

For each certify workload of ``bench/corpus.py``, the instances of one seed
are certified under the workload's config, and every ``lp.feasible`` call is
counted with its pivots.  An infeasible LP's Farkas vector never reaches a
trace, so a kernel change that moves Bland's path can keep every trace
digest and still move these counts.  The script needs the standard library
and the package only; with ``PYTHONPATH`` naming another tree's ``src/`` it
counts that tree's kernel on the same corpora.

    python tests/lp_counts.py 4
"""

import sys

from descregions import lp
from descregions.certify import certify_connectivity
from descregions.parsing import parse_signomial

from workloads import WORKLOADS, corpus


def lp_counts(workload: str, seed: int) -> tuple:
    """(LPs solved, pivots made) certifying the workload's corpus of a seed."""
    count, config = WORKLOADS[workload]
    solve, counts = lp.feasible, [0, 0]

    def counted(system):
        res = solve(system)
        counts[0] += 1
        counts[1] += res.pivots
        return res

    lp.feasible = counted
    try:
        for text in corpus.corpus(workload, seed, count):
            certify_connectivity(parse_signomial(text), config)
    finally:
        lp.feasible = solve
    return tuple(counts)


if __name__ == "__main__":
    for seed in map(int, sys.argv[1:] or ["1"]):
        for workload in sorted(WORKLOADS):
            lps, pivots = lp_counts(workload, seed)
            print(f"seed {seed} {workload}: {lps} LPs, {pivots} pivots")
