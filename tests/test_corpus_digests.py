"""The traces of the benchmark's certify corpora, pinned.

For each certify workload of ``bench/corpus.py``, the seed-1 instances are
certified under the workload's config, and the trace JSON of every instance
(``make_document`` with the text as source, ``document_to_json``) is hashed
in corpus order into one SHA-256; so are the seed-2 and seed-3 instances.  A
change that keeps every witness keeps the nine digests; a change that alters
a witness must say so and re-pin them.
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
# (workload, seed) -> digest
SEEDS_2_3_SHA256 = {
    ("lowdim-flagged", 2): "3e0e18c6e2a31680a5b0240ef0c3f817a42acd33d3ea65146da9b35480f3cedf",
    ("cube-recursion", 2): "661acef26e7e8ab4b72c36b1dff0c9e830a6a8814a31b23a8950ddb2ead8df95",
    ("wide-hull", 2): "257de63784b734bc6038100fc20411cfe354fb9a60835f641d22dca82e9e384b",
    ("lowdim-flagged", 3): "8bff3208c26c6904d31d205ddaad9220019e285a2f5b9f9ab3f25601042c2797",
    ("cube-recursion", 3): "bb9679b98c48ea3157f2a7034e360be08f0925c6db96bb5ce128ab4890d415da",
    ("wide-hull", 3): "659617a6352f1dd585060eac2fe99fe62fc726b7ecb53ba2e2f70228ea74f9a5",
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


@pytest.mark.parametrize("workload,seed", sorted(SEEDS_2_3_SHA256))
def test_seeds_2_and_3_corpus_traces_match_pinned_digests(workload, seed):
    assert corpus_digest(workload, seed) == SEEDS_2_3_SHA256[workload, seed]
