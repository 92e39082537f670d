"""The traces of the benchmark's certify corpora, pinned.

For each certify workload of ``bench/corpus.py``, the seed-1 instances are
certified under the workload's config, and the trace JSON of every instance
(``make_document`` with the text as source, ``document_to_json``) is hashed
in corpus order into one SHA-256; so are the seed-2 and seed-3 instances.  A
change that keeps every witness keeps the nine digests; a change that alters
a witness must say so and re-pin them.

The seed-1 corpora are pinned a second time as their rational images:
coordinate i's exponents divided by ``IMAGE_DIVISORS[i % 4]``, so that most
instances sit on a lattice frame of scale L > 1.  Each image is written out
with ``format_signomial``, parsed back, certified, and hashed with that
text as the source.

Run as a script, the module prints every digest for the seeds given
(``python tests/test_corpus_digests.py 41``), for checking a seed that no
test pins before and after a change.
"""

import hashlib
import sys
from fractions import Fraction

import pytest

from descregions.certify import certify_connectivity
from descregions.parsing import format_signomial, parse_signomial
from descregions.signomial import Signomial
from descregions.tracedoc import document_to_json, make_document

from workloads import WORKLOADS, corpus

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
IMAGE_DIVISORS = (2, 3, 5, 7)
RATIONAL_IMAGE_SEED_1_SHA256 = {
    "lowdim-flagged": "dc91d2f3995788d19351ca255d181f5f82e2cf48a2ad493eec6bf13ed2181863",
    "cube-recursion": "412529095ec8ed0081d72bd353d0b0dd4b6525ea1de3d4e590708a8bf5d857a8",
    "wide-hull": "ac2bb3759abab5e2fe9ff8b872f8b8d9fe87797e6f9e1ef9a76ca72c39267e1e",
}


def rational_image(text: str) -> str:
    """The polynomial text with coordinate i's exponents divided by
    ``IMAGE_DIVISORS[i % 4]``, in canonical form."""
    f = parse_signomial(text)
    divisors = [IMAGE_DIVISORS[i % 4] for i in range(f.dimension)]
    pairs = [(t.coefficient, [Fraction(e) / d for e, d in zip(t.exponent, divisors)]) for t in f.terms]
    return format_signomial(Signomial.from_terms(f.dimension, pairs))


def corpus_digest(workload: str, seed: int, image: bool = False) -> str:
    count, config = WORKLOADS[workload]
    digest = hashlib.sha256()
    for text in corpus.corpus(workload, seed, count):
        if image:
            text = rational_image(text)
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


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_1_rational_image_traces_match_pinned_digests(workload):
    assert corpus_digest(workload, 1, image=True) == RATIONAL_IMAGE_SEED_1_SHA256[workload]


if __name__ == "__main__":
    for seed in map(int, sys.argv[1:] or ["1"]):
        for workload in sorted(WORKLOADS):
            print(f"seed {seed} {workload} {corpus_digest(workload, seed)}")
            print(f"seed {seed} {workload} rational image {corpus_digest(workload, seed, image=True)}")
