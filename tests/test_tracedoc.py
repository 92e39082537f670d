import json
import random
from fractions import Fraction

from descregions import tracedoc
from descregions.certify import (
    INCONCLUSIVE,
    certify_connectivity,
    verify_certificate,
)
from descregions.criteria import (
    MODE_POSITIVES_INSIDE,
    CertifyConfig,
    SimplexWitness,
)
from descregions.signomial import Signomial

from fixtures import (
    BOX_F,
    CUBE3,
    CUBE4,
    NEG_QUADRATIC,
    PERFECT_SQUARE,
    SIMPLEX_CONNECTED,
    SIMPLEX_VERTICES,
    TEN_TERM,
    TEN_TERM_UPPER,
    vec,
)

F = Fraction

ONE_POSITIVE = Signomial.from_terms(
    2, [(1, (1, 1)), (-1, (0, 0)), (-1, (2, 0)), (-1, (0, 2)), (-1, (2, 2))]
)
ALL_NEGATIVE = Signomial.from_terms(1, [(-1, (0,)), (-2, (3,))])
ALL_POSITIVE = Signomial.from_terms(1, [(1, (0,)), (2, (3,))])
SIMPLEX_CONFIG = CertifyConfig(
    simplex_witness=SimplexWitness(
        SIMPLEX_VERTICES, MODE_POSITIVES_INSIDE, interior_negative=vec(0, 4)
    )
)


def round_trip(f, config):
    cert = certify_connectivity(f, config)
    doc = json.loads(tracedoc.document_to_json(tracedoc.make_document(f, config, cert)))
    assert tracedoc.certificate_from_json(doc["tree"]) == cert
    assert tracedoc.signomial_from_json(doc["input"]) == f
    assert tracedoc.verify_document(doc) == []
    return cert, doc


def test_every_certificate_kind_round_trips():
    cases = [
        (ALL_POSITIVE, CertifyConfig()),  # empty
        (ALL_NEGATIVE, CertifyConfig()),  # criterion: no positive terms
        (PERFECT_SQUARE, CertifyConfig()),  # criterion: one negative coeff
        (ONE_POSITIVE, CertifyConfig()),  # criterion: one positive coeff
        (TEN_TERM_UPPER, CertifyConfig()),  # criterion: strict separating
        (SIMPLEX_CONNECTED, SIMPLEX_CONFIG),  # criterion: simplex witness
        (BOX_F, CertifyConfig(enable_box_criterion=True)),  # criterion: box
        (CUBE3, CertifyConfig()),  # parallel split
        (CUBE4, CertifyConfig()),  # negative-face reduction above a split
        (NEG_QUADRATIC, CertifyConfig()),  # inconclusive
        (TEN_TERM, CertifyConfig()),  # inconclusive after a full scan
    ]
    seen = set()
    for f, config in cases:
        cert, doc = round_trip(f, config)
        seen.add(doc["tree"].get("criterion", doc["tree"]["kind"]))
    assert {
        "empty",
        "no-positive-terms",
        "one-negative-coeff",
        "one-positive-coeff",
        "strict-separating",
        "simplex-positives-inside",
        "box",
        "parallel-split",
        "negative-face-reduction",
        "inconclusive",
    } <= seen


def test_config_round_trip():
    config = CertifyConfig(
        max_depth=9,
        facet_budget=123,
        enable_simplex_search=True,
        enable_enclosing_search=True,
        enable_box_criterion=True,
        simplex_witness=SIMPLEX_CONFIG.simplex_witness,
        enclosing_max_negatives=7,
    )
    assert tracedoc.config_from_json(tracedoc.config_to_json(config)) == config


def test_document_outcome_mismatch_detected():
    cert = certify_connectivity(CUBE3)
    doc = tracedoc.make_document(CUBE3, CertifyConfig(), cert)
    doc["outcome"] = INCONCLUSIVE
    assert tracedoc.verify_document(doc) != []


def test_document_rejects_unknown_schema():
    cert = certify_connectivity(CUBE3)
    doc = tracedoc.make_document(CUBE3, CertifyConfig(), cert)
    doc["schema"] = 99
    assert tracedoc.verify_document(doc) != []


def test_malformed_documents_are_reported_not_raised():
    cert = certify_connectivity(CUBE4)
    good = tracedoc.make_document(CUBE4, CertifyConfig(), cert)
    split = json.loads(json.dumps(good))
    split["tree"]["children"][0]["child_nonempty"].pop()
    bad_documents = [
        [1, 2],
        "trace",
        None,
        {"schema": 1, "input": {"dimension": 1, "terms": 5}, "tree": {}},
        {"schema": 1, "input": [], "tree": {}},
        {"schema": 1, "input": {"dimension": None, "terms": []}, "tree": {}},
        {"schema": 1, "input": {"dimension": 1, "terms": [{"coefficient": "1/0", "exponent": ["1"]}]}, "tree": {}},
        {"schema": 1, "input": good["input"], "tree": []},
        {"schema": 1, "input": good["input"], "tree": {"kind": "criterion", "outcome": "x",
                                                      "criterion": "strict-separating",
                                                      "nonempty": True, "witness": [1]}},
    ]
    for doc in bad_documents:
        errors = tracedoc.verify_document(doc)
        assert len(errors) == 1 and errors[0].startswith("malformed document: "), doc
    assert tracedoc.verify_document(split) == ["root.face: malformed parallel-split node"]


def test_flagged_random_sweep_replays_and_round_trips():
    rng = random.Random(99991)
    config = CertifyConfig(
        enable_box_criterion=True, enable_simplex_search=True, enable_enclosing_search=True
    )
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        pairs = []
        for _ in range(rng.randint(1, 7)):
            num = rng.choice([x for x in range(-20, 21) if x])
            pairs.append((F(num, rng.randint(1, 3)), tuple(F(rng.randint(0, 4)) for _ in range(n))))
        f = Signomial.from_terms(n, pairs)
        if not f.terms:
            continue
        cert = certify_connectivity(f, config)
        assert verify_certificate(f, cert) == []
        doc = json.loads(tracedoc.document_to_json(tracedoc.make_document(f, config, cert)))
        assert tracedoc.verify_document(doc) == []
