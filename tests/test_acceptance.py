"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS
lines as they happen).
"""

import json
import random
from fractions import Fraction

from descregions.certify import (
    CERTIFIED_EMPTY,
    CERTIFIED_EXACTLY_ONE,
    INCONCLUSIVE,
    KIND_CRITERION,
    KIND_NEGATIVE_FACE,
    KIND_PARALLEL_SPLIT,
    certify_connectivity,
    verify_certificate,
)
from descregions.cli import main
from descregions.criteria import (
    MODE_NEGATIVES_INSIDE,
    MODE_POSITIVES_INSIDE,
    STRICT_SEPARATING,
    CertifyConfig,
    SimplexWitness,
    verify_enclosing_pair,
    verify_separating_hyperplane,
    verify_simplex_witness,
)
from descregions.lp import LinearSystem, feasible
from descregions.oracle import count_negative_components, default_grid
from descregions.polytope import build_polytope
from descregions.signomial import Signomial
from descregions import tracedoc

import fixtures
from fixtures import (
    BOX_F,
    CUBE3,
    CUBE4,
    LADDER,
    NEG_QUADRATIC,
    NEG_QUADRATIC_SPLIT,
    SIMPLEX_CONNECTED,
    SIMPLEX_HALFSPACES,
    SIMPLEX_SPLIT,
    SIMPLEX_VERTICES,
    STRIP_PAIR,
    TEN_TERM,
    TEN_TERM_LOWER,
    TEN_TERM_UPPER,
    WIDE16_TEXT,
    vec,
)
from fm_oracle import fm_feasible
from hull_oracle import brute_force_facets, polytope_facets_in_hull_coords

F = Fraction

ORACLE_FIXTURES = [
    (TEN_TERM, 3),
    (TEN_TERM_UPPER, 1),
    (TEN_TERM_LOWER, 2),
    (SIMPLEX_SPLIT, 2),
    (BOX_F, 1),
    (LADDER, 1),
]


def test_criterion_1_oracle_counts_match_and_are_stable():
    for f, expected in ORACLE_FIXTURES:
        base = count_negative_components(f, default_grid(2, resolution=400))
        doubled = count_negative_components(f, default_grid(2, resolution=800))
        assert base.component_count == expected
        assert doubled.component_count == expected
    base = count_negative_components(NEG_QUADRATIC_SPLIT, default_grid(1, resolution=100_000))
    doubled = count_negative_components(NEG_QUADRATIC_SPLIT, default_grid(1, resolution=200_000))
    assert base.component_count == 2 and doubled.component_count == 2
    print("ACCEPTANCE 1 oracle counts: PASS")


def test_criterion_2_certification_fixtures():
    cube = certify_connectivity(CUBE3)
    assert cube.outcome == CERTIFIED_EXACTLY_ONE
    assert cube.kind == KIND_PARALLEL_SPLIT
    assert {cube.edge.beta1, cube.edge.beta2} == {vec(0, 0, 0), vec(0, 0, 1)}

    cube4 = certify_connectivity(CUBE4)
    assert cube4.outcome == CERTIFIED_EXACTLY_ONE
    assert cube4.kind == KIND_NEGATIVE_FACE
    split = cube4.children[0]
    assert split.kind == KIND_PARALLEL_SPLIT
    leaves = split.children
    assert len(leaves) == 2
    assert all(
        leaf.kind == KIND_CRITERION and leaf.criterion.kind == STRICT_SEPARATING
        for leaf in leaves
    )

    strip = certify_connectivity(STRIP_PAIR)
    oracle_count = count_negative_components(STRIP_PAIR, default_grid(2, resolution=400))
    assert oracle_count.component_count == 1
    # either a certified single component or a documented inconclusive result
    if strip.outcome == INCONCLUSIVE:
        assert strip.reason
    else:
        assert strip.outcome == CERTIFIED_EXACTLY_ONE

    assert certify_connectivity(NEG_QUADRATIC).outcome == INCONCLUSIVE

    witness = SimplexWitness(
        SIMPLEX_VERTICES, MODE_POSITIVES_INSIDE, interior_negative=vec(0, 4)
    )
    config = CertifyConfig(simplex_witness=witness)
    assert certify_connectivity(SIMPLEX_CONNECTED, config).outcome == CERTIFIED_EXACTLY_ONE
    broken = certify_connectivity(SIMPLEX_SPLIT, config)
    assert broken.outcome == INCONCLUSIVE  # soundness: must not certify
    print("ACCEPTANCE 2 certification fixtures: PASS")


def test_criterion_3_all_witnesses_reverify(tmp_path, capsys):
    cases = [
        (CUBE3, None),
        (CUBE4, None),
        (TEN_TERM, None),
        (TEN_TERM_UPPER, None),
        (TEN_TERM_LOWER, None),
        (BOX_F, CertifyConfig(enable_box_criterion=True)),
        (
            SIMPLEX_CONNECTED,
            CertifyConfig(
                simplex_witness=SimplexWitness(
                    SIMPLEX_VERTICES, MODE_POSITIVES_INSIDE, interior_negative=vec(0, 4)
                )
            ),
        ),
        (NEG_QUADRATIC, None),
        (fixtures.PERFECT_SQUARE, None),
        (fixtures.ENCLOSED, None),
        (fixtures.SADDLE, None),
    ]
    for f, config in cases:
        config = config or CertifyConfig()
        cert = certify_connectivity(f, config)
        assert verify_certificate(f, cert) == [], f"replay failed for {f}"
        doc = tracedoc.make_document(f, config, cert)
        round_tripped = tracedoc.certificate_from_json(
            json.loads(tracedoc.document_to_json(doc))["tree"]
        )
        assert round_tripped == cert
        assert tracedoc.verify_document(json.loads(tracedoc.document_to_json(doc))) == []

    # end to end through the CLI flag
    path = tmp_path / "cube4.poly"
    path.write_text(fixtures.CUBE4_TEXT, encoding="utf-8")
    assert main(["certify", str(path)]) == 0
    trace = tmp_path / "trace.json"
    trace.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["certify", "--verify-trace", str(trace)]) == 0
    capsys.readouterr()
    print("ACCEPTANCE 3 witness validity: PASS")


def _random_signomial(rng):
    n = rng.choice([1, 2, 3])
    pairs = []
    for _ in range(rng.randint(1, 8)):
        num = 0
        while num == 0:
            num = rng.randint(-40, 40)
        den = rng.randint(1, 4)
        exp = tuple(F(rng.randint(0, 5)) for _ in range(n))
        pairs.append((F(num, den), exp))
    return Signomial.from_terms(n, pairs)


def test_criterion_4_random_soundness_against_oracle():
    rng = random.Random(20260810)
    certified = 0
    for _ in range(200):
        f = _random_signomial(rng)
        if not f.terms:
            continue
        cert = certify_connectivity(f)
        if cert.outcome == INCONCLUSIVE:
            continue
        certified += 1
        res = 200 if f.dimension <= 2 else 60
        report = count_negative_components(f, default_grid(f.dimension, resolution=res))
        assert report.component_count <= 1, (cert.outcome, f)
        if cert.outcome == CERTIFIED_EXACTLY_ONE:
            assert report.component_count == 1, f
        if cert.outcome == CERTIFIED_EMPTY:
            assert report.component_count == 0, f
    assert certified >= 100  # the sweep must actually exercise the oracle
    print(f"ACCEPTANCE 4 random soundness ({certified} certified): PASS")


def test_criterion_5_lp_matches_fourier_motzkin():
    rng = random.Random(5350918)
    for _ in range(500):
        unknowns = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 8)):
            coeffs = tuple(F(rng.randint(-5, 5)) for _ in range(unknowns))
            rhs = F(rng.randint(-5, 5))
            rel = "=" if rng.random() < 0.25 else ">="
            rows.append((coeffs, rhs, rel))
        got = feasible(LinearSystem.build(unknowns, rows)).is_feasible
        want = fm_feasible(rows, unknowns)
        assert got == want, (unknowns, rows)
    print("ACCEPTANCE 5 exact simplex vs Fourier-Motzkin (500 systems): PASS")


def test_criterion_6_hull_matches_exhaustive_enumeration():
    rng = random.Random(90125)
    for _ in range(100):
        n = rng.randint(1, 3)
        count = rng.randint(1, 8)
        pts = set()
        flat = rng.random() < 0.3
        while len(pts) < count:
            p = [rng.randint(-4, 4) for _ in range(n)]
            if flat and n > 1:
                p[-1] = sum(p[:-1]) % 3
            pts.add(tuple(F(c) for c in p))
        pts = sorted(pts)
        P = build_polytope(pts)
        assert polytope_facets_in_hull_coords(P) == brute_force_facets(pts), pts
    cube = build_polytope(CUBE3.support)
    assert len(cube.facets) == 6 and len(cube.vertices) == 8
    print("ACCEPTANCE 6 hull vs exhaustive facet oracle (100 sets): PASS")


def test_criterion_7_printed_witnesses_accepted():
    assert verify_separating_hyperplane(TEN_TERM_UPPER, (1, 0), 2, strict=True)
    assert verify_separating_hyperplane(fixtures.SADDLE, (1, 0), 1, strict=False)
    assert verify_enclosing_pair(TEN_TERM, (1, 0), 2, 0, strict=False)
    assert verify_enclosing_pair(BOX_F, (1, 0), F(7, 2), F(1, 2), strict=True)
    witness = SimplexWitness(
        SIMPLEX_VERTICES,
        MODE_POSITIVES_INSIDE,
        interior_negative=vec(0, 4),
        halfspaces=SIMPLEX_HALFSPACES,
    )
    assert verify_simplex_witness(SIMPLEX_CONNECTED, witness)
    negated = SimplexWitness(
        SIMPLEX_VERTICES, MODE_NEGATIVES_INSIDE, halfspaces=SIMPLEX_HALFSPACES
    )
    negation = Signomial.from_terms(2, [(-t.coefficient, t.exponent) for t in SIMPLEX_CONNECTED.terms])
    assert verify_simplex_witness(negation, negated)
    print("ACCEPTANCE 7 printed witnesses: PASS")


def test_criterion_8_wide_polynomial_analysis(tmp_path, capsys):
    path = tmp_path / "wide16.poly"
    path.write_text(WIDE16_TEXT, encoding="utf-8")
    assert main(["analyze", str(path), "--facet-budget", "10000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimension"] == 16
    assert report["newton_dim"] == 16
    assert report["facet_budget_exceeded"] is False
    assert report["facet_count"] == 17
    assert report["vertex_count"] == 17
    assert report["smallest_negative_face"]["proper"] is True
    assert report["closure_property"] is True
    print("ACCEPTANCE 8 wide-support analysis: PASS")
