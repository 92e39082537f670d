from fractions import Fraction

import pytest
from hypothesis import given, settings

from descregions.criteria import (
    BOX,
    MODE_NEGATIVES_INSIDE,
    MODE_POSITIVES_INSIDE,
    NO_NEGATIVE_TERMS,
    NO_POSITIVE_TERMS,
    ONE_NEGATIVE_COEFF,
    ONE_POSITIVE_COEFF,
    STRICT_SEPARATING,
    SIMPLEX_NEGATIVES_INSIDE,
    SIMPLEX_POSITIVES_INSIDE,
    CertifyConfig,
    DegenerateSimplexError,
    EnclosingBudgetExceededError,
    SimplexWitness,
    check_box_criterion,
    check_connectivity,
    closure_property,
    find_strict_enclosing_pair,
    find_strict_separating_hyperplane,
    negative_vertex_functional,
    simplex_halfspaces,
    verify_criterion,
    verify_enclosing_pair,
    verify_separating_hyperplane,
    verify_simplex_witness,
)
from descregions import lp
from descregions.signomial import Signomial, negatives, restrict, positives
from descregions.linalg import dot, vsub
from descregions.polytope import build_polytope

from fixtures import (
    BOX_F,
    CUBE4,
    ENCLOSED,
    NEG_QUADRATIC,
    PERFECT_SQUARE,
    SADDLE,
    SIMPLEX_CONNECTED,
    SIMPLEX_HALFSPACES,
    SIMPLEX_SPLIT,
    SIMPLEX_VERTICES,
    TEN_TERM,
    TEN_TERM_LOWER,
    TEN_TERM_UPPER,
    vec,
)
from strategies import signed_supports

F = Fraction


# --- strict separating hyperplanes -----------------------------------------


def test_find_strict_separating_upper_restriction():
    w = find_strict_separating_hyperplane(TEN_TERM_UPPER)
    assert w is not None and w.strict
    assert verify_separating_hyperplane(TEN_TERM_UPPER, w.normal, w.offset, True, w.strict_point)
    # the printed witness is also valid
    assert verify_separating_hyperplane(TEN_TERM_UPPER, (1, 0), 2, True)


def test_find_strict_separating_none_for_ten_term():
    assert find_strict_separating_hyperplane(TEN_TERM) is None


def test_find_strict_separating_none_for_neg_quadratic():
    assert find_strict_separating_hyperplane(NEG_QUADRATIC) is None


def test_strict_separating_none_means_every_candidate_infeasible():
    from fixtures import STRIP_PAIR

    for f in (TEN_TERM, NEG_QUADRATIC, STRIP_PAIR):
        assert find_strict_separating_hyperplane(f) is None
        assert per_candidate_witnesses(f) == [None] * len(negatives(f))


def test_verify_separating_saddle():
    assert verify_separating_hyperplane(SADDLE, (1, 0), 1, strict=False)


def test_verify_separating_lower_restriction_nonstrict_only():
    assert not verify_separating_hyperplane(TEN_TERM_LOWER, (-1, 0), 0, strict=True)
    assert verify_separating_hyperplane(TEN_TERM_LOWER, (-1, 0), 0, strict=False)


def test_verify_separating_rejects_zero_normal():
    assert not verify_separating_hyperplane(SADDLE, (0, 0), 0, strict=False)


# --- enclosing pairs --------------------------------------------------------


def test_verify_enclosing_examples():
    assert verify_enclosing_pair(TEN_TERM, (1, 0), 2, 0, strict=False)
    assert verify_enclosing_pair(BOX_F, (1, 0), F(7, 2), F(1, 2), strict=True)
    assert not verify_enclosing_pair(TEN_TERM, (1, 0), 2, 0, strict=True)


def test_find_strict_enclosing_box_fixture():
    w = find_strict_enclosing_pair(BOX_F)
    assert w is not None
    assert verify_enclosing_pair(BOX_F, w.normal, w.upper, w.lower, strict=True)


def test_find_strict_enclosing_no_negatives():
    f = Signomial.from_terms(1, [(1, (0,)), (2, (1,))])
    assert find_strict_enclosing_pair(f) is None


def test_find_strict_enclosing_enclosed_fixture_result_verifies():
    w = find_strict_enclosing_pair(ENCLOSED)
    if w is not None:
        assert verify_enclosing_pair(ENCLOSED, w.normal, w.upper, w.lower, strict=True)


def test_find_strict_enclosing_budget():
    pairs = [(-1, (i, 0)) for i in range(13)] + [(1, (0, 1))]
    f = Signomial.from_terms(2, pairs)
    with pytest.raises(EnclosingBudgetExceededError):
        find_strict_enclosing_pair(f)


# --- simplex vertex cones ----------------------------------------------------


def test_simplex_halfspaces_match_printed_representation():
    derived = simplex_halfspaces(SIMPLEX_VERTICES)
    # the derived facet opposite each vertex supports it from outside
    for j, (v, a) in enumerate(derived):
        for k, vertex in enumerate(SIMPLEX_VERTICES):
            if k == j:
                assert dot(v, vertex) < a
            else:
                assert dot(v, vertex) == a


def test_simplex_witness_positives_inside():
    w = SimplexWitness(
        SIMPLEX_VERTICES,
        MODE_POSITIVES_INSIDE,
        interior_negative=vec(0, 4),
        halfspaces=SIMPLEX_HALFSPACES,
    )
    assert verify_simplex_witness(SIMPLEX_CONNECTED, w)
    # a second interior point printed alongside also verifies
    w2 = SimplexWitness(SIMPLEX_VERTICES, MODE_POSITIVES_INSIDE, interior_negative=vec(5, 2))
    assert verify_simplex_witness(SIMPLEX_CONNECTED, w2)


def test_simplex_witness_fails_without_interior_negative():
    w = SimplexWitness(SIMPLEX_VERTICES, MODE_POSITIVES_INSIDE)
    assert not verify_simplex_witness(SIMPLEX_SPLIT, w)


def test_simplex_witness_negatives_inside_for_negation():
    w = SimplexWitness(SIMPLEX_VERTICES, MODE_NEGATIVES_INSIDE, halfspaces=SIMPLEX_HALFSPACES)
    negation = Signomial.from_terms(2, [(-t.coefficient, t.exponent) for t in SIMPLEX_CONNECTED.terms])
    assert verify_simplex_witness(negation, w)


def test_simplex_witness_wrong_halfspaces_rejected():
    bad = (((F(1), F(0)), F(10)),) + SIMPLEX_HALFSPACES[1:]
    w = SimplexWitness(SIMPLEX_VERTICES, MODE_POSITIVES_INSIDE, vec(0, 4), bad)
    assert not verify_simplex_witness(SIMPLEX_CONNECTED, w)


def test_simplex_degenerate_vertices():
    with pytest.raises(DegenerateSimplexError):
        simplex_halfspaces((vec(0, 0), vec(1, 1), vec(2, 2)))


def test_simplex_positives_inside_needs_two_variables():
    f = Signomial.from_terms(1, [(1, (1,)), (-1, (0,)), (-1, (2,))])
    w = SimplexWitness((vec(0), vec(2)), MODE_POSITIVES_INSIDE)
    assert not verify_simplex_witness(f, w)


# --- box criterion ------------------------------------------------------------


def test_box_criterion_box_fixture():
    cert = check_box_criterion(BOX_F)
    assert cert is not None and cert.kind == BOX and cert.nonempty
    assert {cert.witness.beta1, cert.witness.beta2} == {vec(0, 4), vec(4, 4)}
    assert verify_criterion(BOX_F, cert) is None


def test_box_criterion_none_for_ten_term():
    assert check_box_criterion(TEN_TERM) is None


def test_box_criterion_single_positive():
    f = Signomial.from_terms(2, [(1, (1, 1)), (-1, (1, 0)), (-1, (0, 1))])
    cert = check_box_criterion(f)
    assert cert is not None and cert.kind == BOX
    assert verify_criterion(f, cert) is None


# --- closure property ---------------------------------------------------------


def test_closure_examples():
    assert not closure_property(PERFECT_SQUARE)
    assert closure_property(TEN_TERM_UPPER)
    assert closure_property(CUBE4)


def test_closure_trivial_signs():
    assert closure_property(Signomial.from_terms(1, [(1, (0,)), (1, (1,))]))
    assert closure_property(Signomial.from_terms(1, [(-1, (0,))]))
    assert not closure_property(Signomial.from_terms(1, []))


# --- negative vertices ---------------------------------------------------------


def test_has_negative_vertex():
    assert negative_vertex_functional(TEN_TERM)[0] == vec(3, 2)
    assert negative_vertex_functional(TEN_TERM_LOWER) is None
    assert negative_vertex_functional(Signomial.from_terms(1, [(1, (0,)), (1, (1,))])) is None


def test_negative_vertex_functional_exposes():
    beta, u = negative_vertex_functional(TEN_TERM)
    assert beta == vec(3, 2)
    for q in TEN_TERM.support:
        if q != beta:
            assert dot(u, beta) > dot(u, q)


# --- the combined criterion check ---------------------------------------------


def test_check_connectivity_upper_restriction():
    cert = check_connectivity(TEN_TERM_UPPER)
    assert cert is not None and cert.kind == STRICT_SEPARATING


def test_check_connectivity_neg_quadratic_none():
    assert check_connectivity(NEG_QUADRATIC) is None


def test_check_connectivity_cube4_face_leaves():
    # the top face of the inner cube has one positive term and a strict
    # separating hyperplane; the separating criterion is checked first
    top = restrict(CUBE4, [vec(0, 1, 1, 0), vec(0, 0, 1, 0), vec(1, 0, 1, 0), vec(1, 1, 1, 0)])
    cert = check_connectivity(top)
    assert cert.kind == STRICT_SEPARATING
    bottom = restrict(CUBE4, [vec(1, 0, 0, 0), vec(1, 1, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 0, 0)])
    assert check_connectivity(bottom).kind == STRICT_SEPARATING


def test_check_connectivity_trivial_kinds():
    assert check_connectivity(Signomial.from_terms(1, [(1, (1,)), (2, (0,))])).kind == NO_NEGATIVE_TERMS
    assert check_connectivity(Signomial.from_terms(1, [(-1, (1,)), (-2, (0,))])).kind == NO_POSITIVE_TERMS
    assert check_connectivity(Signomial.from_terms(1, [(1, (0,)), (-1, (1,))])).kind == ONE_NEGATIVE_COEFF


def test_check_connectivity_one_positive():
    # single positive exponent in the relative interior of the negatives
    f = Signomial.from_terms(
        2, [(1, (1, 1)), (-1, (0, 0)), (-1, (2, 0)), (-1, (0, 2)), (-1, (2, 2))]
    )
    cert = check_connectivity(f)
    assert cert.kind == ONE_POSITIVE_COEFF and cert.nonempty


def test_check_connectivity_supplied_simplex_witness():
    w = SimplexWitness(SIMPLEX_VERTICES, MODE_POSITIVES_INSIDE, interior_negative=vec(0, 4))
    cert = check_connectivity(SIMPLEX_CONNECTED, CertifyConfig(simplex_witness=w))
    assert cert is not None and cert.kind == SIMPLEX_POSITIVES_INSIDE and cert.nonempty
    # the broken variant must not be certified by the same witness
    assert check_connectivity(SIMPLEX_SPLIT, CertifyConfig(simplex_witness=w)) is None


def test_check_connectivity_simplex_search():
    # negatives inside a support-spanned simplex, positives in its vertex
    # cones, no strict separating hyperplane (the axes interleave)
    f = Signomial.from_terms(2, [(1, (0, 0)), (1, (4, 0)), (1, (0, 4)), (-1, (1, 0)), (-1, (0, 1))])
    assert check_connectivity(f) is None
    cert = check_connectivity(f, CertifyConfig(enable_simplex_search=True))
    assert cert is not None
    assert cert.kind == SIMPLEX_NEGATIVES_INSIDE and not cert.nonempty
    assert verify_criterion(f, cert) is None
    # the paper-style simplex for the connected fixture is not spanned by
    # support points, so the restricted search may decline; any hit must verify
    found = check_connectivity(SIMPLEX_CONNECTED, CertifyConfig(enable_simplex_search=True))
    if found is not None:
        assert verify_criterion(SIMPLEX_CONNECTED, found) is None


def test_check_connectivity_box_flag():
    assert check_connectivity(BOX_F) is None
    cert = check_connectivity(BOX_F, CertifyConfig(enable_box_criterion=True))
    assert cert is not None and cert.kind == BOX


def test_single_positive_support_always_certifies_nonempty():
    import random

    from descregions.signomial import newton_dim

    rng = random.Random(11)
    seen = 0
    while seen < 20:
        terms = [(F(rng.randint(1, 10)), (rng.randint(0, 5), rng.randint(0, 5)))]
        for _ in range(rng.randint(2, 6)):
            terms.append((F(-rng.randint(1, 10)), (rng.randint(0, 5), rng.randint(0, 5))))
        f = Signomial.from_terms(2, terms)
        if len(positives(f)) != 1 or newton_dim(f) < 2:
            continue
        seen += 1
        cert = check_connectivity(f)
        assert cert is not None and cert.nonempty


def test_all_returned_witnesses_reverify():
    cases = [
        (TEN_TERM_UPPER, None),
        (BOX_F, CertifyConfig(enable_box_criterion=True)),
        (
            SIMPLEX_CONNECTED,
            CertifyConfig(
                simplex_witness=SimplexWitness(
                    SIMPLEX_VERTICES, MODE_POSITIVES_INSIDE, interior_negative=vec(0, 4)
                )
            ),
        ),
    ]
    for f, config in cases:
        cert = check_connectivity(f, config)
        assert cert is not None
        assert verify_criterion(f, cert) is None


# --- differential checks against one LP per candidate -------------------------


def per_candidate_witnesses(f):
    """Witness (or None) of the separation LP making each negative strict."""
    neg = sorted(negatives(f))
    pos = sorted(positives(f))
    n = f.dimension
    out = []
    for beta0 in neg:
        rows = [(tuple(b) + (-1,), 0, ">=") for b in neg]
        rows += [(tuple(-c for c in a) + (1,), 0, ">=") for a in pos]
        rows.append((tuple(beta0) + (-1,), 1, ">="))
        out.append(lp.feasible(lp.LinearSystem.build(n + 1, rows)).witness)
    return out


@given(signed_supports())
@settings(deadline=None, max_examples=60)
def test_separation_matches_per_candidate_lps(f):
    w = find_strict_separating_hyperplane(f)
    if not negatives(f) or not positives(f):
        assert w is None
        return
    witnesses = per_candidate_witnesses(f)
    assert (w is not None) == any(x is not None for x in witnesses)
    if w is not None:
        assert verify_separating_hyperplane(f, w.normal, w.offset, True, w.strict_point)
    if witnesses[0] is not None:  # the first candidate keeps its witness
        n = f.dimension
        assert (w.normal, w.offset) == (witnesses[0][:n], witnesses[0][n])


@given(signed_supports())
@settings(deadline=None, max_examples=40)
def test_negative_vertex_functional_matches_lp(f):
    support = f.support
    n = f.dimension

    def lp_vertex(beta):
        rows = [(vsub(beta, q), 1, ">=") for q in support if q != beta]
        return lp.feasible(lp.LinearSystem.build(n, rows)).is_feasible

    expected = next((b for b in sorted(negatives(f)) if lp_vertex(b)), None)
    found = negative_vertex_functional(f)
    assert (found and found[0]) == expected
    if found is not None:
        beta, u = found
        assert all(dot(u, beta) > dot(u, q) for q in support if q != beta)
        # the hull of a larger support with f's support as a face gives the same answer
        lifted = [q + (F(0),) for q in support] + [(F(0),) * n + (F(1),)]
        P = build_polytope(lifted)
        g = Signomial.from_terms(n + 1, [(t.coefficient, t.exponent + (F(0),)) for t in f.terms])
        assert negative_vertex_functional(g, P)[0] == beta + (F(0),)
