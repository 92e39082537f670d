from fractions import Fraction

import pytest

from descregions import certify, criteria, polytope
from descregions.check import (
    CERTIFIED_AT_MOST_ONE,
    CERTIFIED_EMPTY,
    CERTIFIED_EXACTLY_ONE,
    INCONCLUSIVE,
    KIND_CRITERION,
    KIND_EMPTY,
    KIND_INCONCLUSIVE,
    KIND_NEGATIVE_FACE,
    KIND_PARALLEL_SPLIT,
    MODE_POSITIVES_INSIDE,
    STRICT_SEPARATING,
    CertifyConfig,
    SimplexWitness,
    verify_certificate,
)
from descregions.certify import (
    NotEnclosingError,
    certify_and_check_closure,
    certify_connectivity,
    intersection_nonempty,
    side_restrictions,
    upper_bound,
)
from descregions.linalg import dot, vector
from descregions.signomial import Signomial, positives

import fixtures
from fixtures import (
    BOX_F,
    CUBE3,
    CUBE4,
    ENCLOSED,
    NEG_QUADRATIC,
    PERFECT_SQUARE,
    SADDLE,
    SIMPLEX_CONNECTED,
    SIMPLEX_SPLIT,
    SIMPLEX_VERTICES,
    STRIP_PAIR,
    TEN_TERM,
    TEN_TERM_UPPER,
    TEN_TERM_LOWER,
    vec,
)

F = Fraction


def test_cube3_certificate():
    cert = certify_connectivity(CUBE3)
    assert cert.outcome == CERTIFIED_EXACTLY_ONE
    assert cert.kind == KIND_PARALLEL_SPLIT
    assert cert.normal == vec(0, 0, 1)
    assert {cert.edge.beta1, cert.edge.beta2} == {vec(0, 0, 0), vec(0, 0, 1)}
    assert [c.kind for c in cert.children] == [KIND_CRITERION, KIND_CRITERION]


def test_cube4_trace_shape():
    cert = certify_connectivity(CUBE4)
    assert cert.outcome == CERTIFIED_EXACTLY_ONE
    assert cert.kind == KIND_NEGATIVE_FACE
    assert cert.normal == vec(0, 0, 0, -1)
    split = cert.children[0]
    assert split.kind == KIND_PARALLEL_SPLIT
    assert {split.edge.beta1, split.edge.beta2} == {vec(0, 0, 0, 0), vec(0, 0, 1, 0)}
    leaves = split.children
    assert all(leaf.kind == KIND_CRITERION for leaf in leaves)
    assert all(leaf.criterion.kind == STRICT_SEPARATING for leaf in leaves)


def test_neg_quadratic_inconclusive():
    cert = certify_connectivity(NEG_QUADRATIC)
    assert cert.outcome == INCONCLUSIVE
    assert cert.kind == KIND_INCONCLUSIVE


def test_strip_pair_inconclusive_by_default():
    # no negative-negative edge joins the two parallel faces and the box
    # criterion does not apply, so the algorithm gives up even though the
    # region is in fact connected
    assert certify_connectivity(STRIP_PAIR).outcome == INCONCLUSIVE
    box_on = CertifyConfig(enable_box_criterion=True, enable_enclosing_search=True)
    assert certify_connectivity(STRIP_PAIR, box_on).outcome == INCONCLUSIVE


def test_simplex_witness_certifies_connected_variant_only():
    w = SimplexWitness(SIMPLEX_VERTICES, MODE_POSITIVES_INSIDE, interior_negative=vec(0, 4))
    config = CertifyConfig(simplex_witness=w)
    cert = certify_connectivity(SIMPLEX_CONNECTED, config)
    assert cert.outcome == CERTIFIED_EXACTLY_ONE
    assert verify_certificate(SIMPLEX_CONNECTED, cert) == []
    broken = certify_connectivity(SIMPLEX_SPLIT, config)
    assert broken.outcome == INCONCLUSIVE


def test_no_negative_terms_is_empty_certificate():
    f = Signomial.from_terms(1, [(1, (0,)), (1, (2,))])
    cert = certify_connectivity(f)
    assert cert.kind == KIND_EMPTY and cert.outcome == CERTIFIED_EMPTY


def test_perfect_square_at_most_one():
    cert = certify_connectivity(PERFECT_SQUARE)
    assert cert.outcome == CERTIFIED_AT_MOST_ONE
    assert cert.criterion.kind == "one-negative-coeff"


def test_side_restrictions_ten_term():
    fa, fb = side_restrictions(TEN_TERM, (1, 0), 2, 0)
    assert fa == TEN_TERM_UPPER
    assert fb == TEN_TERM_LOWER


def test_side_restrictions_enclosed():
    fa, fb = side_restrictions(ENCLOSED, (1, 0), 2, 0)
    assert set(fa.support) == {vec(2, 0), vec(3, 1), vec(2, 2), vec(1, 1), vec(0, 0)}
    assert set(fb.support) == {vec(0, 2), vec(2, 2), vec(1, 1), vec(0, 0)}


def test_side_restrictions_strip_pair():
    fa, fb = side_restrictions(STRIP_PAIR, (0, 1), 1, 0)
    assert set(fa.support) == {vec(1, 1), vec(1, 0), vec(0, 1), vec(4, 1)}
    assert set(fb.support) == {vec(2, 0), vec(4, 0), vec(1, 0), vec(0, 1), vec(4, 1)}


def test_side_restrictions_rejects_non_enclosing():
    with pytest.raises(NotEnclosingError):
        side_restrictions(TEN_TERM, (1, 0), 1, 0)


def test_intersection_nonempty_cube():
    edge = intersection_nonempty(CUBE3, (0, 0, 1))
    assert edge is not None
    assert (edge.beta1, edge.beta2) == (vec(0, 0, 1), vec(0, 0, 0))


def test_intersection_nonempty_strip_pair_none():
    assert intersection_nonempty(STRIP_PAIR, (0, 1)) is None


def test_intersection_nonempty_requires_split_support():
    with pytest.raises(ValueError):
        intersection_nonempty(TEN_TERM, (0, 1))


def test_intersection_nonempty_negatives_on_one_side():
    # all negatives on the lower face: no candidate pair at all
    f = Signomial.from_terms(2, [(-1, (0, 0)), (-1, (1, 0)), (1, (0, 1)), (2, (1, 1))])
    assert intersection_nonempty(f, (0, 1)) is None


def test_upper_bound_strip_pair_without_negative_edge_is_two():
    # both faces certify at most one component and neither is empty, and no
    # polytope edge joins their negatives: with no exact intersection
    # evidence the bound is the sum of the children's
    report = upper_bound(STRIP_PAIR, (0, 1))
    assert intersection_nonempty(STRIP_PAIR, (0, 1)) is None
    assert [c.outcome for c in report.children] == [CERTIFIED_AT_MOST_ONE, CERTIFIED_EXACTLY_ONE]
    assert report.bound == 2
    assert report.method == "sum"
    assert report.edges == ()


def test_upper_bound_cube_edge():
    report = upper_bound(CUBE3, (0, 0, 1))
    assert report.bound == 1
    assert report.edges[0].kind == "negative-edge"


def test_upper_bound_ten_term_unknown():
    report = upper_bound(TEN_TERM, (1, 0), enclosing=(2, 0))
    assert report.bound is None
    assert report.reason


def test_upper_bound_derives_enclosing_offsets():
    config = CertifyConfig(enable_enclosing_search=True)
    # without explicit offsets the direction (1, 0) derives (2, 0) and the
    # result matches the explicit call
    report = upper_bound(TEN_TERM, (1, 0), config)
    assert report.bound is None and report.method == "graph-ab"
    with pytest.raises(ValueError):
        upper_bound(TEN_TERM, (1, 0))
    # for the box fixture the derived slab certifies both sides and a segment
    # witness joins them
    report = upper_bound(BOX_F, (1, 0), config)
    assert report.bound == 1
    assert report.edges[0].kind == "segment-witness"


def test_upper_bound_enclosing_offsets_are_the_rational_extremes(monkeypatch):
    """Offsets derived on the lattice frame are the max and min of the
    Fraction dot products v . alpha over the positive exponents."""
    seen = []
    real = certify.side_restrictions
    monkeypatch.setattr(certify, "side_restrictions", lambda f, v, a, b: seen.append((a, b)) or real(f, v, a, b))
    config = CertifyConfig(enable_enclosing_search=True)
    derived = 0
    for f in vars(fixtures).values():
        if not isinstance(f, Signomial) or f.dimension > 4 or not positives(f):
            continue
        n = f.dimension
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        for v in units + [(1,) * n, tuple(F(1, 2 + i) * (-1) ** i for i in range(n))]:
            seen.clear()
            try:
                upper_bound(f, v, config)
            except NotEnclosingError:
                pass
            if seen:
                values = [dot(vector(v), alpha) for alpha in positives(f)]
                assert seen[0] == (max(values), min(values))
                derived += 1
    assert derived > 10


def test_upper_bound_disjoint_children():
    # two certified single-negative children with disjoint negative regions:
    # the graph stays edgeless and the bound is the plain sum
    f = Signomial.from_terms(
        2, [(10, (0, 0)), (-1, (1, 0)), (1, (1, 1)), (-10, (0, 1))]
    )
    report = upper_bound(f, (0, 1))
    assert report.bound == 2
    assert report.method == "sum"
    assert report.edges == ()


def test_box_budget_overrun_becomes_inconclusive():
    # 13 negatives exceed the side-assignment budget; the box step must
    # decline quietly rather than abort the run
    pairs = [(-1, (i, 0)) for i in range(13)] + [(1, (0, 1)), (1, (5, 1)), (1, (6, 2))]
    f = Signomial.from_terms(2, pairs)
    cert = certify_connectivity(f, CertifyConfig(enable_box_criterion=True))
    assert cert.outcome in (INCONCLUSIVE, CERTIFIED_EXACTLY_ONE, CERTIFIED_AT_MOST_ONE)


def test_certify_and_check_closure_triples():
    cert, closure = certify_and_check_closure(CUBE4)
    assert cert.outcome == CERTIFIED_EXACTLY_ONE and closure
    cert, closure = certify_and_check_closure(PERFECT_SQUARE)
    assert cert.outcome == CERTIFIED_AT_MOST_ONE and not closure
    cert, closure = certify_and_check_closure(TEN_TERM_UPPER)
    assert cert.outcome == CERTIFIED_EXACTLY_ONE and closure


def test_determinism():
    assert certify_connectivity(CUBE4) == certify_connectivity(CUBE4)
    assert certify_connectivity(TEN_TERM) == certify_connectivity(TEN_TERM)


def test_max_depth_cap():
    cert = certify_connectivity(CUBE4, CertifyConfig(max_depth=1))
    assert cert.outcome == INCONCLUSIVE


def test_replay_all_fixture_certificates():
    cases = [CUBE3, CUBE4, TEN_TERM, TEN_TERM_UPPER, TEN_TERM_LOWER, NEG_QUADRATIC, PERFECT_SQUARE]
    for f in cases:
        cert = certify_connectivity(f)
        assert verify_certificate(f, cert) == []


def test_replay_rejects_tampered_certificate():
    cert = certify_connectivity(CUBE3)
    # swap the edge endpoints' roles by pointing beta1 at a positive exponent
    import dataclasses

    bad_edge = dataclasses.replace(cert.edge, beta1=vec(0, 1, 1))
    bad = dataclasses.replace(cert, edge=bad_edge)
    assert verify_certificate(CUBE3, bad) != []


def test_replay_rejects_wrong_polynomial():
    cert = certify_connectivity(CUBE3)
    assert verify_certificate(CUBE4, cert) != []


def test_termination_strict_decrease():
    # every recursion strictly shrinks the support, so the trace depth is
    # bounded by the term count
    def depth(cert):
        return 1 + max((depth(c) for c in cert.children), default=0)

    for f in (CUBE4, TEN_TERM, BOX_F):
        cert = certify_connectivity(f)
        assert depth(cert) <= len(f.terms)


def test_each_node_builds_its_newton_polytope_at_most_once(monkeypatch):
    built = []

    def counting(points, facet_budget=None):
        built.append(tuple(points))
        return polytope.build_polytope(points, facet_budget)

    monkeypatch.setattr(certify, "build_polytope", counting)
    monkeypatch.setattr(criteria, "build_polytope", counting)
    flagged = CertifyConfig(enable_simplex_search=True, enable_box_criterion=True)
    # the simplex search declines at the root of TEN_TERM and of both cubes,
    # whose certificates then need the hull again
    for f in (TEN_TERM, CUBE3, CUBE4, SIMPLEX_CONNECTED):
        built.clear()
        assert verify_certificate(f, certify_connectivity(f, flagged)) == []
        assert built and len(built) == len(set(built))
    # a hull over the budget declines the simplex search and ends the node
    built.clear()
    cert = certify_connectivity(TEN_TERM, CertifyConfig(enable_simplex_search=True, facet_budget=1))
    assert cert.outcome == INCONCLUSIVE and cert.reason == "facet count exceeded budget of 1"
    assert built == [TEN_TERM.support]


def _count_calls(monkeypatch, modules, name, wrapped):
    """Record the first argument of every call to ``name`` made through any
    of the modules, then run the original."""
    calls = []

    def counting(first, *args, **kwargs):
        calls.append(tuple(first.support) if hasattr(first, "support") else tuple(first))
        return wrapped(first, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_closure_check_reuses_the_certificates_hull_and_separation(monkeypatch):
    built = _count_calls(monkeypatch, (certify, criteria), "build_polytope", polytope.build_polytope)
    searched = _count_calls(
        monkeypatch, (certify, criteria), "find_strict_separating_hyperplane", criteria.find_strict_separating_hyperplane
    )
    # one hull per distinct support: TEN_TERM certifies at its root, CUBE4 at
    # its root and on one face
    for f, hulls, closed in ((TEN_TERM, 1, False), (CUBE4, 2, True), (SIMPLEX_CONNECTED, 1, False)):
        built.clear()
        searched.clear()
        cert, closure = certify_and_check_closure(f)
        assert closure is closed and verify_certificate(f, cert) == []
        assert len(built) == hulls == len(set(built))
        assert len(searched) == len(set(searched))
    # a strictly separated root needs neither a hull nor a second search
    built.clear()
    searched.clear()
    cert, closure = certify_and_check_closure(TEN_TERM_UPPER)
    assert cert.criterion.kind == STRICT_SEPARATING and closure is True
    assert built == [] and searched == [TEN_TERM_UPPER.support]
    # one negative: the criteria stop before the search, so closure runs it
    searched.clear()
    cert, closure = certify_and_check_closure(SADDLE)
    assert searched == [SADDLE.support]
    # a hull over the budget is attempted once and its error reaches the caller
    built.clear()
    with pytest.raises(polytope.FacetBudgetExceededError):
        certify_and_check_closure(TEN_TERM, CertifyConfig(facet_budget=1))
    assert built == [TEN_TERM.support]
