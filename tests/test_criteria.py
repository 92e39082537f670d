from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings

from descregions.check import (
    BOX,
    MAX_SIMPLEX_DIMENSION,
    MODE_NEGATIVES_INSIDE,
    MODE_POSITIVES_INSIDE,
    NO_NEGATIVE_TERMS,
    NO_POSITIVE_TERMS,
    ONE_NEGATIVE_COEFF,
    ONE_POSITIVE_COEFF,
    SIMPLEX_NEGATIVES_INSIDE,
    SIMPLEX_POSITIVES_INSIDE,
    STRICT_SEPARATING,
    CertifyConfig,
    CriterionCertificate,
    DegenerateSimplexError,
    EnclosingWitness,
    SimplexWitness,
    simplex_halfspaces,
    verify_criterion,
    verify_enclosing_pair,
    verify_separating_hyperplane,
    verify_simplex_witness,
)
from descregions.criteria import (
    check_box_criterion,
    check_connectivity,
    closure_property,
    find_strict_enclosing_pair,
    find_strict_separating_hyperplane,
    negative_vertex_functional,
    _simplex_search,
)
from descregions import check, criteria, lp, polytope
from descregions.signomial import Signomial, restrict_indices
from descregions.linalg import affine_rank, dot, lattice, vsub
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
from strategies import rational_signed_supports, signed_supports
from lp_oracle import int_system
from signs import negatives, positives
from test_lp import same_path

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
    assert find_strict_enclosing_pair(f) is None


# --- simplex vertex cones ----------------------------------------------------


def test_simplex_halfspaces_match_printed_representation():
    derived = simplex_halfspaces(lattice(SIMPLEX_VERTICES)[1])
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
        simplex_halfspaces(((0, 0), (1, 1), (2, 2)))


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


def test_box_criterion_self_checks_its_witness(monkeypatch):
    """A segment separator that fails replay is never handed out: with the
    segment LP's witness negated, replay would say the separator is not
    strict on the endpoints, and the search raises instead."""
    real = lp.separate_segment_from_hull

    def negated(*args):
        res = real(*args)
        return res if not res.is_feasible else lp.FeasibilityResult(tuple(-x for x in res.witness))

    monkeypatch.setattr(lp, "separate_segment_from_hull", negated)
    with pytest.raises(RuntimeError, match="box witness failed re-verification"):
        check_box_criterion(BOX_F)


def test_box_criterion_checks_its_enclosing_pair_once(monkeypatch):
    """The pair search self-checks the pair it hands out; the box's own
    self-check reads only the box's conditions, so a box found checks its
    pair once."""
    calls = []
    real = check.verify_enclosing_pair
    for module in (check, criteria):
        monkeypatch.setattr(module, "verify_enclosing_pair", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    cert = check_box_criterion(BOX_F)
    assert cert is not None and cert.kind == BOX and len(calls) == 1


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


def newton_vertex(f):
    """``negative_vertex_functional`` on N(f)."""
    return negative_vertex_functional(f, build_polytope(f.frame), range(len(f.frame)))


def test_has_negative_vertex():
    assert newton_vertex(TEN_TERM)[0] == vec(3, 2)
    assert newton_vertex(TEN_TERM_LOWER) is None
    assert newton_vertex(Signomial.from_terms(1, [(1, (0,)), (1, (1,))])) is None


def test_negative_vertex_functional_exposes():
    beta, u = newton_vertex(TEN_TERM)
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
    top = [vec(0, 1, 1, 0), vec(0, 0, 1, 0), vec(1, 0, 1, 0), vec(1, 1, 1, 0)]
    cert = check_connectivity(restrict_indices(CUBE4, sorted(map(CUBE4.term_index, top))))
    assert cert.kind == STRICT_SEPARATING
    bottom = [vec(1, 0, 0, 0), vec(1, 1, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 0, 0)]
    assert check_connectivity(restrict_indices(CUBE4, sorted(map(CUBE4.term_index, bottom)))).kind == STRICT_SEPARATING


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
        out.append(lp.feasible(int_system(n + 1, rows)).witness)
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
        return lp.feasible(int_system(n, rows)).is_feasible

    expected = next((b for b in sorted(negatives(f)) if lp_vertex(b)), None)
    found = newton_vertex(f)
    assert (found and found[0]) == expected
    if found is not None:
        beta, u = found
        assert all(dot(u, beta) > dot(u, q) for q in support if q != beta)
        # the hull of a larger support with f's support as a face gives the
        # same answer, with the index of each of f's terms among its points
        lifted = [row + (0,) for row in f.frame] + [(0,) * n + (1,)]
        P = build_polytope(lifted)
        g = Signomial.from_terms(n + 1, [(t.coefficient, t.exponent + (F(0),)) for t in f.terms])
        assert negative_vertex_functional(g, P, range(len(f.frame)))[0] == beta + (F(0),)


# --- pruned searches against the unpruned enumerations ------------------------


def unpruned_simplex_search(f):
    """Every affinely independent combination of n + 1 support points in
    sorted order, both modes, with no candidate skipped."""
    support = sorted(f.support)
    n = f.dimension
    for combo in combinations(support, n + 1):
        if affine_rank(lattice(combo)[1]) != n:
            continue
        for mode in (MODE_NEGATIVES_INSIDE, MODE_POSITIVES_INSIDE):
            w = SimplexWitness(tuple(combo), mode)
            if verify_simplex_witness(f, w):
                return w
    return None


def unpruned_enclosing_pair(f):
    """One feasibility problem for every side assignment 1 .. 2^k - 2."""
    neg = sorted(negatives(f))
    pos = sorted(positives(f))
    k = len(neg)
    n = f.dimension
    for mask in range(1, 2 ** k - 1):
        rows = []
        for alpha in pos:
            rows.append((tuple(-c for c in alpha) + (1, 0), 0, ">="))
            rows.append((tuple(alpha) + (0, -1), 0, ">="))
        for i in range(k):
            if mask >> i & 1:
                rows.append((tuple(neg[i]) + (-1, 0), 1, ">="))
        for i in range(k):
            if not mask >> i & 1:
                rows.append((tuple(-c for c in neg[i]) + (0, 1), 1, ">="))
        rows.append(((0,) * n + (1, -1), 0, ">="))
        res = lp.feasible(int_system(n + 2, rows))
        if res.is_feasible:
            w = res.witness
            return EnclosingWitness(w[:n], w[n], w[n + 1], True)
    return None


@given(signed_supports(max_dimension=3))
@settings(deadline=None, max_examples=60)
def test_pruned_searches_match_unpruned_enumerations(f):
    found = _simplex_search(f, CertifyConfig())
    expected = unpruned_simplex_search(f)
    assert (found and found.witness) == expected
    if found is not None:
        assert found.kind == (
            SIMPLEX_NEGATIVES_INSIDE
            if expected.mode == MODE_NEGATIVES_INSIDE
            else SIMPLEX_POSITIVES_INSIDE
        )
    assert find_strict_enclosing_pair(f) == unpruned_enclosing_pair(f)


@given(signed_supports(max_dimension=3, negatives=(5, 8)))
@settings(deadline=None, max_examples=60)
def test_the_enclosing_walk_matches_every_assignment_with_many_negatives(f):
    """With 5 to 8 negatives drawn the walk cuts subtrees below the first
    levels and skips nodes by nogoods on a few placed negatives; its pair is
    still the first that one LP per side assignment finds."""
    assume(len(f.negative_indices) >= 5)
    assert find_strict_enclosing_pair(f) == unpruned_enclosing_pair(f)


def test_pruned_searches_on_a_flat_support():
    # collinear in two variables: no simplex, and nothing to build one from
    f = Signomial.from_terms(2, [(-1, (0, 0)), (1, (1, 1)), (1, (2, 2)), (-1, (3, 3))])
    assert _simplex_search(f, CertifyConfig()) is None
    found = find_strict_enclosing_pair(f)
    assert found is not None and found == unpruned_enclosing_pair(f)


def count_lp_calls(monkeypatch):
    calls = []
    feasible = lp.feasible

    def counted(system):
        calls.append(system)
        return feasible(system)

    monkeypatch.setattr(lp, "feasible", counted)
    return calls


def test_enclosing_search_lp_counts(monkeypatch):
    calls = count_lp_calls(monkeypatch)
    assert find_strict_enclosing_pair(TEN_TERM) is None
    # 4 negatives: the first node solved, the third and the last below, is
    # refuted by a certificate on the third, (2, 1), alone, which lies in
    # the hull of the positives: no side is left for it, and no assignment
    # (the mask loop solved 6 of its 7)
    assert len(calls) == 1
    calls.clear()
    assert find_strict_enclosing_pair(BOX_F) is not None
    # two feasible partial assignments and one refuted on every placed
    # negative are solved on the way down to the first feasible leaf, mask
    # 3, and leaf 2 before it: two LPs more than the mask loop's 3
    assert len(calls) == 5
    calls.clear()
    # 6 negatives around the segment of two positives: 62 side assignments,
    # 31 with the last negative below, all refuted by the certificates of 4
    # partial assignments, after 2 feasible ones; no leaf is solved, where
    # the mask loop solved 4 leaves
    negs = ((0, 3), (1, 2), (1, 4), (3, 1), (3, 2), (4, 0))
    f = Signomial.from_terms(2, [(1, (0, 0)), (1, (2, 4))] + [(-1, b) for b in negs])
    assert find_strict_enclosing_pair(f) is None
    assert len(calls) == 6


def test_simplex_search_over_facet_budget_prunes_nothing():
    f = Signomial.from_terms(2, [(1, (0, 0)), (1, (4, 0)), (1, (0, 4)), (-1, (1, 0)), (-1, (0, 1))])
    default = check_connectivity(f, CertifyConfig(enable_simplex_search=True))
    assert default is not None and default.kind == SIMPLEX_NEGATIVES_INSIDE
    assert check_connectivity(f, CertifyConfig(enable_simplex_search=True, facet_budget=1)) == default


def test_simplex_search_derives_only_combinations_holding_newton_vertices(monkeypatch):
    derived = []
    real = criteria.simplex_halfspaces
    monkeypatch.setattr(criteria, "simplex_halfspaces", lambda combo: derived.append(combo) or real(combo))
    # N(TEN_TERM) has one negative and four positive vertices, so only the
    # C(9, 2) = 36 combinations through the negative vertex can work
    assert _simplex_search(TEN_TERM, CertifyConfig()) is None
    assert len(derived) == 36
    derived.clear()
    # without the hull every one of the C(10, 3) = 120 combinations is tried
    assert _simplex_search(TEN_TERM, CertifyConfig(facet_budget=1)) is None
    assert len(derived) == 120


def _corner_simplex(n):
    """Positives at 0 and 4 e_i, negatives at e_1 and e_2, in n variables:
    no criterion before the simplex applies, and the positives span a
    negatives-inside witness."""
    corners = [(0,) * n] + [tuple(4 * (j == i) for j in range(n)) for i in range(n)]
    units = [tuple(int(j == i) for j in range(n)) for i in (0, 1)]
    f = Signomial.from_terms(n, [(1, p) for p in corners] + [(-1, p) for p in units])
    return f, SimplexWitness(tuple(vec(*p) for p in corners), MODE_NEGATIVES_INSIDE)


def test_simplex_witnesses_stop_at_the_dimension_cap(monkeypatch):
    """Above MAX_SIMPLEX_DIMENSION variables the search declines, a supplied
    witness is passed over and replay refuses one by name, all without
    deriving a simplex; at the cap each still works."""
    calls = []
    real = check.simplex_halfspaces
    for module in (check, criteria, polytope):
        monkeypatch.setattr(module, "simplex_halfspaces", lambda points: calls.append(1) or real(points))
    search = CertifyConfig(enable_simplex_search=True)
    f, w = _corner_simplex(MAX_SIMPLEX_DIMENSION + 1)
    assert check_connectivity(f, search) is None
    assert check_connectivity(f, CertifyConfig(simplex_witness=w)) is None
    assert not verify_simplex_witness(f, w)
    problem = verify_criterion(f, CriterionCertificate(SIMPLEX_NEGATIVES_INSIDE, False, w))
    n, cap = MAX_SIMPLEX_DIMENSION + 1, MAX_SIMPLEX_DIMENSION
    assert problem == f"simplex witness in {n} variables, above the cap of {cap}"
    assert calls == []
    f, w = _corner_simplex(MAX_SIMPLEX_DIMENSION)
    assert check_connectivity(f, CertifyConfig(simplex_witness=w)).kind == SIMPLEX_NEGATIVES_INSIDE
    found = check_connectivity(f, search)
    assert found.kind == SIMPLEX_NEGATIVES_INSIDE and verify_criterion(f, found) is None
    assert calls


@given(signed_supports(max_dimension=3))
@settings(deadline=None, max_examples=60)
def test_simplex_search_walks_the_filtered_combinations_in_sorted_order(f):
    """The combinations derived are those of all of them, in sorted order,
    that hold every Newton vertex of one sign, up to the first witness."""
    derived = []
    real = criteria.simplex_halfspaces
    criteria.simplex_halfspaces = lambda points: derived.append(points) or real(points)
    try:
        found = _simplex_search(f, CertifyConfig())
    finally:
        criteria.simplex_halfspaces = real
    n = f.dimension
    P = build_polytope(f.frame)
    if P.dim < n:
        assert derived == []
        return
    needed = [{i for i in P.vertices if (f.terms[i].coefficient > 0) == positive} for positive in (False, True)]
    expected = [
        [f.frame[i] for i in combo]
        for combo in combinations(range(len(f.terms)), n + 1)
        if any(vertices.issubset(combo) for vertices in needed)
    ]
    assert derived == (expected[: len(derived)] if found else expected)


# --- LPs on the lattice frame against the same LPs on rational rows ----------


def _fraction_separation_lps(neg, pos):
    """The separation LPs of ``find_strict_separating_hyperplane``, with rows
    on the rational exponents."""
    rows = [(tuple(b) + (-1,), 0, ">=") for b in neg] + [(tuple(-c for c in a) + (1,), 0, ">=") for a in pos]
    strict = [(tuple(neg[0]) + (-1,), 1, ">=")]
    if len(neg) > 1:
        strict.append((tuple(map(sum, zip(*neg[1:]))) + (1 - len(neg),), 1, ">="))
    return [rows + [s] for s in strict]


def _fraction_enclosing_lp(neg, pos, mask):
    n = len(neg[0])
    rows = []
    for alpha in pos:
        rows.append((tuple(-c for c in alpha) + (1, 0), 0, ">="))
        rows.append((tuple(alpha) + (0, -1), 0, ">="))
    rows += [(tuple(b) + (-1, 0), 1, ">=") for i, b in enumerate(neg) if mask >> i & 1]
    rows += [(tuple(-c for c in b) + (0, 1), 1, ">=") for i, b in enumerate(neg) if not mask >> i & 1]
    return rows + [((0,) * n + (1, -1), 0, ">=")]


def _fraction_segment_lp(b1, b2, pos):
    """The segment LP of ``lp.separate_segment_from_hull`` for sorted
    ``pos``, with rows on the rational exponents."""
    rows = [(tuple(b1) + (-1,), 1, ">="), (tuple(b2) + (-1,), 1, ">=")]
    return rows + [(tuple(-c for c in a) + (1,), 0, ">=") for a in pos]


def _check_frame_lps(f):
    """Every separating, enclosing and segment LP gives the same unscaled
    witness and a Farkas vector of the same support from f's frame rows
    (columns of the normal times L) as from its rational rows, and each
    search hands out the witness of the rational LPs."""
    n, L = f.dimension, f.scale
    neg, pos = sorted(negatives(f)), sorted(positives(f))
    if not neg or not pos:
        return
    first = None
    for rows in _fraction_separation_lps(neg, pos):
        res = same_path(n + 1, rows, [L] * n + [1])
        first = first or res.witness
    sep = find_strict_separating_hyperplane(f)
    assert (sep and (sep.normal, sep.offset)) == (first and (first[:n], first[n]))
    for mask in range(1, 2 ** len(neg) - 1):
        same_path(n + 2, _fraction_enclosing_lp(neg, pos, mask), [L] * n + [1, 1])
    pair = find_strict_enclosing_pair(f)
    assert pair == unpruned_enclosing_pair(f)
    expected = None
    for b1, b2 in combinations(neg, 2):
        same_path(n + 1, _fraction_segment_lp(b1, b2, pos), [L] * n + [1])
    if pair is not None:
        above = [b for b in neg if dot(pair.normal, b) >= pair.upper]
        below = [b for b in neg if dot(pair.normal, b) <= pair.lower]
        for b1, b2 in ((b1, b2) for b1 in above for b2 in below):
            res = lp.feasible(int_system(n + 1, _fraction_segment_lp(b1, b2, pos)))
            if res.is_feasible:
                expected = (b1, b2, res.witness[:n], res.witness[n])
                break
    box = check_box_criterion(f)
    w = box and box.witness
    assert (w and (w.beta1, w.beta2, w.separator_normal, w.separator_offset)) == expected


@given(rational_signed_supports(max_dimension=3))
@settings(deadline=None, max_examples=50)
def test_frame_lps_follow_the_rational_lps(f):
    _check_frame_lps(f)


def test_frame_lps_follow_the_rational_lps_on_the_fixtures():
    for f in (SIMPLEX_CONNECTED, SIMPLEX_SPLIT, TEN_TERM, TEN_TERM_UPPER, BOX_F, ENCLOSED):
        _check_frame_lps(f)
    assert SIMPLEX_CONNECTED.scale == 3
