import pytest

from descregions import certify, check, criteria, lp, polytope
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
from descregions.certify import certify_connectivity, intersection_nonempty
from descregions.parsing import parse_signomial
from descregions.signomial import Signomial

from adversarial import box_budget_text
from test_corpus_digests import WORKLOADS, corpus
from fixtures import (
    BOX_F,
    CUBE3,
    CUBE4,
    NEG_QUADRATIC,
    PERFECT_SQUARE,
    SIMPLEX_CONNECTED,
    SIMPLEX_SPLIT,
    SIMPLEX_VERTICES,
    STRIP_PAIR,
    TEN_TERM,
    TEN_TERM_UPPER,
    TEN_TERM_LOWER,
    vec,
)


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


def split_of(f, v):
    """N(f) and the two faces of its parallel split in direction v."""
    P = polytope.build_polytope(f.frame)
    return (P, *next((top, bottom) for w, top, bottom in polytope.parallel_face_pairs(P) if w == v))


def test_intersection_nonempty_cube():
    edge = intersection_nonempty(CUBE3, *split_of(CUBE3, (0, 0, 1)))
    assert edge is not None
    assert (edge.beta1, edge.beta2) == (vec(0, 0, 1), vec(0, 0, 0))
    assert edge.functional == (-1, -1, 0) and all(type(a) is int for a in edge.functional)


def test_intersection_nonempty_strip_pair_none():
    assert intersection_nonempty(STRIP_PAIR, *split_of(STRIP_PAIR, (0, 1))) is None


def test_intersection_nonempty_negatives_on_one_side():
    # all negatives on the lower face: no candidate pair at all
    f = Signomial.from_terms(2, [(-1, (0, 0)), (-1, (1, 0)), (1, (0, 1)), (2, (1, 1))])
    assert intersection_nonempty(f, *split_of(f, (0, 1))) is None


def test_certifying_makes_no_face_split(monkeypatch):
    """The search reads each parallel split's faces off the hull query;
    only replay splits a recorded normal's faces again."""
    calls = []
    real = check._face_split
    for module in (check, certify):
        if hasattr(module, "_face_split"):
            monkeypatch.setattr(module, "_face_split", lambda f, v: calls.append(v) or real(f, v))
    cert = certify_connectivity(CUBE4)
    assert cert.children[0].kind == KIND_PARALLEL_SPLIT and calls == []
    assert verify_certificate(CUBE4, cert) == [] and calls


def test_box_budget_overrun_becomes_inconclusive(monkeypatch):
    """12 negatives, one past the side-assignment budget: the enclosing
    search declines before any LP, the box criterion with it, and the run
    ends Inconclusive rather than in an error."""
    f = parse_signomial(box_budget_text())
    config = CertifyConfig(enable_box_criterion=True, enclosing_max_negatives=11)
    assert len(f.negative_indices) == 12
    solved, searched = [], []
    feasible, search = lp.feasible, criteria.find_strict_enclosing_pair

    def counting_search(*args):
        before = len(solved)
        found = search(*args)
        searched.append(len(solved) - before)
        return found

    monkeypatch.setattr(lp, "feasible", lambda system: solved.append(1) or feasible(system))
    monkeypatch.setattr(criteria, "find_strict_enclosing_pair", counting_search)
    assert criteria.check_connectivity(f, config) is None
    assert searched == [0]
    cert = certify_connectivity(f, config)
    assert (cert.outcome, cert.reason) == (
        INCONCLUSIVE,
        "no criterion applies, no proper negative face, no certified parallel split (facet-normal scan only)",
    )


def test_box_budget_at_the_default_is_decided_in_few_lps(monkeypatch):
    """12 negatives, at the side-assignment budget: the box criterion runs
    the enclosing search, which finds no pair, and the run ends in the same
    Inconclusive as past the budget, in at most 50 LPs over every criterion
    (6: two separating, four enclosing), where the search alone once solved
    2^11 - 1."""
    f = parse_signomial(box_budget_text())
    solved = []
    feasible = lp.feasible
    monkeypatch.setattr(lp, "feasible", lambda system: solved.append(1) or feasible(system))
    cert = certify_connectivity(f, CertifyConfig(enable_box_criterion=True))
    assert cert.outcome == INCONCLUSIVE and cert.reason.startswith("no criterion applies")
    assert len(solved) <= 50


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


# seed-1 certify corpora: (separating searches run, searches skipped at a
# negative-face child); before the skip every one of them ran
SEED_1_SEPARATING_SEARCHES = {"lowdim-flagged": (25, 0), "cube-recursion": (45, 4), "wide-hull": (10, 1)}


def inherited_separation(monkeypatch, run):
    """The searches that ``run`` makes and the signomials whose search a
    negative-face parent let it skip."""
    searched, skipped = [], []
    search, connectivity = criteria.find_strict_separating_hyperplane, certify.check_connectivity

    def checking(f, config, newton, inseparable=False):
        if inseparable and len(f.negative_indices) > 1 and f.positive_indices:
            skipped.append(f)
        return connectivity(f, config, newton, inseparable)

    monkeypatch.setattr(criteria, "find_strict_separating_hyperplane", lambda f: searched.append(f) or search(f))
    monkeypatch.setattr(certify, "check_connectivity", checking)
    run()
    monkeypatch.undo()
    return searched, skipped


def test_a_negative_face_child_skips_the_separating_search(monkeypatch):
    """CUBE4's root search fails and its negatives lie on a proper face: the
    child is certified without a search of its own, and a search run on it
    finds nothing."""
    searched, skipped = inherited_separation(monkeypatch, lambda: certify_connectivity(CUBE4))
    assert certify_connectivity(CUBE4).kind == KIND_NEGATIVE_FACE
    assert searched[0] == CUBE4 and len(skipped) == 1 and skipped[0] not in searched
    assert criteria.find_strict_separating_hyperplane(skipped[0]) is None
    assert criteria.check_connectivity(skipped[0], CertifyConfig(), inseparable=True) is None


@pytest.mark.parametrize("workload", sorted(SEED_1_SEPARATING_SEARCHES))
def test_inherited_separation_on_the_seed_1_corpora(workload, monkeypatch):
    """Counted on the benchmark's seed-1 corpora, and every skipped search,
    run after all, returns None, on seeds 2 and 3 too."""
    count, config = WORKLOADS[workload]
    for seed in (1, 2, 3):
        texts = corpus.corpus(workload, seed, count)
        searched, skipped = inherited_separation(
            monkeypatch, lambda: [certify_connectivity(parse_signomial(text), config) for text in texts]
        )
        if seed == 1:
            assert (len(searched), len(skipped)) == SEED_1_SEPARATING_SEARCHES[workload]
        assert all(criteria.find_strict_separating_hyperplane(f) is None for f in skipped)
