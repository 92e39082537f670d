"""Inputs within the caps that once ran for minutes, and trace documents
that once held replay for seconds, each held to a bound on counted work:
simplex pivots, combinations walked, recursion nodes and simplex inverses,
which repeat exactly."""

import pytest

from descregions import certify, check, criteria, lp, tracedoc
from descregions.check import INCONCLUSIVE, CertifyConfig
from descregions.criteria import _simplex_search, find_strict_enclosing_pair, find_strict_separating_hyperplane
from descregions.parsing import parse_signomial
from descregions.signomial import MAX_EXPONENT_DIGITS

from adversarial import (
    box_budget_text,
    cube_signs_text,
    many_negatives_text,
    parabola_text,
    prime_denominator_text,
    prime_vertex_document,
    simplex_walk_text,
    wide_vertex_document,
)


@pytest.fixture
def pivots(monkeypatch):
    """The pivot count of every LP solved while the test runs."""
    counts = []
    solve = lp.feasible

    def counted(system):
        result = solve(system)
        counts.append(result.pivots)
        return result

    monkeypatch.setattr(lp, "feasible", counted)
    return counts


# Twice the measured totals over the two separating LPs, 3 + 4 and 3 + 3
# pivots; the all-artificial tableau took 539 + 5,226 and 192 + 375.
@pytest.mark.parametrize(
    "text, bound", [(parabola_text(400), 14), (prime_denominator_text(80), 12)], ids=["parabola400", "primes80"]
)
def test_separating_search_pivots_are_bounded(text, bound, pivots):
    f = parse_signomial(text)
    assert find_strict_separating_hyperplane(f) is None
    assert len(pivots) == 2 and sum(pivots) <= bound


def test_simplex_search_walks_nothing_when_no_combination_holds_the_vertices(monkeypatch):
    """Every exponent of the 400-term parabola is a vertex, 200 of each sign,
    so no 3 points hold the vertices of either sign: no combination is
    walked, where all C(400, 3) = 10,586,800 once were."""
    f = parse_signomial(parabola_text(400))
    walks, derived = [], []
    combinations, simplex_halfspaces = criteria.combinations, criteria.simplex_halfspaces
    monkeypatch.setattr(criteria, "combinations", lambda *args: walks.append(args) or combinations(*args))
    monkeypatch.setattr(criteria, "simplex_halfspaces", lambda points: derived.append(points) or simplex_halfspaces(points))
    assert _simplex_search(f, CertifyConfig(enable_simplex_search=True)) is None
    assert walks == [] and derived == []


def test_simplex_search_declines_at_its_budget(monkeypatch):
    """At 80 terms every one of the C(80, 3) = 82,160 combinations holds the
    vertices (all positive) and none certifies; the search derives
    SIMPLEX_SEARCH_BUDGET of them and declines, where it once derived all
    of them in 2.7 s.  At 20 terms it derives all C(20, 3) = 1,140, as
    before, and finds nothing either."""
    derived = []
    simplex_halfspaces = criteria.simplex_halfspaces
    monkeypatch.setattr(criteria, "simplex_halfspaces", lambda points: derived.append(1) or simplex_halfspaces(points))
    config = CertifyConfig(enable_simplex_search=True)
    for terms, walked in ((20, 1_140), (80, criteria.SIMPLEX_SEARCH_BUDGET)):
        derived.clear()
        f = parse_signomial(simplex_walk_text(terms))
        assert len(f.frame) == terms
        assert _simplex_search(f, config) is None
        assert len(derived) == walked
    assert criteria.SIMPLEX_SEARCH_BUDGET < 82_160


def test_enclosing_search_at_the_budget_is_bounded(pivots):
    """12 negatives, the default budget: the depth-first walk refutes every
    side assignment with 4 LPs (17 pivots), pinned here, well within 50
    LPs, and bounded by twice those pivots.  The mask loop it replaced
    solved all 2^11 - 1 side assignments with the last negative below,
    8,402 pivots, as each Farkas certificate of a full assignment used all
    12 negatives."""
    f = parse_signomial(box_budget_text())
    k = CertifyConfig().enclosing_max_negatives
    assert len(f.negative_indices) == k == 12
    assert find_strict_enclosing_pair(f, k) is None
    assert len(pivots) == 4 and sum(pivots) <= 34


# (seed, whether a strict enclosing pair exists, the LPs the walk solved)
MANY_NEGATIVES = [
    (0, True, 13), (1, False, 16), (2, False, 2), (3, False, 8), (4, True, 4),
    (9, True, 24), (15, True, 14), (20, True, 31), (26, False, 1), (38, False, 87),
]


@pytest.mark.parametrize("seed, found, lps", MANY_NEGATIVES, ids=[f"seed{s}" for s, _, _ in MANY_NEGATIVES])
def test_enclosing_search_past_the_budget_is_bounded_by_counted_lps(seed, found, lps, pivots):
    """13 to 20 negatives, past the default budget of 12: with
    ``max_negatives=20`` the walk decides each input within the LPs it took
    when pinned, where the mask loop had up to 2^19 side assignments to try."""
    f = parse_signomial(many_negatives_text(seed))
    assert 13 <= len(f.negative_indices) <= 20
    assert find_strict_enclosing_pair(f) is None
    assert (find_strict_enclosing_pair(f, max_negatives=20) is not None) == found
    assert len(pivots) <= lps


# The node counts measured before any memo of faces: the recursion re-walks
# a face once per order of splits that reaches it, and ends Inconclusive.
# A split certifies its second face only once its first is certified, which
# took the counts from 211 and 1,469 to 77 and 522.
@pytest.mark.parametrize("d, seed, nodes", [(5, 2, 77), (6, 0, 522)], ids=["d5", "d6"])
def test_cube_sign_recursion_is_bounded_by_counted_nodes(d, seed, nodes, monkeypatch):
    calls = []
    real = certify._certify
    monkeypatch.setattr(certify, "_certify", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    f = parse_signomial(cube_signs_text(d, seed))
    assert len(f.terms) == 2**d
    assert certify.certify_connectivity(f).outcome == INCONCLUSIVE
    assert len(calls) <= nodes


@pytest.mark.parametrize(
    "doc, reason",
    [
        (prime_vertex_document(), "simplex vertex entry 885441/999983 is off the signomial's exponent lattice (L = 1)"),
        (wide_vertex_document(), f"simplex vertex entry has more than {MAX_EXPONENT_DIGITS} digits"),
    ],
    ids=["prime-denominators", "wide-integers"],
)
def test_hostile_simplex_documents_are_refused_before_any_inverse(doc, reason, monkeypatch):
    """Simplex witness vertices off the signomial's exponent lattice, or
    beyond the exponent digit caps, are named without deriving a simplex:
    framing them with the support once took one inverse on 100-digit
    (0.2 s) or 600-digit (4.4 s) entries."""
    calls = []
    real = check.simplex_halfspaces
    monkeypatch.setattr(check, "simplex_halfspaces", lambda points: calls.append(1) or real(points))
    errors = tracedoc.verify_document(doc)
    assert calls == []
    assert errors == [f"root: {reason}"]
