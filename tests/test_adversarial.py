"""Inputs within the caps that once ran for minutes, each held to a bound on
counted work: simplex pivots and combinations walked, which repeat exactly."""

import pytest

from descregions import criteria, lp
from descregions.check import CertifyConfig
from descregions.criteria import _simplex_search, find_strict_separating_hyperplane
from descregions.parsing import parse_signomial

from adversarial import parabola_text, prime_denominator_text


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
