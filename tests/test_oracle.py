from fractions import Fraction

import mpmath
import numpy as np
import pytest

from descregions.oracle import (
    GridBudgetExceededError,
    GridSpec,
    count_negative_components,
    default_grid,
    negative_mask,
)
from descregions.signomial import evaluate_log, negatives, positives, restrict

from fixtures import (
    NEG_QUADRATIC_SPLIT,
    SIMPLEX_SPLIT,
    TEN_TERM,
    TEN_TERM_LOWER,
    TEN_TERM_UPPER,
)

F = Fraction


def grid2(res):
    return default_grid(2, resolution=res)


def test_component_counts_at_modest_resolution():
    assert count_negative_components(TEN_TERM, grid2(200)).component_count == 3
    assert count_negative_components(TEN_TERM_UPPER, grid2(200)).component_count == 1
    assert count_negative_components(TEN_TERM_LOWER, grid2(200)).component_count == 2
    # the two lobes of this region pass within one cell of each other at
    # coarser resolutions
    assert count_negative_components(SIMPLEX_SPLIT, grid2(400)).component_count == 2
    g = default_grid(1, resolution=20000)
    assert count_negative_components(NEG_QUADRATIC_SPLIT, g).component_count == 2


def test_component_report_consistency():
    report = count_negative_components(TEN_TERM, grid2(200))
    assert report.component_count <= report.negative_cell_count
    assert len(report.witnesses) == report.component_count
    for w in report.witnesses:
        assert evaluate_log(TEN_TERM, w) < 0


def test_witnesses_hold_at_higher_precision():
    report = count_negative_components(TEN_TERM, grid2(200))
    mpmath.mp.dps = 50
    for w in report.witnesses:
        total = mpmath.mpf(0)
        for t in TEN_TERM.terms:
            e = sum(mpmath.mpf(m.numerator) / m.denominator * y for m, y in zip(t.exponent, w))
            total += mpmath.mpf(t.coefficient.numerator) / t.coefficient.denominator * mpmath.e**e
        assert total < 0


def test_restriction_masks_nest():
    grid = grid2(120)
    base = negative_mask(TEN_TERM, grid)
    # dropping a negative term raises the value: negative cells shrink
    for drop in negatives(TEN_TERM):
        keep = [b for b in negatives(TEN_TERM) if b != drop]
        g = restrict(TEN_TERM, list(positives(TEN_TERM)) + keep)
        assert np.all(base[negative_mask(g, grid)])
    # dropping a positive term lowers the value: negative cells grow
    for drop in positives(TEN_TERM):
        keep = [p for p in positives(TEN_TERM) if p != drop]
        g = restrict(TEN_TERM, list(negatives(TEN_TERM)) + keep)
        assert np.all(negative_mask(g, grid)[base])


def test_grid_budget():
    grid = GridSpec(((-8, 8), (-8, 8)), 4000, cell_cap=1_000_000)
    with pytest.raises(GridBudgetExceededError):
        negative_mask(TEN_TERM, grid)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(((-8, 8),), 1)
    with pytest.raises(ValueError):
        GridSpec(((8, -8),), 10)
    for tol in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            GridSpec(((-8, 8),), 10, tolerance_factor=tol)
    GridSpec(((-8, 8),), 10, tolerance_factor=0.0)
    with pytest.raises(ValueError):
        negative_mask(TEN_TERM, default_grid(3))


def test_stability_under_doubling_modest():
    for f, lo in ((TEN_TERM, 200), (TEN_TERM_LOWER, 200)):
        a = count_negative_components(f, grid2(lo)).component_count
        b = count_negative_components(f, grid2(2 * lo)).component_count
        assert a == b
