from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from descregions import oracle
from descregions.certify import certify_connectivity
from descregions.check import CERTIFIED_AT_MOST_ONE, CERTIFIED_EMPTY, CERTIFIED_EXACTLY_ONE
from descregions.oracle import (
    GridBudgetExceededError,
    GridSpec,
    count_negative_components,
    default_grid,
    negative_mask,
)
from descregions.parsing import parse_signomial
from descregions.signomial import DEFAULT_TOLERANCE_FACTOR, Signomial, evaluate_log, restrict_indices

import mask_oracle
from test_corpus_digests import WORKLOADS, corpus
from fixtures import (
    CUBE3,
    CUBE4,
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
    for drop in TEN_TERM.negative_indices:
        g = restrict_indices(TEN_TERM, [i for i in range(len(TEN_TERM.frame)) if i != drop])
        assert np.all(base[negative_mask(g, grid)])
    # dropping a positive term lowers the value: negative cells grow
    for drop in TEN_TERM.positive_indices:
        g = restrict_indices(TEN_TERM, [i for i in range(len(TEN_TERM.frame)) if i != drop])
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


def test_grid_rejects_non_finite_boxes_and_tolerance():
    inf = float("inf")
    for box, message in (
        (((-inf, inf),), "box ends must be finite"),
        (((-8, inf),), "box ends must be finite"),
        (((-inf, 8),), "box ends must be finite"),
        (((float("nan"), 8),), "box ends must be finite"),
        (((-8, 8), (-1e308, 1e308)), "box width hi - lo overflows"),
        # ints beyond the float range, which math.isfinite cannot convert
        (((0, 10**400),), "box ends must be finite"),
        (((-(10**400), 0),), "box ends must be finite"),
        (((-(10**308), 10**308),), "box width hi - lo overflows"),
    ):
        with pytest.raises(ValueError, match=message):
            GridSpec(box, 10)
    with pytest.raises(ValueError, match="tolerance_factor must be >= 0 and finite"):
        GridSpec(((-8, 8),), 10, tolerance_factor=inf)
    GridSpec(((-1e307, 1e307),), 10, tolerance_factor=1e300)


def test_stability_under_doubling_modest():
    for f, lo in ((TEN_TERM, 200), (TEN_TERM_LOWER, 200)):
        a = count_negative_components(f, grid2(lo)).component_count
        b = count_negative_components(f, grid2(2 * lo)).component_count
        assert a == b


# --- differential test against the full-grid mask ------------------------------

EXPONENT = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3)),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-999999, 999999)),  # drives exp to inf, and sums to nan
)
COEFFICIENT = st.one_of(
    st.builds(
        lambda sign, p, q, e: sign * Fraction(p, q) * Fraction(10) ** e,
        st.sampled_from((1, -1)), st.integers(1, 10**6), st.integers(1, 10**6),
        st.one_of(st.just(0), st.integers(-20, 20)),
    ),
    # summed in another order these round to another sign, e.g. 1 - 1 - 1e-17
    st.sampled_from((1, -1, Fraction(1, 10**17), -Fraction(1, 10**17), Fraction(1, 10), -Fraction(3, 10))),
)
AXIS = st.one_of(
    st.sampled_from(((-8.0, 8.0), (-1.0, 1.0), (0.0, 2.0))),
    st.tuples(st.floats(-20, 20), st.floats(1e-3, 30)).map(lambda p: (p[0], p[0] + p[1])),
)
MAX_RESOLUTION = {1: 60, 2: 60, 3: 27, 4: 12, 5: 7}


@st.composite
def signomials(draw):
    """Signomials in 1 to 5 variables with rational exponents, whole zero
    columns, constant terms, terms in a single variable, terms with a
    negative axis-0 entry (which sort before the terms free of axis 0, so
    that the mask's leading run is empty) and 6-digit exponents.
    Half of them start from -1 + 3 x^v - x^(2v), which is negative on both
    sides of a slab, so their regions often have two components."""
    n = draw(st.integers(1, 5))
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = []
    if draw(st.booleans()):
        v = draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))
        pairs += [(-1, (0,) * n), (3, v), (-1, tuple(2 * x for x in v))]
    for _ in range(draw(st.integers(0 if pairs else 1, 6))):
        exponent = [Fraction(0) if z else draw(EXPONENT) for z in zero]
        kind = draw(st.sampled_from(("drawn", "constant", "one variable", "negative on axis 0")))
        if kind == "constant":
            exponent = [Fraction(0)] * n
        elif kind == "one variable":
            i = draw(st.integers(0, n - 1))
            exponent = [Fraction(0)] * n
            exponent[i] = draw(EXPONENT.filter(bool))
        elif kind == "negative on axis 0":
            exponent[0] = -draw(st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(3))))
        pairs.append((draw(COEFFICIENT), tuple(exponent)))
    f = Signomial.from_terms(n, pairs)
    return f if f.terms else Signomial.from_terms(n, [(-1, (Fraction(0),) * n)])


@st.composite
def mask_cases(draw):
    """A signomial, a grid for it and a slab size: one cell, part of an
    axis-0 row, or the module's own.  Half of the grids start every axis at
    0, so their first cell sums the bare coefficients."""
    f = draw(signomials())
    n = f.dimension
    if draw(st.booleans()):
        box = tuple((0.0, draw(st.floats(1e-3, 30))) for _ in range(n))
    else:
        box = tuple(draw(AXIS) for _ in range(n))
    tolerance = draw(st.sampled_from((0.0, DEFAULT_TOLERANCE_FACTOR)))
    grid = GridSpec(box, draw(st.integers(2, MAX_RESOLUTION[n])), tolerance)
    return f, grid, draw(st.sampled_from((1, 3, 64, oracle._SLAB_CELLS)))


def assert_same_as_full_grid(f, grid):
    assert np.array_equal(negative_mask(f, grid), mask_oracle.negative_mask(f, grid))
    assert count_negative_components(f, grid) == mask_oracle.count_negative_components(f, grid)


# at y = 0 the terms are 1, -1 and -1e-17: summed in term order they give
# -1e-17, in reverse order 0
ORDERED = Signomial.from_terms(1, [(1, (1,)), (-1, (2,)), (-Fraction(1, 10**17), (3,))])
ORDERED_GRID = GridSpec(((-1.0, 1.0),), 3, tolerance_factor=0.0)
# a term with a negative axis-0 entry sorts before the terms free of axis 0,
# so the mask's leading run is empty and those terms are added in every slab
# after it: at y = 0 the terms are -2e-17, 1, -1 and 1e-17, whose sum in term
# order is 1e-17, and -1e-17 with the terms free of axis 0 summed first
LEADING = Signomial.from_terms(
    2, [(-2 * Fraction(1, 10**17), (-1, 0)), (1, (0, 0)), (-1, (0, 1)), (Fraction(1, 10**17), (0, 2))]
)
LEADING_GRID = GridSpec(((0.0, 1.0), (-1.0, 1.0)), 3, tolerance_factor=0.0)
# the negative term's exp overflows from y = 0.71 and the positive term's from
# y = 1.42: between them a cell is -inf against a scale of inf, beyond them
# inf - inf, and the scale must add the magnitude of -inf, not -inf itself
OVERFLOW = Signomial.from_terms(1, [(1, (500,)), (-1, (1000,))])
OVERFLOW_GRID = GridSpec(((0.0, 2.0),), 60)
# -1/10^400 floats to -0.0, a coefficient that must add to the scale like
# +0.0; from y = 0.71 its exp overflows and the term is -0.0 * inf = nan
NEGATIVE_ZERO = Signomial.from_terms(1, [(1, (0,)), (-Fraction(1, 10**400), (1000,)), (-1, (1,))])
NEGATIVE_ZERO_GRID = GridSpec(((-1.0, 1.0),), 7)
# (1 - 1/x)^2: its middle term's only exponent entry times the grid's 0.0 is
# -0.0, the first entry that the term's sum starts from; exp gives 1 for
# either zero, so the sum is 0 there and the cell is not negative
NEGATIVE_ENTRY = Signomial.from_terms(1, [(1, (0,)), (-2, (-1,)), (1, (-2,))])
NEGATIVE_ENTRY_GRID = GridSpec(((-1.0, 1.0),), 3, tolerance_factor=0.0)


@given(mask_cases())
@example((ORDERED, ORDERED_GRID, 1))
@example((LEADING, LEADING_GRID, 3))
@example((OVERFLOW, OVERFLOW_GRID, 1))
@example((NEGATIVE_ZERO, NEGATIVE_ZERO_GRID, 3))
@example((NEGATIVE_ENTRY, NEGATIVE_ENTRY_GRID, 1))
@settings(deadline=None, max_examples=300)
def test_mask_and_report_match_the_full_grid_oracle(case):
    """Slab by slab in place, the mask is the full-grid mask bit for bit and
    the report the same report."""
    f, grid, slab = case
    with mock.patch.object(oracle, "_SLAB_CELLS", slab):
        assert_same_as_full_grid(f, grid)


def test_mask_matches_the_full_grid_oracle_across_slabs():
    """The module's slab size on grids of many slabs with a partial last one,
    and on a grid whose every axis-0 row holds more cells than a slab."""
    for f, grid in (
        (TEN_TERM, grid2(400)),
        (SIMPLEX_SPLIT, grid2(333)),
        (CUBE3, default_grid(3)),
        (CUBE4, default_grid(4)),
        (NEG_QUADRATIC_SPLIT, default_grid(1, resolution=100_000)),
    ):
        assert grid.resolution ** grid.dimension > oracle._SLAB_CELLS
        assert_same_as_full_grid(f, grid)
    # the smallest resolution at which one axis-0 row of a 5-D grid exceeds a slab
    res = next(r for r in range(2, 100) if r**4 > oracle._SLAB_CELLS)
    f = parse_signomial("x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + 1/2 - x1*x2*x3 - 2*x4*x5")
    grid = default_grid(5, box=[(-2.0, 2.0)] * 5, resolution=res)
    assert count_negative_components(f, grid).component_count > 0
    assert_same_as_full_grid(f, grid)


def test_term_sum_order_is_fixed():
    """Only the term order makes the middle cell negative."""
    assert negative_mask(ORDERED, ORDERED_GRID).tolist() == [False, True, True]


def test_terms_free_of_axis_0_after_the_leading_run_keep_their_order():
    """Only the term order keeps the middle column non-negative: the terms
    free of axis 0 come after a term that uses it and are not summed first."""
    mask = negative_mask(LEADING, LEADING_GRID)
    assert mask[:, 1].tolist() == [False, False, False]
    assert np.array_equal(mask, mask_oracle.negative_mask(LEADING, LEADING_GRID))


def test_each_term_is_evaluated_on_the_axes_it_uses(monkeypatch):
    """On CUBE4 at its default grid every term's exp covers the 24^|supp mu|
    cells of its sub-grid once, against 24^4 cells per term on the full grid:
    the terms free of axis 0 are summed once before the slabs, and the others
    split their sub-grid across the slabs."""
    grid = default_grid(4)
    cells = []
    real = np.exp
    monkeypatch.setattr(np, "exp", lambda x, *args, **kw: cells.append(np.size(x)) or real(x, *args, **kw))
    mask = negative_mask(CUBE4, grid)
    monkeypatch.setattr(np, "exp", real)
    assert sum(cells) == sum(24 ** sum(map(bool, row)) for row in CUBE4.frame) == 16_225
    assert np.array_equal(mask, mask_oracle.negative_mask(CUBE4, grid))


@pytest.mark.parametrize("f", [TEN_TERM, CUBE4], ids=["TEN_TERM", "CUBE4"])
def test_mask_memory_is_the_mask_and_a_few_slabs(f):
    """negative_mask's traced peak on a default grid stays within the mask's
    bytes and four slab buffers of floats: the values, the scale and the
    term buffer take at most three, and the leading run's two sums, on at
    most res^(n-1) cells each, fit in the fourth on these grids."""
    import tracemalloc

    grid = default_grid(f.dimension)
    res, n = grid.resolution, grid.dimension
    slab = min(res, max(1, oracle._SLAB_CELLS // res ** (n - 1))) * res ** (n - 1) * 8
    negative_mask(f, grid)  # numpy's first-call allocations are not the mask's
    tracemalloc.start()
    try:
        mask = negative_mask(f, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mask.nbytes + 4 * slab


def test_witnesses_are_the_first_cells_in_label_order():
    """The witness of each component is its first cell in row-major order,
    listed by label; here each component spans several rows and columns."""
    f = parse_signomial("x^2 + y^2 - 3*x*y + 1/10")
    grid = grid2(41)
    report = count_negative_components(f, grid)
    assert report.component_count >= 1
    mask = negative_mask(f, grid)
    assert report == mask_oracle.count_negative_components(f, grid)
    axis = np.linspace(-8.0, 8.0, 41)
    cells = np.argwhere(mask)
    assert report.witnesses[0] == tuple(float(axis[i]) for i in cells[0])


def test_count_goes_through_the_module_mask_once(monkeypatch):
    """count_negative_components calls negative_mask through the module
    global, once: the benchmark's oracle.negative_mask span wraps it there."""
    calls = []

    def counting(f, grid):
        calls.append(grid)
        return mask_oracle.negative_mask(f, grid)

    monkeypatch.setattr(oracle, "negative_mask", counting)
    grid = grid2(50)
    report = oracle.count_negative_components(TEN_TERM, grid)
    assert calls == [grid] and report.component_count == 3


def _no_find_objects(*args, **kwargs):
    raise AssertionError("find_objects called")


@pytest.mark.parametrize(
    "f, count",
    [(parse_signomial("x^2 + y^2 + 1"), 0), (TEN_TERM_UPPER, 1)],
    ids=["positive", "TEN_TERM_UPPER"],
)
def test_at_most_one_component_makes_no_find_objects_pass(monkeypatch, f, count):
    """With no component there is no witness, and the one component's
    witness is the mask's first negative cell: neither needs the labels'
    bounding boxes."""
    from scipy import ndimage

    monkeypatch.setattr(ndimage, "find_objects", _no_find_objects)
    grid = grid2(200)
    report = count_negative_components(f, grid)
    assert report.component_count == count
    assert report == mask_oracle.count_negative_components(f, grid)


def test_two_or_more_components_place_their_witnesses_by_find_objects(monkeypatch):
    from scipy import ndimage

    calls = []
    real = ndimage.find_objects
    monkeypatch.setattr(ndimage, "find_objects", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    grid = grid2(200)
    report = count_negative_components(TEN_TERM, grid)
    assert len(calls) == 1 and report.component_count == 3
    assert report == mask_oracle.count_negative_components(TEN_TERM, grid)


def test_benchmark_oracle_instances_match_the_full_grid_oracle():
    """The benchmark's oracle gate on the seed-1 ``lowdim-flagged`` and
    ``cube-recursion`` corpora, certified under the benchmark's configs:
    every instance whose default grid fits the cap gets the full-grid
    oracle's report, and every certified outcome allows the count it gets."""
    allowed = {CERTIFIED_EMPTY: (0,), CERTIFIED_AT_MOST_ONE: (0, 1), CERTIFIED_EXACTLY_ONE: (1,)}
    counts = []
    for workload in ("lowdim-flagged", "cube-recursion"):
        size, config = WORKLOADS[workload]
        for text in corpus.corpus(workload, 1, size):
            f = parse_signomial(text)
            grid = default_grid(f.dimension)
            if grid.resolution ** grid.dimension > grid.cell_cap:
                continue
            report = count_negative_components(f, grid)
            assert report == mask_oracle.count_negative_components(f, grid), text
            outcome = certify_connectivity(f, config).outcome
            if outcome in allowed:
                assert report.component_count in allowed[outcome], (text, outcome)
                counts.append(report.component_count)
    assert counts and set(counts) <= {0, 1}
