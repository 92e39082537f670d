"""Brute-force ground truth: grid sampling of the negative region in log
coordinates and component counting over axis-adjacent negative cells.

The positive orthant maps to R^n by coordinate-wise log, which preserves
connected components, so the grid lives in a log-space box.  The count is
approximate by construction; the box, resolution and tolerance are part of
the report so results are reproducible.  The mask is evaluated slab by slab
of axis-0 rows, in place, in one fixed order of floating-point operations,
so cells that round or overflow come out the same on every run.  It reads
the signomial's lattice frame: each term is evaluated only on the axes where
its exponent entry is nonzero and broadcast into the slab, and the leading
terms free of axis 0 are summed once for all slabs; both keep every cell's
operands and their order, so the mask is the full-grid mask bit for bit.
Each witness is the first cell of its component in row-major order, and the
witnesses are listed in label order.  Only the count needs the labelling:
the one component's witness is the mask's first negative cell, and the
labels' bounding boxes are found only for two or more components.

numpy and scipy are imported inside the functions that use them, not at the
top of the module, so that importing the package (and the exact ``certify``,
``--verify-trace`` and ``analyze`` paths) never loads them; only the first
grid of a process pays their import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from .signomial import DEFAULT_TOLERANCE_FACTOR, Signomial

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BOX = (-8.0, 8.0)
DEFAULT_CELL_CAP = 20_000_000
# cells per slab of axis-0 rows that negative_mask evaluates at a time, so
# its three float buffers stay in cache
_SLAB_CELLS = 1 << 15


class GridBudgetExceededError(RuntimeError):
    """The grid would have more cells than the configured cap."""


def _finite(x) -> bool:
    """``math.isfinite``, and False for an int or Fraction beyond the float
    range, which it cannot convert."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class GridSpec:
    box: Tuple[Tuple[float, float], ...]  # per-axis (lo, hi) in log coordinates
    resolution: int  # samples per axis
    tolerance_factor: float = DEFAULT_TOLERANCE_FACTOR
    cell_cap: int = DEFAULT_CELL_CAP

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")
        if not 0 <= self.tolerance_factor < math.inf:  # also rejects NaN
            raise ValueError("tolerance_factor must be >= 0 and finite")
        for lo, hi in self.box:
            if not (_finite(lo) and _finite(hi)):
                raise ValueError("box ends must be finite")
            if not lo < hi:
                raise ValueError("box intervals must satisfy lo < hi")
            if not _finite(hi - lo):
                raise ValueError("box width hi - lo overflows")

    @property
    def dimension(self) -> int:
        return len(self.box)


def default_resolution(dimension: int) -> int:
    return {1: 100_000, 2: 400, 3: 60}.get(dimension, 24)


def default_grid(
    dimension: int,
    box: Optional[Sequence[Tuple[float, float]]] = None,
    resolution: Optional[int] = None,
    tolerance_factor: float = DEFAULT_TOLERANCE_FACTOR,
) -> GridSpec:
    if box is None:
        box = [DEFAULT_BOX] * dimension
    if resolution is None:
        resolution = default_resolution(dimension)
    return GridSpec(tuple((float(l), float(h)) for l, h in box), resolution, tolerance_factor)


@dataclass(frozen=True)
class ComponentReport:
    component_count: int
    negative_cell_count: int
    witnesses: Tuple[Tuple[float, ...], ...]  # one grid point (log coords) per component
    grid: GridSpec


def _axes(grid: GridSpec):
    import numpy as np

    return [np.linspace(lo, hi, grid.resolution) for lo, hi in grid.box]


def negative_mask(f: Signomial, grid: GridSpec) -> np.ndarray:
    """Boolean grid of cells where f evaluates below -tau (tau pointwise
    relative to the term magnitudes).  Cells where the evaluation overflows to
    an indeterminate value are conservatively not negative.

    Each term c * exp(m . y) is evaluated only on the sub-grid of the axes
    where its exponent entry is nonzero (length 1 along the others) and
    broadcast into the slab.  The leading run of terms with exponent entry 0
    on axis 0 is summed once, on the union of their axes, and each slab
    starts from that sum; as the frame is sorted, the run holds every term
    free of axis 0, or none when a term has a negative axis-0 entry.  Every
    cell still sees the same operands in the same order: per term, the nonzero
    exponent entries ``a / L`` (the correctly rounded float of the rational
    entry) times the cell's coordinates, summed in variable order from the
    first (0.0 + x is x but for the sign of a zero, which exp maps to 1 either
    way), then exp, then the coefficient; the terms summed from 0.0 in term
    order, and the scale summing their magnitudes alike: a term whose
    coefficient is below 0 is subtracted from it, which in IEEE arithmetic is
    adding its magnitude, infinities, nans and zeros included.  Rounded and
    overflowing cells therefore come out the same on every run, whatever the
    slab the cell falls in."""
    import numpy as np

    if grid.dimension != f.dimension:
        raise ValueError("grid dimension does not match the signomial")
    n, res = grid.dimension, grid.resolution
    if res ** n > grid.cell_cap:
        raise GridBudgetExceededError(f"{res}^{n} cells exceed the cap {grid.cell_cap}")
    L = f.scale
    # axis i as a column that broadcasts along dimension i
    cols = [axis.reshape((res,) + (1,) * (n - 1 - i)) for i, axis in enumerate(_axes(grid))]
    rows = min(res, max(1, _SLAB_CELLS // res ** (n - 1)))  # axis-0 rows per slab

    def shape(row, height):
        """A term's sub-grid in a slab of ``height`` axis-0 rows."""
        return tuple((height if i == 0 else res) if a else 1 for i, a in enumerate(row))

    # the term buffer holds the largest sub-grid of any term in a slab
    flat = np.empty(max((math.prod(shape(row, rows)) for row in f.frame), default=1))
    values, scale = (np.empty((rows,) + (res,) * (n - 1)) for _ in range(2))
    mask = np.empty((res,) * n, dtype=bool)

    def add(v, s, term, a, b):
        """Add term to the values v and its magnitude to the scale s of the
        axis-0 rows [a, b)."""
        c, row, entries = term
        sub = shape(row, b - a)
        t = flat[: math.prod(sub)].reshape(sub)
        # the sum starts from the first axis term, a constant term's from 0.0
        first, *rest = [e[a:b] if i == 0 else e for i, e in entries] or [0.0]
        np.copyto(t, first)
        for e in rest:
            t += e
        np.exp(t, out=t)
        t *= c
        v += t
        if c < 0:
            s -= t
        else:
            s += t

    with np.errstate(over="ignore", invalid="ignore"):
        # each term's coefficient, frame row and nonzero entries times their axis
        terms = [
            (float(c), row, [(i, (a / L) * cols[i]) for i, a in enumerate(row) if a])
            for c, row in zip(f.coefficients, f.frame)
        ]
        lead = next((k for k, row in enumerate(f.frame) if row[0]), len(f.frame))
        union = tuple(int(any(row[i] for row in f.frame[:lead])) for i in range(n))
        base, base_scale = np.zeros(shape(union, 1)), np.zeros(shape(union, 1))
        for term in terms[:lead]:
            add(base, base_scale, term, 0, 1)
        for a in range(0, res, rows):
            b = min(a + rows, res)
            v, s = values[: b - a], scale[: b - a]
            np.copyto(v, base)
            np.copyto(s, base_scale)
            for term in terms[lead:]:
                add(v, s, term, a, b)
            s *= -grid.tolerance_factor
            np.less(v, s, out=mask[a:b])
    return mask


def count_negative_components(f: Signomial, grid: Optional[GridSpec] = None) -> ComponentReport:
    """Count connected components of the sampled negative region, joining
    negative cells that are axis-adjacent (no diagonals).  The witnesses are
    the first cell of each component in row-major order, listed in label
    order: for one component the mask's first negative cell, and for two or
    more the first cell in the first axis-0 row of each label's bounding box
    (``ndimage.find_objects``, one more pass over the labels)."""
    import numpy as np
    from scipy import ndimage

    grid = grid or default_grid(f.dimension)
    mask = negative_mask(f, grid)
    structure = ndimage.generate_binary_structure(grid.dimension, 1)
    labels, count = ndimage.label(mask, structure=structure)
    axes = _axes(grid)
    cells = []
    if count == 1:
        # the only component's first row-major cell is the mask's first negative cell
        cells.append(np.unravel_index(np.argmax(mask), mask.shape))
    elif count > 1:
        for label, box in enumerate(ndimage.find_objects(labels), start=1):
            # the component's first row-major cell lies in the first axis-0 row of its box
            first = box[0].start
            row = labels[(first,) + box[1:]] == label
            rest = np.unravel_index(np.argmax(row), row.shape)
            cells.append((first,) + tuple(s.start + j for s, j in zip(box[1:], rest)))
    witnesses = [tuple(float(axes[i][idx[i]]) for i in range(grid.dimension)) for idx in cells]
    return ComponentReport(int(count), int(np.count_nonzero(mask)), tuple(witnesses), grid)
