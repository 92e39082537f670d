"""Brute-force ground truth: grid sampling of the negative region in log
coordinates and component counting over axis-adjacent negative cells.

The positive orthant maps to R^n by coordinate-wise log, which preserves
connected components, so the grid lives in a log-space box.  The count is
approximate by construction; the box, resolution and tolerance are part of
the report so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

from .signomial import DEFAULT_TOLERANCE_FACTOR, Signomial

DEFAULT_BOX = (-8.0, 8.0)
DEFAULT_CELL_CAP = 20_000_000


class GridBudgetExceededError(RuntimeError):
    """The grid would have more cells than the configured cap."""


@dataclass(frozen=True)
class GridSpec:
    box: Tuple[Tuple[float, float], ...]  # per-axis (lo, hi) in log coordinates
    resolution: int  # samples per axis
    tolerance_factor: float = DEFAULT_TOLERANCE_FACTOR
    cell_cap: int = DEFAULT_CELL_CAP

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError("box intervals must satisfy lo < hi")

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
    return [np.linspace(lo, hi, grid.resolution) for lo, hi in grid.box]


def negative_mask(f: Signomial, grid: GridSpec) -> np.ndarray:
    """Boolean grid of cells where f evaluates below -tau (tau pointwise
    relative to the term magnitudes).  Cells where the evaluation overflows to
    an indeterminate value are conservatively not negative."""
    if grid.dimension != f.dimension:
        raise ValueError("grid dimension does not match the signomial")
    if grid.resolution ** grid.dimension > grid.cell_cap:
        raise GridBudgetExceededError(
            f"{grid.resolution}^{grid.dimension} cells exceed the cap {grid.cell_cap}"
        )
    mesh = np.meshgrid(*_axes(grid), indexing="ij")
    values = np.zeros(mesh[0].shape)
    scale = np.zeros(mesh[0].shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in f.terms:
            e = np.zeros(mesh[0].shape)
            for i, m in enumerate(t.exponent):
                if m != 0:
                    e = e + float(m) * mesh[i]
            term = float(t.coefficient) * np.exp(e)
            values = values + term
            scale = scale + np.abs(term)
        return values < -grid.tolerance_factor * scale


def count_negative_components(f: Signomial, grid: Optional[GridSpec] = None) -> ComponentReport:
    """Count connected components of the sampled negative region, joining
    negative cells that are axis-adjacent (no diagonals)."""
    grid = grid or default_grid(f.dimension)
    mask = negative_mask(f, grid)
    structure = ndimage.generate_binary_structure(grid.dimension, 1)
    labels, count = ndimage.label(mask, structure=structure)
    axes = _axes(grid)
    flat = labels.ravel()
    uniq, first = np.unique(flat, return_index=True)
    witnesses = []
    for label, index in sorted(zip(uniq.tolist(), first.tolist())):
        if label == 0:
            continue
        idx = np.unravel_index(index, mask.shape)
        witnesses.append(tuple(float(axes[i][idx[i]]) for i in range(grid.dimension)))
    return ComponentReport(int(count), int(mask.sum()), tuple(witnesses), grid)


def _first_point(mask: np.ndarray, grid: GridSpec) -> Optional[Tuple[float, ...]]:
    flat = mask.ravel()
    hits = np.flatnonzero(flat)
    if hits.size == 0:
        return None
    idx = np.unravel_index(int(hits[0]), mask.shape)
    axes = _axes(grid)
    return tuple(float(axes[i][idx[i]]) for i in range(grid.dimension))


def intersection_witness(
    f: Signomial, g: Signomial, grid: Optional[GridSpec] = None
) -> Optional[Tuple[float, ...]]:
    """Some grid point where both signomials are negative, or None."""
    if f.dimension != g.dimension:
        raise ValueError("signomials must share a dimension")
    grid = grid or default_grid(f.dimension)
    return _first_point(negative_mask(f, grid) & negative_mask(g, grid), grid)
