"""The grid oracle's mask and component count as they stood before the mask
was evaluated slab by slab in place and the witnesses were read from the
labels' bounding boxes, kept as an independent oracle for the tests (like
``lp_oracle`` and ``replay_oracle``).

``negative_mask`` evaluates every term over a full ``np.meshgrid``, one
full-grid temporary per operation; ``count_negative_components`` finds each
component's first row-major cell with ``np.unique`` over the whole label
array.  The functions are unchanged; they share with the package only the
grid and report types.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import ndimage

from descregions.oracle import ComponentReport, GridBudgetExceededError, GridSpec, default_grid
from descregions.signomial import Signomial


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
