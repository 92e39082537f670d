"""Deterministic SVG rendering of two-variable negative regions.

The region is drawn as shaded grid cells in log coordinates.  When a
hyperplane is supplied, a second panel shows the signed support in exponent
space with the hyperplane overlaid.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .oracle import GridSpec, default_grid, negative_mask
from .signomial import Signomial

PLOT_SIZE = 480.0
MARGIN = 48.0


class PlotUnsupportedError(ValueError):
    """Plotting is only implemented for two variables."""


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _region_rects(f: Signomial, grid: GridSpec) -> List[str]:
    mask = negative_mask(f, grid)
    (x_lo, x_hi), (y_lo, y_hi) = grid.box
    res = grid.resolution
    cell_w = PLOT_SIZE / res
    cell_h = PLOT_SIZE / res
    rects = []
    for ix in range(res):
        row = mask[ix]
        iy = 0
        while iy < res:
            if not row[iy]:
                iy += 1
                continue
            start = iy
            while iy < res and row[iy]:
                iy += 1
            # merge the vertical run into one rectangle (y axis points up)
            x0 = MARGIN + ix * cell_w
            y0 = MARGIN + PLOT_SIZE - iy * cell_h
            rects.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(cell_w)}" '
                f'height="{_fmt((iy - start) * cell_h)}" class="neg"/>'
            )
    return rects


def _axis_lines(box) -> List[str]:
    (x_lo, x_hi), (y_lo, y_hi) = box
    out = []
    x0, y0 = MARGIN, MARGIN + PLOT_SIZE
    out.append(f'<rect x="{_fmt(MARGIN)}" y="{_fmt(MARGIN)}" width="{_fmt(PLOT_SIZE)}" height="{_fmt(PLOT_SIZE)}" class="frame"/>')
    for k in range(5):
        t = k / 4
        xv = x_lo + t * (x_hi - x_lo)
        yv = y_lo + t * (y_hi - y_lo)
        px = MARGIN + t * PLOT_SIZE
        py = MARGIN + PLOT_SIZE - t * PLOT_SIZE
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" y2="{_fmt(y0 + 6)}" class="tick"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_fmt(y0 + 20)}" class="lbl" text-anchor="middle">{xv:g}</text>')
        out.append(f'<line x1="{_fmt(x0 - 6)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" y2="{_fmt(py)}" class="tick"/>')
        out.append(f'<text x="{_fmt(x0 - 10)}" y="{_fmt(py + 4)}" class="lbl" text-anchor="end">{yv:g}</text>')
    out.append(f'<text x="{_fmt(MARGIN + PLOT_SIZE / 2)}" y="{_fmt(y0 + 38)}" class="lbl" text-anchor="middle">log x1</text>')
    out.append(f'<text x="{_fmt(14)}" y="{_fmt(MARGIN + PLOT_SIZE / 2)}" class="lbl" text-anchor="middle" transform="rotate(-90 14 {_fmt(MARGIN + PLOT_SIZE / 2)})">log x2</text>')
    return out


def _support_panel(f: Signomial, hyperplane: Tuple, offset_x: float) -> List[str]:
    v, a = hyperplane
    L = f.scale
    exps = [tuple(e / L for e in row) for row in f.frame]  # each float(Fraction(e, L)), correctly rounded
    xs = [e[0] for e in exps]
    ys = [e[1] for e in exps]
    lo = min(min(xs), min(ys)) - 1.0
    hi = max(max(xs), max(ys)) + 1.0

    def sx(x):
        return offset_x + (x - lo) / (hi - lo) * PLOT_SIZE

    def sy(y):
        return MARGIN + PLOT_SIZE - (y - lo) / (hi - lo) * PLOT_SIZE

    out = [
        f'<rect x="{_fmt(offset_x)}" y="{_fmt(MARGIN)}" width="{_fmt(PLOT_SIZE)}" height="{_fmt(PLOT_SIZE)}" class="frame"/>'
    ]
    v0, v1 = float(v[0]), float(v[1])
    aa = float(a)
    # clip v . mu = a to the panel box
    pts = []
    for x in (lo, hi):
        if v1 != 0:
            y = (aa - v0 * x) / v1
            if lo <= y <= hi:
                pts.append((x, y))
    for y in (lo, hi):
        if v0 != 0:
            x = (aa - v1 * y) / v0
            if lo <= x <= hi:
                pts.append((x, y))
    pts = sorted(set(pts))
    if len(pts) >= 2:
        (xa, ya), (xb, yb) = pts[0], pts[-1]
        out.append(
            f'<line x1="{_fmt(sx(xa))}" y1="{_fmt(sy(ya))}" x2="{_fmt(sx(xb))}" y2="{_fmt(sy(yb))}" class="hplane"/>'
        )
    neg = set(f.negative_indices)
    for i, (x, y) in enumerate(exps):
        cls = "negpt" if i in neg else "pospt"
        out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="5" class="{cls}"/>')
    return out


def render_region_svg(
    f: Signomial,
    grid: Optional[GridSpec] = None,
    hyperplane: Optional[Tuple[Sequence[Fraction], Fraction]] = None,
) -> str:
    """SVG document with the shaded negative region of a 2-variable signomial."""
    if f.dimension != 2:
        raise PlotUnsupportedError("plotting needs exactly two variables")
    grid = grid or default_grid(2)
    panels = 2 if hyperplane is not None else 1
    width = MARGIN * 2 + PLOT_SIZE * panels + (24 if panels == 2 else 0)
    height = MARGIN * 2 + PLOT_SIZE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        "<style>"
        ".neg{fill:#4878b0;stroke:none}"
        ".frame{fill:none;stroke:#222;stroke-width:1}"
        ".tick{stroke:#222;stroke-width:1}"
        ".lbl{font-family:sans-serif;font-size:12px;fill:#222}"
        ".hplane{stroke:#111;stroke-width:1.5}"
        ".pospt{fill:none;stroke:#c0392b;stroke-width:2}"
        ".negpt{fill:#2a5fa5;stroke:none}"
        "</style>",
    ]
    parts.extend(_region_rects(f, grid))
    parts.extend(_axis_lines(grid.box))
    if hyperplane is not None:
        parts.extend(_support_panel(f, hyperplane, MARGIN + PLOT_SIZE + 24))
    parts.append("</svg>")
    return "\n".join(parts)
