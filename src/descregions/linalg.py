"""Exact rational vectors and the small amount of linear algebra the geometry needs.

Everything rests on one incremental reduced row echelon form: ranks, affine
ranks and hyperplane normals are read off its rows, and ``polytope`` uses the
same rows as the affine-hull frame, so no linear system is ever solved.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Tuple

Vector = Tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vector(coords: Iterable) -> Vector:
    return tuple(Fraction(c) for c in coords)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    assert len(u) == len(v)
    return sum((a * b for a, b in zip(u, v)), ZERO)


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def is_zero(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def primitive(u: Vector) -> Vector:
    """Scale by a positive rational so entries are coprime integers (direction kept)."""
    if is_zero(u):
        return u
    denom_lcm = 1
    for a in u:
        denom_lcm = denom_lcm * a.denominator // gcd(denom_lcm, a.denominator)
    ints = [int(a * denom_lcm) for a in u]
    g = 0
    for k in ints:
        g = gcd(g, k)
    return tuple(Fraction(k // g) for k in ints)


def sign_canonical(u: Vector) -> Vector:
    """Flip sign so the first nonzero entry is positive."""
    for a in u:
        if a > 0:
            return u
        if a < 0:
            return vneg(u)
    return u


class _Echelon:
    """Incremental reduced row echelon form over the rationals, for rank and
    span tests: each row has a 1 in its pivot column and a 0 in every other
    row's pivot column."""

    def __init__(self):
        self.rows: list[tuple[int, Vector]] = []  # (pivot column, row with pivot 1)

    def residual(self, v: Sequence[Fraction]) -> Vector:
        r = list(v)
        for col, row in self.rows:
            if r[col] != 0:
                c = r[col]
                r = [a - c * b for a, b in zip(r, row)]
        return tuple(r)

    def add(self, v: Sequence[Fraction]) -> bool:
        """Insert v; returns True if it increased the rank.  The new pivot
        column is cleared from the older rows, so the rows stay reduced."""
        r = self.residual(v)
        col = next((c for c, a in enumerate(r) if a != 0), None)
        if col is None:
            return False
        new = tuple(x / r[col] for x in r)
        for k, (c, row) in enumerate(self.rows):
            if row[col] != 0:
                self.rows[k] = (c, tuple(a - row[col] * b for a, b in zip(row, new)))
        self.rows.append((col, new))
        self.rows.sort(key=lambda t: t[0])
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    ech = _Echelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


def affine_rank(points: Sequence[Vector]) -> int:
    """Dimension of the affine span of the points (-1 for the empty set)."""
    if not points:
        return -1
    base = points[0]
    return rank([vsub(p, base) for p in points[1:]])


def hyperplane_normal(points: Sequence[Vector]) -> Optional[Vector]:
    """Normal of the unique hyperplane through the points, or None when they do not
    span a space of codimension one."""
    if not points:
        return None
    d = len(points[0])
    base = points[0]
    ech = _Echelon()
    for p in points[1:]:
        ech.add(vsub(p, base))
    if ech.rank != d - 1:
        return None
    # the free coordinate is 1 and each pivot coordinate cancels its row there
    pivot_cols = {c for c, _ in ech.rows}
    free = next(c for c in range(d) if c not in pivot_cols)
    normal = [ZERO] * d
    normal[free] = ONE
    for c, row in ech.rows:
        normal[c] = -row[free]
    return primitive(tuple(normal))
