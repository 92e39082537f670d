"""Exact vectors and the small amount of linear algebra the geometry needs.

The geometry runs in one integer lattice frame: ``lattice`` scales a point
set once by the lcm L of its denominators, and the kernels work on Python
ints from there on.  The linear algebra is fraction-free (Bareiss 1968):
one echelon per hull and one inverse per simplex.  The incremental reduced
row echelon form here gives affine ranks and ``polytope``'s affine-hull
frame with its starting simplex.  ``check.simplex_halfspaces`` reads all of
a simplex's facet normals off one inverse, whose rows it scales lazily, so
a sparse simplex costs about its nonzeros.  No other linear system is
solved.  Ranks and primitive normals do not change under the scaling, and
offsets are multiplied by L.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, List, Sequence, Tuple

Vector = Tuple[Fraction, ...]
IntVector = Tuple[int, ...]


def vector(coords: Iterable) -> Vector:
    return tuple([c if type(c) is Fraction else Fraction(c) for c in coords])


def lattice(points: Sequence[Sequence]) -> Tuple[int, Tuple[IntVector, ...]]:
    """The lcm L of the coordinates' denominators, and the points times L as
    ints (ints and Fractions alike): with L = 1, the numerators.  Points
    whose entries are all ints come back as they are, with L = 1."""
    if set(map(type, chain.from_iterable(points))) <= {int}:
        return 1, tuple(map(tuple, points))
    scale = lcm(*{a.denominator for p in points for a in p})
    return scale, tuple([tuple([a.numerator * (scale // a.denominator) for a in p]) for p in points])


def dot(u: Sequence, v: Sequence):
    assert len(u) == len(v)
    return sum(map(mul, u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def is_zero(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def primitive_int(u: Sequence[int]) -> IntVector:
    """An integer vector divided by the gcd of its entries (direction kept)."""
    g = gcd(*u)
    return tuple([a // g for a in u]) if g > 1 else tuple(u)


def sign_canonical(u: Vector) -> Vector:
    """Flip sign so the first nonzero entry is positive."""
    for a in u:
        if a > 0:
            return u
        if a < 0:
            return vneg(u)
    return u


def residual(rows: Iterable[Tuple[int, IntVector]], v: Sequence[int]) -> List[int]:
    """A nonzero multiple of v minus its part in the span of the echelon
    rows (pivot column, row); zero exactly when v lies in that span."""
    r = list(v)
    for col, row in rows:
        c = r[col]
        if c:
            q = row[col]
            r = [q * a - c * b for a, b in zip(r, row)]
    return r


class _Echelon:
    """Incremental reduced row echelon form over the integers.  Row r with
    pivot column c stands for the rational row r / r[c]: r is 0 in every
    other row's pivot column, and its entries are coprime."""

    def __init__(self):
        self.rows: list[tuple[int, IntVector]] = []  # (pivot column, row)

    @classmethod
    def affine(cls, points: Sequence[IntVector]) -> "_Echelon":
        """The rows spanning the differences to the first point; ``picked``
        holds the indices of the points that raised the rank, and 0.  No
        point is inserted once the rank is the points' width n."""
        ech, n = cls(), len(points[0]) if points else 0
        ech.picked = [0] + [i for i, p in enumerate(points) if i and len(ech.rows) < n and ech.add(vsub(p, points[0]))]
        return ech

    def add(self, v: Sequence[int]) -> bool:
        """Insert v; returns True if it increased the rank.  The new pivot
        column is cleared from the older rows, so the rows stay reduced."""
        r = residual(self.rows, v)
        col = next((c for c, a in enumerate(r) if a), None)
        if col is None:
            return False
        new = primitive_int(r)
        q = new[col]
        for k, (c, row) in enumerate(self.rows):
            b = row[col]
            if b:
                self.rows[k] = (c, primitive_int([q * a - b * x for a, x in zip(row, new)]))
        self.rows.append((col, new))
        self.rows.sort(key=lambda t: t[0])
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def affine_rank(points: Sequence[IntVector]) -> int:
    """Dimension of the affine span of int points (-1 for the empty set)."""
    return _Echelon.affine(points).rank if points else -1

