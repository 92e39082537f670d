"""Exact rational vectors and the small amount of linear algebra the geometry needs."""

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
    """Incremental row echelon form over the rationals, for rank and span tests."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[tuple[int, Vector]] = []  # (pivot column, row with pivot 1)

    def residual(self, v: Sequence[Fraction]) -> Vector:
        r = list(v)
        for col, row in self.rows:
            if r[col] != 0:
                c = r[col]
                r = [a - c * b for a, b in zip(r, row)]
        return tuple(r)

    def add(self, v: Sequence[Fraction]) -> bool:
        """Insert v; returns True if it increased the rank."""
        r = self.residual(v)
        for col, a in enumerate(r):
            if a != 0:
                self.rows.append((col, tuple(x / a for x in r)))
                self.rows.sort(key=lambda t: t[0])
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    if not vectors:
        return 0
    ech = _Echelon(len(vectors[0]))
    for v in vectors:
        ech.add(v)
    return ech.rank


def affine_rank(points: Sequence[Vector]) -> int:
    """Dimension of the affine span of the points (-1 for the empty set)."""
    if not points:
        return -1
    base = points[0]
    return rank([vsub(p, base) for p in points[1:]])


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution of rows * x = rhs (free variables set to 0), or None."""
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    aug = [list(r) + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    prow = 0
    for col in range(n):
        sel = None
        for i in range(prow, m):
            if aug[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        aug[prow], aug[sel] = aug[sel], aug[prow]
        pv = aug[prow][col]
        aug[prow] = [a / pv for a in aug[prow]]
        for i in range(m):
            if i != prow and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [a - c * b for a, b in zip(aug[i], aug[prow])]
        pivots.append((prow, col))
        prow += 1
        if prow == m:
            break
    for i in range(prow, m):
        if aug[i][n] != 0:
            return None
    x = [ZERO] * n
    for r, c in pivots:
        x[c] = aug[r][n]
    return tuple(x)


def solve_combination(columns: Sequence[Vector], target: Vector) -> Optional[Vector]:
    """Coefficients c with sum(c_i * columns[i]) = target, or None."""
    if not columns:
        return () if is_zero(target) else None
    n = len(columns[0])
    rows = [[col[i] for col in columns] for i in range(n)]
    return solve(rows, target)


def hyperplane_normal(points: Sequence[Vector]) -> Optional[Vector]:
    """Normal of the unique hyperplane through the points, or None when they do not
    span a space of codimension one."""
    if not points:
        return None
    d = len(points[0])
    base = points[0]
    ech = _Echelon(d)
    for p in points[1:]:
        ech.add(vsub(p, base))
    if ech.rank != d - 1:
        return None
    # one nonzero vector orthogonal to all echelon rows
    pivot_cols = [c for c, _ in ech.rows]
    free_cols = [c for c in range(d) if c not in pivot_cols]
    if len(free_cols) != 1:
        return None
    fc = free_cols[0]
    # set the free coordinate to 1 and solve for the pivot coordinates
    sub_rows = [[row[c] for c in pivot_cols] for _, row in ech.rows]
    sub_rhs = [-row[fc] for _, row in ech.rows]
    sol = solve(sub_rows, sub_rhs)
    if sol is None:
        return None
    normal = [ZERO] * d
    normal[fc] = ONE
    for c, val in zip(pivot_cols, sol):
        normal[c] = val
    return primitive(tuple(normal))
