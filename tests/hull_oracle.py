"""Exhaustive facet enumeration, used only as an independent oracle for the
incremental hull in the tests.

Works in affine-hull coordinates: every facet hyperplane is spanned by dim
affinely independent input points, so trying all dim-subsets and keeping the
one-sided hyperplanes enumerates every facet.  Hull coordinates and normals
come from the plain ``Fraction`` Gauss-Jordan elimination below, which
shares no code with the package's integer kernels.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def rref(vectors):
    """Reduced row echelon form of the span: (pivot column, row with 1 in
    its pivot column and 0 in the other rows' pivot columns), sorted."""
    rows = []
    for v in vectors:
        r = [Fraction(a) for a in v]
        for col, row in rows:
            if r[col] != 0:
                r = [a - r[col] * b for a, b in zip(r, row)]
        col = next((c for c, a in enumerate(r) if a != 0), None)
        if col is None:
            continue
        r = [a / r[col] for a in r]
        rows = [(c, [a - row[col] * b for a, b in zip(row, r)] if row[col] != 0 else row) for c, row in rows]
        rows.append((col, r))
        rows.sort(key=lambda t: t[0])
    return rows


def affine_rref(points):
    return rref([[a - b for a, b in zip(p, points[0])] for p in points[1:]])


def normal_of(points):
    """Primitive normal of the hyperplane through the points, or None when
    their differences do not have rank width - 1; the free column is
    positive."""
    width = len(points[0])
    rows = affine_rref(points)
    if len(rows) != width - 1:
        return None
    free = next(c for c in range(width) if c not in {col for col, _ in rows})
    normal = [Fraction(0)] * width
    normal[free] = Fraction(1)
    for col, row in rows:
        normal[col] = -row[free]
    return primitive(normal)


def primitive(u):
    """Scale by a positive rational so entries are coprime integers."""
    m = lcm(*(Fraction(a).denominator for a in u))
    ints = [int(a * m) for a in u]
    g = gcd(*ints)
    return tuple(Fraction(k // g) for k in ints) if g else tuple(Fraction(a) for a in u)


def _key(normal, offset):
    prim = primitive(normal)
    for a, b in zip(prim, normal):
        if b != 0:
            return prim, offset * (a / b)
    raise AssertionError("zero normal")


def _frame(points):
    """Base point, basis rows and pivot columns of the affine hull."""
    rows = affine_rref(points)
    return points[0], [row for _, row in rows], [col for col, _ in rows]


def brute_force_facets(points):
    """Set of (normal, offset) outer facet halfspaces in hull coordinates."""
    base, basis, pivots = _frame(points)
    d = len(basis)
    if d == 0:
        return set()
    hp = []
    for p in points:
        c = [Fraction(p[k] - base[k]) for k in pivots]
        assert all(b + dot(c, [row[k] for row in basis]) == p[k] for k, b in enumerate(base))
        hp.append(c)
    if d == 1:
        vals = [c[0] for c in hp]
        return {
            _key((Fraction(1),), max(vals)),
            _key((Fraction(-1),), -min(vals)),
        }
    out = set()
    for comb in combinations(range(len(hp)), d):
        pts = [hp[i] for i in comb]
        normal = normal_of(pts)
        if normal is None:
            continue
        offset = dot(normal, pts[0])
        values = [dot(normal, q) for q in hp]
        if all(v <= offset for v in values):
            out.add(_key(normal, offset))
        elif all(v >= offset for v in values):
            out.add(_key(tuple(-a for a in normal), -offset))
    return out


def polytope_facets_in_hull_coords(P):
    """The package's facet list mapped into this module's hull coordinates
    for comparison; a facet's offset is on the lattice frame, the points
    times the lcm of their denominators."""
    base, basis, _ = _frame(P.points)
    scale = lcm(*(a.denominator for p in P.points for a in p))
    out = set()
    for f in P.facets:
        w, a = f.normal, Fraction(f.offset, scale)
        g = tuple(dot(w, b) for b in basis)
        c = a - dot(w, base)
        out.add(_key(g, c))
    return out
