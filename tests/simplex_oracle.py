"""The simplex halfspaces by one echelon elimination per facet, used only as
an independent oracle for ``check.simplex_halfspaces`` in the tests.

For each vertex j the n other vertices are put through the package's
incremental echelon form, and the facet normal opposite j is read off its
rows (``normal`` below, the only reader of a codimension-one echelon form);
a rank check on all n + 1 vertices comes first.  This is n + 2 eliminations
per simplex, where the package runs one fraction-free inverse.
"""

from fractions import Fraction
from math import lcm

from descregions.check import DegenerateSimplexError
from descregions.linalg import _Echelon, dot, lattice, primitive_int, vneg


def normal(ech, width):
    """Primitive integer normal of the echelon form's row space when its
    codimension is one (else None): 1 in the free column over the lcm of the
    pivots, and each pivot column cancelling its row there."""
    if ech.rank != width - 1:
        return None
    pivots = {c for c, _ in ech.rows}
    free = next(c for c in range(width) if c not in pivots)
    m = lcm(*(row[c] for c, row in ech.rows))
    out = [0] * width
    out[free] = m
    for c, row in ech.rows:
        out[c] = -row[free] * (m // row[c])
    return primitive_int(out)


def hyperplane_normal(points):
    """Primitive integer normal of the unique hyperplane through the rational
    points, or None when they do not span a space of codimension one."""
    if not points:
        return None
    return normal(_Echelon.affine(lattice(points)[1]), len(points[0]))


def simplex_halfspaces(vertices):
    """Outer halfspaces (v_j, a_j), the j-th opposite vertex j, as
    ``check.simplex_halfspaces`` gives them."""
    scale, verts = lattice(vertices)
    n = len(verts[0])
    if len(verts) != n + 1 or _Echelon.affine(verts).rank != n:
        raise DegenerateSimplexError("vertices do not form an n-simplex")
    out = []
    for j in range(n + 1):
        others = verts[:j] + verts[j + 1:]
        w = normal(_Echelon.affine(others), n)
        offset = dot(w, others[0])
        if dot(w, verts[j]) > offset:
            w, offset = vneg(w), -offset
        out.append((w, offset if scale == 1 else Fraction(offset, scale)))
    return tuple(out)
