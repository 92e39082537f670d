"""Exact convex-hull geometry of finite rational point sets.

Hulls are built by beneath-beyond insertion inside affine-hull coordinates, so
lower-dimensional point sets (restrictions of a support to a face keep the
ambient dimension) are handled without perturbation.  Each new facet is the
positive combination of the two facets sharing its ridge that vanishes at the
new point; ridges are read from the vertex-facet incidences, which insertion
keeps up to date.  Facet normals are lifted back to the ambient space and
normalized to coprime integer vectors; for a flat hull the lift is one
deterministic representative of the many valid supporting normals.  Vertices,
smallest faces and exposing normals are read off the incidences, with no
linear programming.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from .linalg import (
    Vector,
    _Echelon,
    affine_rank,
    dot,
    hyperplane_normal,
    is_zero,
    primitive,
    sign_canonical,
    solve,
    solve_combination,
    vector,
    vneg,
    vsub,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class FacetBudgetExceededError(RuntimeError):
    """Raised when hull construction would exceed the configured facet budget."""


@dataclass(frozen=True)
class AffineHull:
    base: Vector
    basis: Tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, point: Vector) -> Vector:
        """Exact coordinates of a point of the hull in the base/basis frame."""
        if self.dim == 0:
            if point != self.base:
                raise ValueError("point is not in the affine hull")
            return ()
        sol = solve_combination(list(self.basis), vsub(point, self.base))
        if sol is None:
            raise ValueError("point is not in the affine hull")
        return sol


@dataclass(frozen=True)
class Halfspace:
    """Outer form v . mu <= a."""

    normal: Vector
    offset: Fraction

    def __post_init__(self):
        if is_zero(self.normal):
            raise ValueError("halfspace normal must be nonzero")


@dataclass(frozen=True)
class Facet:
    halfspace: Halfspace
    incident: FrozenSet[int]


@dataclass(frozen=True)
class Polytope:
    points: Tuple[Vector, ...]
    hull: AffineHull
    vertices: FrozenSet[int]
    facets: Tuple[Facet, ...]

    @property
    def dim(self) -> int:
        return self.hull.dim


def affine_hull(points: Sequence[Vector]) -> AffineHull:
    """Exact base point plus independent direction basis of the affine span.

    Basis directions are scaled to primitive integer vectors.
    """
    if not points:
        raise ValueError("points must be nonempty")
    base = points[0]
    ech = _Echelon(len(base))
    basis: List[Vector] = []
    for p in points[1:]:
        d = vsub(p, base)
        if ech.add(d):
            basis.append(primitive(d))
    return AffineHull(base, tuple(basis))


def _independent_point_indices(points: Sequence[Vector]) -> List[int]:
    """Indices of an affinely independent subset spanning the affine hull,
    scanning in canonical order (first point always included)."""
    ech = _Echelon(len(points[0]))
    picked = [0]
    for i in range(1, len(points)):
        if ech.add(vsub(points[i], points[0])):
            picked.append(i)
    return picked


class DegenerateSimplexError(ValueError):
    """Simplex vertices are affinely dependent."""


def simplex_halfspaces(vertices: Sequence[Vector]) -> Tuple[Tuple[Vector, Fraction], ...]:
    """Outer halfspaces (v_j, a_j) of the simplex, the j-th supporting the
    facet opposite vertex j, with primitive integer normals.  Raises
    DegenerateSimplexError when the vertices are affinely dependent."""
    verts = [vector(p) for p in vertices]
    n = len(verts[0])
    if len(verts) != n + 1 or affine_rank(verts) != n:
        raise DegenerateSimplexError("vertices do not form an n-simplex")
    out = []
    for j in range(n + 1):
        others = [verts[i] for i in range(n + 1) if i != j]
        normal = hyperplane_normal(others)
        assert normal is not None
        offset = dot(normal, others[0])
        if dot(normal, verts[j]) > offset:
            normal, offset = vneg(normal), -offset
        out.append((normal, offset))
    return tuple(out)


def _facet_key(normal: Vector, offset: Fraction) -> Tuple[Vector, Fraction]:
    """The halfspace scaled by the positive factor that makes its normal a
    primitive integer vector (primitive() never flips sign)."""
    prim = primitive(normal)
    scale = next(a / b for a, b in zip(prim, normal) if b != 0)
    assert scale > 0
    return prim, offset * scale


def _incremental_facets(
    hp: Sequence[Vector], budget: Optional[int]
) -> List[Tuple[Tuple[Vector, Fraction], FrozenSet[int]]]:
    """Facets (outer normal, offset) of the hull of full-dimensional points
    given in d >= 2 dimensional coordinates, each with the indices of the
    points on it.

    Beneath-beyond insertion from a starting simplex.  For a new point p with
    excess s = n.p - a over each facet, the facets with s > 0 are dropped,
    those with s = 0 gain p, and every dropped facet v and facet h with s < 0
    that share a ridge give the new facet (-s_h)(n_v, a_v) + s_v(n_h, a_h),
    which vanishes at p and on the ridge.  Two facets share a ridge exactly
    when no third facet holds all their common points (at least d - 1 of
    them), so the new facet's points are those common points plus p."""
    d = len(hp[0])
    init = _independent_point_indices(hp)
    assert len(init) == d + 1

    facets: List[Tuple[Tuple[Vector, Fraction], Set[int]]] = [
        (h, set(init) - {k})
        for h, k in zip(simplex_halfspaces([hp[i] for i in init]), init)
    ]

    def check_budget():
        if budget is not None and len(facets) > budget:
            raise FacetBudgetExceededError(
                f"facet count exceeded budget of {budget}"
            )

    check_budget()
    for i in sorted(set(range(len(hp))) - set(init)):
        excess = [dot(normal, hp[i]) - offset for (normal, offset), _ in facets]
        hidden = [(f, s) for f, s in zip(facets, excess) if s < 0]
        new_facets = []
        for (hv, inc_v), sv in zip(facets, excess):
            if sv <= 0:
                continue
            for (hh, inc_h), sh in hidden:
                ridge = inc_v & inc_h
                if len(ridge) < d - 1 or sum(ridge <= inc for _, inc in facets) > 2:
                    continue
                normal = tuple(-sh * a + sv * b for a, b in zip(hv[0], hh[0]))
                new_facets.append((_facet_key(normal, -sh * hv[1] + sv * hh[1]), ridge | {i}))
        for (_, inc), s in zip(facets, excess):
            if s == 0:
                inc.add(i)
        facets = [f for f, s in zip(facets, excess) if s <= 0] + new_facets
        check_budget()

    return [(h, frozenset(inc)) for h, inc in facets]


def _lift_halfspace(hull: AffineHull, normal_h: Vector, offset_h: Fraction) -> Halfspace:
    """Ambient halfspace inducing the given hull-coordinate halfspace.

    Solves basis^T w = normal_h; for flat hulls the solution is one
    deterministic representative (free components set to zero).
    """
    rows = [list(b) for b in hull.basis]
    w = solve(rows, list(normal_h))
    assert w is not None
    prim, offset = _facet_key(w, offset_h)
    return Halfspace(prim, dot(prim, hull.base) + offset)


def build_polytope(
    points: Sequence[Sequence], facet_budget: Optional[int] = None
) -> Polytope:
    """Convex hull of a finite rational point set: vertices plus a complete
    irredundant facet list, exact throughout."""
    pts = tuple(vector(p) for p in points)
    if not pts:
        raise ValueError("points must be nonempty")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    hull = affine_hull(pts)
    d = hull.dim

    hp = [hull.coords(p) for p in pts]
    if d == 1:
        values = [c[0] for c in hp]
        top, bottom = max(values), min(values)
        hull_facets = [
            (((ONE,), top), frozenset(i for i, x in enumerate(values) if x == top)),
            (((-ONE,), -bottom), frozenset(i for i, x in enumerate(values) if x == bottom)),
        ]
    elif d >= 2:
        hull_facets = _incremental_facets(hp, facet_budget)
    else:
        hull_facets = []
    facets = tuple(
        sorted(
            (Facet(_lift_halfspace(hull, *h), incident) for h, incident in hull_facets),
            key=lambda f: (f.halfspace.normal, f.halfspace.offset),
        )
    )
    return Polytope(pts, hull, _vertices_from_incidences(len(pts), facets), facets)


def _vertices_from_incidences(count: int, facets: Sequence[Facet]) -> FrozenSet[int]:
    """Points whose smallest face is the point alone: the facets through
    point i meet in {i} (with no facets the hull is a single point)."""
    vertices = []
    for i in range(count):
        common = set(range(count))
        for f in facets:
            if i in f.incident:
                common &= f.incident
        if common == {i}:
            vertices.append(i)
    return frozenset(vertices)


def smallest_face_containing(
    P: Polytope, indices: Sequence[int]
) -> Tuple[Tuple[int, ...], bool]:
    """Smallest face containing the given points: the intersection of all
    facets containing them, or the whole polytope (not proper) when no facet
    does."""
    if not indices:
        raise ValueError("indices must be nonempty")
    want = set(indices)
    containing = [f for f in P.facets if want <= f.incident]
    if not containing:
        return tuple(range(len(P.points))), False
    common = set(containing[0].incident)
    for f in containing[1:]:
        common &= f.incident
    return tuple(sorted(common)), True


def face_exposing_normal(P: Polytope, indices: Sequence[int]) -> Vector:
    """The primitive sum of the normals of the facets containing the given
    points.  It exposes their smallest face strictly: u.p is largest exactly
    on the points of that face.  It is zero when no facet contains them (the
    face is the whole polytope)."""
    want = set(indices)
    total = [ZERO] * len(P.points[0])
    for f in P.facets:
        if want <= f.incident:
            total = [a + b for a, b in zip(total, f.halfspace.normal)]
    return primitive(tuple(total))


def parallel_face_pairs(P: Polytope, support: Sequence[int]) -> List[Vector]:
    """Facet normals v for which the support splits across the two opposite
    faces in directions v and -v, i.e. {v . mu} has exactly two values.

    Normals are reported once per +/- pair, scaled to coprime integers with
    the first nonzero entry positive, in lexicographic order.
    """
    if P.dim < 1:
        raise ValueError("parallel faces need dim >= 1")
    found = set()
    for f in P.facets:
        v = f.halfspace.normal
        values = {dot(v, P.points[i]) for i in support}
        if len(values) == 2:
            found.add(sign_canonical(primitive(v)))
    return sorted(found)
