"""Exact convex-hull geometry of finite rational point sets.

Hulls are built by incremental insertion inside affine-hull coordinates, so
lower-dimensional point sets (restrictions of a support to a face keep the
ambient dimension) are handled without perturbation.  Facet normals are lifted
back to the ambient space and normalized to coprime integer vectors; for a
flat hull the lift is one deterministic representative of the many valid
supporting normals.  Vertices, smallest faces and exposing normals are read
off the vertex-facet incidences, with no linear programming.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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


def _facet_key(normal: Vector, offset: Fraction) -> Tuple[Vector, Fraction]:
    prim = primitive(normal)
    # keep orientation: primitive() never flips sign
    scale = None
    for a, b in zip(prim, normal):
        if b != 0:
            scale = a / b
            break
    assert scale is not None and scale > 0
    return prim, offset * scale


def _incremental_facets(
    hp: Sequence[Vector], budget: Optional[int]
) -> List[Tuple[Vector, Fraction]]:
    """Facets (outer normal, offset) of the hull of full-dimensional points
    given in d >= 2 dimensional coordinates."""
    d = len(hp[0])
    init = _independent_point_indices(hp)
    assert len(init) == d + 1

    facets: Dict[Tuple[Vector, Fraction], Set[int]] = {}

    def check_budget():
        if budget is not None and len(facets) > budget:
            raise FacetBudgetExceededError(
                f"facet count exceeded budget of {budget}"
            )

    def supporting(normal: Vector, offset: Fraction, idxs: Sequence[int]) -> bool:
        return all(dot(normal, hp[i]) <= offset for i in idxs)

    def orient(normal: Vector, offset: Fraction, idxs: Sequence[int]):
        if supporting(normal, offset, idxs):
            return normal, offset
        if supporting(vneg(normal), -offset, idxs):
            return vneg(normal), -offset
        return None

    processed: List[int] = list(init)
    for k in init:
        face_pts = [hp[i] for i in init if i != k]
        normal = hyperplane_normal(face_pts)
        assert normal is not None
        offset = dot(normal, face_pts[0])
        if dot(normal, hp[k]) > offset:
            normal, offset = vneg(normal), -offset
        facets[_facet_key(normal, offset)] = set()
    check_budget()

    def refresh_incidence():
        for (normal, offset), inc in facets.items():
            inc.clear()
            inc.update(i for i in processed if dot(normal, hp[i]) == offset)

    refresh_incidence()

    remaining = [i for i in range(len(hp)) if i not in set(init)]
    for i in remaining:
        p = hp[i]
        visible = []
        hidden = []
        for key in facets:
            normal, offset = key
            if dot(normal, p) > offset:
                visible.append(key)
            else:
                hidden.append(key)
        processed.append(i)
        if not visible:
            refresh_incidence()
            continue
        new_facets: Dict[Tuple[Vector, Fraction], Set[int]] = {}
        for kv in visible:
            for kh in hidden:
                ridge = facets[kv] & facets[kh]
                if not ridge:
                    continue
                ridge_pts = [hp[j] for j in sorted(ridge)]
                if affine_rank(ridge_pts) != d - 2:
                    continue
                normal = hyperplane_normal(ridge_pts + [p])
                if normal is None:
                    continue
                offset = dot(normal, p)
                oriented = orient(normal, offset, processed)
                if oriented is None:
                    continue
                key = _facet_key(*oriented)
                if key not in facets:  # an on-plane kept facet just extends
                    new_facets[key] = set()
        for kv in visible:
            del facets[kv]
        for key, inc in new_facets.items():
            facets[key] = inc
        check_budget()
        refresh_incidence()

    return sorted(facets.keys())


def _lift_halfspace(hull: AffineHull, normal_h: Vector, offset_h: Fraction) -> Halfspace:
    """Ambient halfspace inducing the given hull-coordinate halfspace.

    Solves basis^T w = normal_h; for flat hulls the solution is one
    deterministic representative (free components set to zero).
    """
    rows = [list(b) for b in hull.basis]
    w = solve(rows, list(normal_h))
    assert w is not None
    prim = primitive(w)
    scale = None
    for a, b in zip(prim, w):
        if b != 0:
            scale = a / b
            break
    assert scale is not None and scale > 0
    return Halfspace(prim, Fraction(dot(prim, hull.base)) + offset_h * scale)


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

    halfspaces: List[Halfspace] = []
    if d == 1:
        hp = [hull.coords(p) for p in pts]
        values = [c[0] for c in hp]
        halfspaces.append(_lift_halfspace(hull, (ONE,), max(values)))
        halfspaces.append(_lift_halfspace(hull, (-ONE,), -min(values)))
    elif d >= 2:
        hp = [hull.coords(p) for p in pts]
        for normal_h, offset_h in _incremental_facets(hp, facet_budget):
            halfspaces.append(_lift_halfspace(hull, normal_h, offset_h))

    halfspaces.sort(key=lambda h: (h.normal, h.offset))
    facets = tuple(
        Facet(h, frozenset(i for i, p in enumerate(pts) if dot(h.normal, p) == h.offset))
        for h in halfspaces
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
