"""Exact convex-hull geometry of finite integer point sets.

Hulls are built on int rows, as a signomial's lattice frame holds its
exponents (``build_polytope(f.frame)``), and every step works on ints.
Beneath-beyond insertion runs inside affine-hull coordinates, so
lower-dimensional point sets (restrictions of a support to a face keep the
ambient dimension) are handled without perturbation.  The linear algebra is
one echelon per hull: the echelon of the rows is the affine hull and picks
the starting simplex, whose facets ``check.simplex_halfspaces`` reads off
one lazily scaled fraction-free inverse.  The echelon is reduced:
a point's hull coordinates are its pivot entries minus the base point's,
and a hull facet normal is lifted back by placing it on the pivot columns,
so neither direction solves a linear system.  For a flat hull that lift is
the one supporting normal that is zero off the pivot columns.  Each new
facet is the positive combination of the two facets sharing its ridge that
vanishes at the new point; ridges are read from the vertex-facet
incidences, which insertion keeps up to date.  A facet's normal is a
coprime integer vector, the same under any positive scaling of the points,
and its offset an int on the rows.  Vertices, smallest faces with their
exposing normals and parallel faces with their splits are read off the
incidences, with no linear programming: vertices in one pass over the
facets, and a parallel pair from each facet whose off-facet points share one
value, a test that stops at the first point that differs.  Normals leave as
int tuples.  A hull past its facet budget is None, as a search past its
budget is.

A face's hull is read off its parent's, with no insertion
(``face_polytope``): its facets are the parent's facets cut down to the
face, and each normal is the parent facet's functional on the face's own
echelon.  So a run builds one hull, the root's, and the facet budget bounds
that insertion only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .check import _extremes, simplex_halfspaces
from .linalg import IntVector, _Echelon, dot, primitive_int, sign_canonical


@dataclass(frozen=True)
class Facet:
    """The facet normal . p <= offset on the int rows: a primitive int
    normal, an int offset, and the indices of the points on it."""

    normal: IntVector
    offset: int
    incident: FrozenSet[int]


@dataclass(frozen=True)
class Polytope:
    points: Tuple[IntVector, ...]
    dim: int
    vertices: FrozenSet[int]
    facets: Tuple[Facet, ...]


def _incremental_facets(
    hp: Sequence[IntVector], init: Sequence[int], budget: Optional[int]
) -> Optional[List[Tuple[Tuple[IntVector, int], FrozenSet[int]]]]:
    """Facets (outer primitive normal, offset) of the hull of
    full-dimensional integer points given in d >= 1 dimensional coordinates,
    each with the indices of the points on it; None past ``budget``.

    Beneath-beyond insertion from the simplex on the d + 1 affinely
    independent points ``init``.  For a new point p with excess
    s = n.p - a over each facet, the facets with s > 0 are dropped,
    those with s = 0 gain p, and every dropped facet v and facet h with s < 0
    that share a ridge give the new facet (-s_h)(n_v, a_v) + s_v(n_h, a_h),
    which vanishes at p and on the ridge, divided by the gcd of its entries
    (that of the normal: the offset is n.p).  Two facets share a ridge exactly
    when no third facet holds all their common points (at least d - 1 of
    them), so the new facet's points are those common points plus p."""
    d = len(hp[0])
    assert len(init) == d + 1

    facets: List[Tuple[Tuple[IntVector, int], Set[int]]] = [
        (h, set(init) - {k})
        for h, k in zip(simplex_halfspaces([hp[i] for i in init]), init)
    ]
    for i in sorted(set(range(len(hp))) - set(init)):
        if budget is not None and len(facets) > budget:
            return None
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
                h = primitive_int([-sh * a + sv * b for a, b in zip((*hv[0], hv[1]), (*hh[0], hh[1]))])
                new_facets.append(((h[:-1], h[-1]), ridge | {i}))
        for (_, inc), s in zip(facets, excess):
            if s == 0:
                inc.add(i)
        facets = [f for f, s in zip(facets, excess) if s <= 0] + new_facets
    if budget is not None and len(facets) > budget:
        return None
    return [(h, frozenset(inc)) for h, inc in facets]


def _lifted_polytope(
    pts: Tuple[IntVector, ...], pivots: Sequence[int], facets: Iterable[Tuple[IntVector, FrozenSet[int]]]
) -> Polytope:
    """The polytope of int rows whose facets are given by hull-coordinate
    normals with their incident points.  Hull coordinates are the pivot
    entries of p - p_0, so a hull normal placed on the pivot columns, zero
    elsewhere, induces the same facet on the rows and stays primitive; the
    offset is its value at a point on the facet.  For a flat hull that
    placed normal is the one supporting normal that is zero off the pivot
    columns.  Facets are sorted by (normal, offset), the order of the exact
    values."""
    lifted = []
    for normal_h, incident in facets:
        w = [0] * len(pts[0])
        for k, a in zip(pivots, normal_h):
            w[k] = a
        lifted.append(Facet(tuple(w), dot(w, pts[next(iter(incident))]), incident))
    lifted.sort(key=lambda f: (f.normal, f.offset))
    return Polytope(pts, len(pivots), _vertices_from_incidences(len(pts), lifted), tuple(lifted))


def build_polytope(
    points: Sequence[Sequence[int]], facet_budget: Optional[int] = None
) -> Optional[Polytope]:
    """Convex hull of a finite set of int points: vertices plus a complete
    irredundant facet list, exact throughout; None past ``facet_budget``.
    The budget holds for every intermediate hull of the insertion order, so
    a hull with at most ``facet_budget`` facets can be declined too (the
    3-cube, 6 facets, is None at a budget of 6 and built at 7)."""
    pts = tuple(map(tuple, points))
    if not pts:
        raise ValueError("points must be nonempty")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    ech = _Echelon.affine(pts)
    pivots = [c for c, _ in ech.rows]
    hp = [tuple(p[k] - pts[0][k] for k in pivots) for p in pts]
    hull_facets = _incremental_facets(hp, ech.picked, facet_budget) if pivots else []
    if hull_facets is None:
        return None
    return _lifted_polytope(pts, pivots, [(normal, inc) for (normal, _), inc in hull_facets])


def face_polytope(P: Polytope, face: Sequence[int], rows: Sequence[Sequence[int]]) -> Polytope:
    """``build_polytope(rows)``, field for field, read off P: ``face`` holds
    the increasing indices of the points of a face F of P, and ``rows`` their
    rows, all divided by one positive factor (a restriction's shrunk frame).

    Every face of F is a face of P, so the facets of F are the maximal sets
    F & G over the facets G of P that do not hold F.  Each one's normal is
    G's functional on F's affine hull in hull coordinates: row r_k of the
    reduced echelon with pivot column c_k gives the coordinate n_G.r_k /
    r_k[c_k], brought to ints by the positive lcm of the |r_k[c_k]| (a
    pivot entry may be negative, and its sign must stay) and made
    primitive.  No insertion runs, so no budget applies: F has at most as
    many facets as P."""
    pts = tuple(map(tuple, rows))
    ech = _Echelon.affine(pts)
    meets: dict = {}  # F & G -> G's normal, over the facets G that do not hold F
    if ech.rows:
        whole = frozenset(face)
        for g in P.facets:
            meet = g.incident & whole
            if len(meet) < len(whole):
                meets.setdefault(meet, g.normal)
    maximal: List[FrozenSet[int]] = []
    for meet in sorted(meets, key=len, reverse=True):
        if not any(meet < m for m in maximal):
            maximal.append(meet)
    scale = lcm(*(abs(row[c]) for c, row in ech.rows))
    # the echelon rows times scale / r_k[c_k]: each normal's coordinates are its products with them
    basis = [[a * (scale // row[c]) for a in row] for c, row in ech.rows]
    at = {i: k for k, i in enumerate(face)}
    facets = [
        (primitive_int([sum(map(mul, meets[m], b)) for b in basis]), frozenset(map(at.get, m))) for m in maximal
    ]
    return _lifted_polytope(pts, [c for c, _ in ech.rows], facets)


def lazy_hull(build: Callable[[], Optional[Polytope]]) -> Callable[[], Optional[Polytope]]:
    """``build`` run on the first call only: later calls return its answer,
    the hull or None past the facet budget."""
    memo: list = []

    def get() -> Optional[Polytope]:
        if not memo:
            memo.append(build())
        return memo[0]
    return get


def _vertices_from_incidences(count: int, facets: Sequence[Facet]) -> FrozenSet[int]:
    """Points whose smallest face is the point alone: the facets through
    point i meet in {i} (with no facets the hull is a single point).  One
    pass over the facets intersects the incidences met at each point."""
    common: List[Optional[FrozenSet[int]]] = [None] * count
    for f in facets:
        for i in f.incident:
            common[i] = f.incident if common[i] is None else common[i] & f.incident
    return frozenset(i for i, c in enumerate(common) if c == {i} or c is None and count == 1)


def smallest_face_containing(
    P: Polytope, indices: Sequence[int]
) -> Tuple[Tuple[int, ...], IntVector]:
    """Smallest face containing the given points, from one scan of the
    facets through them: the intersection of their incidences (the whole
    polytope when there are none), and the primitive sum of their normals,
    which exposes it strictly (u.p is largest exactly on the face).  The
    face is proper exactly when the normal is nonzero: the normals lie in
    the face's pointed normal cone (``_lifted_polytope`` lifts a flat
    hull's linearly)."""
    if not indices:
        raise ValueError("indices must be nonempty")
    want = set(indices)
    common = set(range(len(P.points)))
    total = [0] * len(P.points[0])
    for f in P.facets:
        if want <= f.incident:
            common &= f.incident
            total = [a + b for a, b in zip(total, f.normal)]
    return tuple(sorted(common)), primitive_int(total)


def parallel_face_pairs(P: Polytope) -> List[Tuple[IntVector, Tuple[int, ...], Tuple[int, ...]]]:
    """Facet normals v for which the points split across the two opposite
    faces in directions v and -v, i.e. {v . p} has exactly two values, each
    with the point indices on those two faces as replay's face split reads
    them (``check._extremes``); none for a point hull, which has no facets.

    Normals are reported once per +/- pair, scaled to coprime integers with
    the first nonzero entry positive, in lexicographic order.
    """
    found = set()
    for f in P.facets:
        # the points on f have value f.offset, and some point lies off it:
        # f splits the points when those off it share one value
        off = (dot(f.normal, p) for i, p in enumerate(P.points) if i not in f.incident)
        value = next(off)
        if all(x == value for x in off):
            found.add(sign_canonical(f.normal))
    return [(v, *_extremes([dot(v, p) for p in P.points])) for v in sorted(found)]
