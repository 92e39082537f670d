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
the one supporting normal that is zero off the pivot columns.  Insertion
holds each facet as one flat int row (*normal, -offset), so a point's
excess is one product with (*p, 1), with its incident points and its
neighbours, the facets it shares a ridge with.  Each new facet is the
positive combination of a visible facet and a hidden neighbour that
vanishes at the new point, and its neighbours through that point are
found among the facets through it, so an insertion works in proportion
to the facets it changes (the neighbour lists of Quickhull: Barber,
Dobkin and Huhdanpaa, ACM TOMS 22(4), 1996).  A facet's normal is a
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
from itertools import compress, count
from math import lcm
from operator import mul
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

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
) -> Optional[List[Tuple[IntVector, FrozenSet[int]]]]:
    """Facets of the hull of full-dimensional integer points given in d >= 1
    dimensional coordinates, each as the flat row (*n, -a) of its outer
    primitive normal n and offset a, with the indices of the points on it;
    None past ``budget``.

    Beneath-beyond insertion from the simplex on the d + 1 affinely
    independent points ``init``, in index order.  A new point p has excess
    s = row.(*p, 1) over each facet: the facets with s > 0 (visible) are
    dropped and those with s = 0 gain p.  Each facet keeps its neighbours,
    the facets it shares a ridge with; every pair of the simplex's facets
    does.  The horizon is read off them: a visible facet v and a hidden
    neighbour h (s < 0) give the new facet s_v row_h - s_h row_v, which
    vanishes at p and on their ridge, divided by the gcd of its entries (that
    of the normal: the offset is n.p).  Its points are the ridge's plus p,
    and h is its one neighbour not through p.

    A ridge through p lies on exactly two facets, both through p, so the
    new and zero-excess facets find their neighbours through p among
    themselves.  A facet with d points is a simplex: its ridges through p
    are its d - 1 point sets that hold p (d - 1 of its points are affinely
    independent), so two such facets that share one, keyed as a bit mask,
    are neighbours, with no scan.  Every other facet through p (a
    zero-excess facet has more than d points) meets a simplex facet in a
    ridge exactly when it holds d - 1 of its points, and another one exactly
    when their common points are at least d - 1 and no third of them holds
    them all; a simplex facet holds no d - 1 points that are not its ridge.
    Zero-excess facets that were neighbours stay so, but two of them can
    also meet afresh with no new facet between them (in 2-D, p on the lines
    of two edges removes the edge between them).  So an insertion works in
    proportion to the facets it changes, besides its excess on each
    facet."""
    d = len(hp[0])
    assert len(init) == d + 1

    rows: Dict[int, IntVector] = {}
    incident: Dict[int, Set[int]] = {}
    neighbours: Dict[int, Set[int]] = {}
    corners, simplex = set(init), set(range(d + 1))
    for f, ((normal, offset), k) in enumerate(zip(simplex_halfspaces([hp[k] for k in init]), init)):
        rows[f] = (*normal, -offset)
        incident[f] = corners - {k}
        neighbours[f] = simplex - {f}
    fresh = d + 1
    bits = [1 << k for k in range(len(hp))]
    for i in sorted(set(range(len(hp))) - corners):
        if budget is not None and len(rows) > budget:
            return None
        q = (*hp[i], 1)
        excess = {f: sum(map(mul, row, q)) for f, row in rows.items()}
        visible = [f for f, s in excess.items() if s > 0]
        wide = [f for f, s in excess.items() if s == 0]  # the facets through p with more than d points
        for f in wide:
            incident[f].add(i)
        if not visible:
            continue
        simplicial = []  # the facets through p with d points
        for v in visible:
            sv, row_v, inc_v = excess[v], rows.pop(v), incident.pop(v)
            for h in neighbours.pop(v):
                sh = excess[h]
                if sh > 0:
                    continue
                neighbours[h].discard(v)
                if sh < 0:
                    rows[fresh] = primitive_int([sv * b - sh * a for a, b in zip(row_v, rows[h])])
                    incident[fresh] = inc = inc_v & incident[h]
                    inc.add(i)
                    neighbours[fresh] = {h}
                    neighbours[h].add(fresh)
                    (simplicial if len(inc) == d else wide).append(fresh)
                    fresh += 1
        ridges: Dict[int, int] = {}  # a ridge's d - 1 points, as a bit mask -> a facet with d points on it
        for a in simplicial:
            inc_a = incident[a]
            mask = sum(map(bits.__getitem__, inc_a))
            for j in inc_a:
                if j != i:
                    b = ridges.setdefault(mask ^ bits[j], a)
                    if b != a:
                        neighbours[a].add(b)
                        neighbours[b].add(a)
        later = set(wide)
        for a in wide:
            inc_a, near_a = incident[a], neighbours[a]
            later.discard(a)
            for b in [b for b in simplicial if len(incident[b] - inc_a) == 1]:
                near_a.add(b)
                neighbours[b].add(a)
            for b in later - near_a:
                common = inc_a & incident[b]
                if len(common) >= d - 1 and sum(common <= incident[g] for g in wide) == 2:
                    near_a.add(b)
                    neighbours[b].add(a)
    if budget is not None and len(rows) > budget:
        return None
    return [(row, frozenset(incident[f])) for f, row in rows.items()]


def _lifted_polytope(
    pts: Tuple[IntVector, ...], pivots: Sequence[int], facets: Iterable[Tuple[IntVector, FrozenSet[int]]]
) -> Polytope:
    """The polytope of int rows whose facets are given by hull-coordinate
    normals with their incident points.  Hull coordinates are the pivot
    entries of p - p_0, so a hull normal placed on the pivot columns, zero
    elsewhere, induces the same facet on the rows and stays primitive; the
    offset is its value at a point on the facet.  For a flat hull that
    placed normal is the one supporting normal that is zero off the pivot
    columns; a full-dimensional hull pivots on every column, in order, and
    keeps its normals as they are.  Facets are sorted by (normal, offset),
    the order of the exact values."""
    width = len(pts[0])
    lifted = []
    for normal, incident in facets:
        if len(pivots) < width:
            w = [0] * width
            for k, a in zip(pivots, normal):
                w[k] = a
            normal = tuple(w)
        lifted.append(Facet(normal, dot(normal, pts[next(iter(incident))]), incident))
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
    return _lifted_polytope(pts, pivots, [(row[:-1], inc) for row, inc in hull_facets])


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
