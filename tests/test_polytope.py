import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from descregions import lp
from descregions.linalg import _Echelon, affine_rank, dot, lattice, vsub
from descregions.check import _face_split
from descregions.linalg import primitive_int, sign_canonical
from descregions.polytope import (
    build_polytope,
    parallel_face_pairs,
    smallest_face_containing,
)
from descregions.signomial import Signomial, negatives

import hull_oracle
from fixtures import CUBE3, CUBE4, STRIP_PAIR, TEN_TERM, TEN_TERM_LOWER, WIDE16, vec
from hull_oracle import brute_force_facets, polytope_facets_in_hull_coords
from lp_oracle import int_system
from simplex_oracle import hyperplane_normal
from strategies import point_sets, rational_point_sets

F = Fraction


def hull(points, facet_budget=None):
    """The hull of rational points, built on their lattice frame."""
    return build_polytope(lattice(points)[1], facet_budget)


def idx_of(P, point):
    return P.points.index(point)


def test_affine_hull_dims():
    assert hull([vec(0, 0), vec(1, 0), vec(0, 1)]).dim == 2
    assert hull([vec(1, 1)]).dim == 0
    assert hull([vec(0, 0), vec(2, 2), vec(1, 1)]).dim == 1
    assert build_polytope(CUBE3.frame).dim == 3


def test_ten_term_hull_vertices():
    P = build_polytope(TEN_TERM.frame)
    verts = {P.points[i] for i in P.vertices}
    assert verts == {vec(0, 0), vec(2, 0), vec(3, 2), vec(2, 3), vec(0, 4)}


def test_single_point_polytope():
    P = hull([vec(1, 1)])
    assert P.dim == 0
    assert P.vertices == {0}
    assert P.facets == ()


def test_cube_hull_counts():
    P = build_polytope(CUBE3.frame)
    assert len(P.vertices) == 8
    assert len(P.facets) == 6


def face_of(P, points):
    """Points of the smallest face containing the given points."""
    return {P.points[i] for i in smallest_face_containing(P, [idx_of(P, p) for p in points])[0]}


def test_face_in_direction():
    P = build_polytope(TEN_TERM_LOWER.frame)
    left = {vec(0, 0), vec(0, 1), vec(0, 2), vec(0, 3), vec(0, 4)}
    assert face_of(P, [vec(0, 1), vec(0, 3)]) == left
    assert smallest_face_containing(P, [idx_of(P, vec(0, 1)), idx_of(P, vec(0, 3))])[1] == (-1, 0)
    everything = list(range(len(P.points)))
    assert smallest_face_containing(P, everything) == (tuple(everything), (0, 0))
    Q = build_polytope(STRIP_PAIR.frame)
    assert face_of(Q, [vec(0, 1), vec(4, 1)]) == {vec(0, 1), vec(1, 1), vec(4, 1)}
    assert smallest_face_containing(Q, [idx_of(Q, vec(0, 1)), idx_of(Q, vec(4, 1))])[1] == (0, 1)


def test_is_vertex_examples():
    P = build_polytope(TEN_TERM.frame)
    assert idx_of(P, vec(0, 2)) not in P.vertices
    assert idx_of(P, vec(3, 2)) in P.vertices
    single = hull([vec(5, 5)])
    assert 0 in single.vertices


def is_edge(P, i, j):
    """The segment is a face: its smallest face has exactly these vertices."""
    return set(smallest_face_containing(P, [i, j])[0]) & P.vertices == {i, j}


def test_is_edge_examples():
    C = build_polytope(CUBE3.frame)
    assert is_edge(C, idx_of(C, vec(0, 0, 0)), idx_of(C, vec(0, 0, 1)))
    P = build_polytope(TEN_TERM.frame)
    assert is_edge(P, idx_of(P, vec(0, 0)), idx_of(P, vec(0, 4)))
    assert not is_edge(P, idx_of(P, vec(2, 0)), idx_of(P, vec(0, 4)))
    # the edge also holds (0,1), (0,2) and (0,3)
    assert face_of(P, [vec(0, 0), vec(0, 4)]) == {vec(0, k) for k in range(5)}


def test_smallest_face_lower_restriction():
    P = build_polytope(TEN_TERM_LOWER.frame)
    neg = set(negatives(TEN_TERM_LOWER))
    neg_idx = [i for i, p in enumerate(P.points) if p in neg]
    face, normal = smallest_face_containing(P, neg_idx)
    assert normal == (-1, 0)
    assert {P.points[i] for i in face} == {
        vec(0, 0), vec(0, 1), vec(0, 2), vec(0, 3), vec(0, 4)
    }


def test_smallest_face_whole_polytope():
    P = build_polytope(TEN_TERM.frame)
    face, normal = smallest_face_containing(P, list(range(len(P.points))))
    assert not any(normal)
    assert face == tuple(range(len(P.points)))


def test_smallest_face_cube4_negatives():
    P = build_polytope(CUBE4.frame)
    neg = set(negatives(CUBE4))
    neg_idx = [i for i, p in enumerate(P.points) if p in neg]
    face, normal = smallest_face_containing(P, neg_idx)
    embedded_cube = {mu for mu in CUBE4.support if mu[3] == 0}
    assert {P.points[i] for i in face} == embedded_cube
    assert normal == (0, 0, 0, -1) and all(type(a) is int for a in normal)


def test_parallel_face_pairs_cube_and_strip():
    C = build_polytope(CUBE3.frame)
    pairs = parallel_face_pairs(C)
    assert [v for v, _, _ in pairs] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    # the upper face of each pair holds the corners with a 1 in its coordinate
    for v, top, bottom in pairs:
        k = v.index(1)
        assert {C.points[i] for i in top} == {p for p in C.points if p[k] == 1}
        assert {C.points[i] for i in bottom} == {p for p in C.points if p[k] == 0}
    Q = build_polytope(STRIP_PAIR.frame)
    upper = tuple(i for i, p in enumerate(Q.points) if p[1] == 1)
    lower = tuple(i for i, p in enumerate(Q.points) if p[1] == 0)
    assert parallel_face_pairs(Q) == [((0, 1), upper, lower)]


def test_parallel_face_pairs_triangle():
    # every facet normal of a triangle pairs the opposite vertex with its edge,
    # so all three qualify under the two-value test
    P = hull([vec(0, 0), vec(1, 0), vec(0, 1)])
    assert parallel_face_pairs(P) == [((0, 1), (2,), (0, 1)), ((1, 0), (1,), (0, 2)), ((1, 1), (1, 2), (0,))]


def test_parallel_face_pairs_of_a_point_hull():
    """A point hull has no facets, so no parallel faces."""
    assert parallel_face_pairs(hull([vec(1, 1)])) == []


def test_facet_soundness_and_duality():
    for f in (TEN_TERM, CUBE3, CUBE4, STRIP_PAIR):
        P = build_polytope(f.frame)
        d = P.dim
        for facet in P.facets:
            values = [dot(facet.normal, p) for p in P.points]
            assert all(v <= facet.offset for v in values)
            incident_pts = [P.points[i] for i in facet.incident]
            assert affine_rank(incident_pts) == d - 1
        # vertex/facet duality
        for i in range(len(P.points)):
            normals = [f.normal for f in P.facets if i in f.incident]
            dual_vertex = len(normals) >= d and len(hull_oracle.rref(normals)) == d
            assert dual_vertex == (i in P.vertices)


def test_face_in_direction_of_facet_normal_gives_incident_set():
    P = build_polytope(TEN_TERM.frame)
    for facet in P.facets:
        face, normal = smallest_face_containing(P, sorted(facet.incident))
        assert set(face) == set(facet.incident) and normal == facet.normal


def _random_points(rng):
    n = rng.randint(1, 3)
    count = rng.randint(1, 8)
    pts = set()
    flat = rng.random() < 0.3
    while len(pts) < count:
        p = [rng.randint(-4, 4) for _ in range(n)]
        if flat and n > 1:
            p[-1] = sum(p[:-1]) % 3  # force affinely degenerate configurations
        pts.add(tuple(F(c) for c in p))
    return sorted(pts)


def test_hull_matches_exhaustive_oracle_sample():
    rng = random.Random(31337)
    for _ in range(30):
        pts = _random_points(rng)
        P = hull(pts)
        assert polytope_facets_in_hull_coords(P) == brute_force_facets(pts)


def test_is_edge_implies_vertices():
    rng = random.Random(7)
    for _ in range(10):
        pts = _random_points(rng)
        if len(pts) < 2:
            continue
        P = hull(pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if is_edge(P, i, j):
                    assert i in P.vertices and j in P.vertices


def test_facet_budget():
    # past the budget the hull is None, an answer rather than an error
    assert build_polytope(CUBE3.frame, facet_budget=3) is None
    assert hull([vec(0), vec(1), vec(2)], facet_budget=1) is None
    # the budget holds for every intermediate hull of the insertion order:
    # the 3-cube has 6 facets but is declined at 6 and built at 7
    assert len(build_polytope(CUBE3.frame).facets) == 6
    assert build_polytope(CUBE3.frame, facet_budget=6) is None
    assert len(build_polytope(CUBE3.frame, facet_budget=7).facets) == 6


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        hull([vec(0, 0), vec(0, 0)])


# --- one face query against the previous two ---------------------------------


def previous_smallest_face_containing(P, indices):
    """The smallest face and whether it is proper, as ``smallest_face_containing``
    answered before it returned the exposing normal too."""
    want = set(indices)
    containing = [f for f in P.facets if want <= f.incident]
    if not containing:
        return tuple(range(len(P.points))), False
    common = set(containing[0].incident)
    for f in containing[1:]:
        common &= f.incident
    return tuple(sorted(common)), True


def previous_face_exposing_normal(P, indices):
    """The exposing normal from a second scan of the facets, as Fractions."""
    want = set(indices)
    total = [0] * len(P.points[0])
    for f in P.facets:
        if want <= f.incident:
            total = [a + b for a, b in zip(total, f.normal)]
    return tuple(map(Fraction, primitive_int(total)))


def previous_parallel_face_pairs(P, support):
    """The parallel-face normals alone, as Fractions; the faces were split
    again by each caller."""
    if P.dim < 1:
        raise ValueError("parallel faces need dim >= 1")
    found = set()
    for f in P.facets:
        values = {dot(f.normal, P.points[i]) for i in support}
        if len(values) == 2:
            found.add(sign_canonical(f.normal))
    return [tuple(map(Fraction, w)) for w in sorted(found)]


@given(point_sets(), st.data())
@settings(deadline=None, max_examples=60)
def test_one_face_query_answers_as_the_previous_two(pts, data):
    """The face, the normal and the parallel splits of one query are the
    previous queries' answers: the same faces and normals, proper exactly
    when the normal is nonzero, and each split's faces those of replay's
    face split on the points."""
    P = hull(pts)
    everything = range(len(pts))
    subsets = st.lists(st.sampled_from(everything), min_size=1, unique=True).map(sorted)
    queries = [[i] for i in everything] + [list(everything)] + data.draw(st.lists(subsets, max_size=6))
    for idx in queries:
        face, normal = smallest_face_containing(P, idx)
        before, proper = previous_smallest_face_containing(P, idx)
        assert face == before and proper == any(normal)
        assert normal == previous_face_exposing_normal(P, idx) and all(type(a) is int for a in normal)
    pairs = parallel_face_pairs(P)
    if P.dim < 1:
        assert pairs == [] and P.facets == ()
        return
    assert [v for v, _, _ in pairs] == previous_parallel_face_pairs(P, everything)
    rows = Signomial(len(pts[0]), (1,) * len(pts), 1, P.points)  # P's points as a frame, one term each
    for v, top, bottom in pairs:
        assert (top, bottom) == _face_split(rows, v)


# --- incidences against the LP definitions ------------------------------------


def lp_exposes(points, face, others):
    """Some functional is constant on ``face`` and exceeds it by at least one
    on every point of ``others`` (exact LP)."""
    first = points[face[0]]
    rows = [(vsub(first, points[k]), 0, "=") for k in face[1:]]
    rows += [(vsub(first, points[k]), 1, ">=") for k in others]
    return lp.feasible(int_system(len(first), rows)).is_feasible


@given(point_sets())
# during insertion two facets share three points but no ridge
@example(sorted(vec(*p) for p in [(0, 0, 2, 2), (0, 1, 0, 2), (0, 2, 2, 0), (1, 0, 0, 0),
                                  (1, 0, 1, 0), (1, 1, 0, 1), (1, 2, 0, 2), (2, 2, 2, 0)]))
@settings(deadline=None, max_examples=40)
def test_incidences_match_lp_definitions(pts):
    P = hull(pts)
    assert polytope_facets_in_hull_coords(P) == brute_force_facets(pts)
    everything = range(len(pts))
    scale = lattice(pts)[0]
    for f in P.facets:
        assert f.incident == {i for i in everything if dot(f.normal, pts[i]) == Fraction(f.offset, scale)}
    vertices = {i for i in everything if lp_exposes(pts, [i], [k for k in everything if k != i])}
    assert P.vertices == vertices
    for i in everything:
        for j in range(i + 1, len(pts)):
            others = [k for k in everything if k not in (i, j)]
            face, u = smallest_face_containing(P, [i, j])
            # the segment is a face holding no other point
            assert (face == (i, j)) == lp_exposes(pts, [i, j], others)
            # the segment is a face holding no other vertex
            assert is_edge(P, i, j) == (
                {i, j} <= vertices
                and lp_exposes(pts, [i, j], [k for k in others if k in vertices])
            )
            top = max(dot(u, p) for p in pts)
            assert {k for k in everything if dot(u, pts[k]) == top} == set(face)


# --- the reduced-echelon frame of the affine hull -----------------------------


def echelon_pivots(pts):
    """The pivot columns of the affine hull's echelon on the lattice frame."""
    return [c for c, _ in _Echelon.affine(lattice(pts)[1]).rows]


@given(point_sets())
@settings(deadline=None, max_examples=60)
def test_affine_hull_frame(pts):
    P = hull(pts)
    pivots = echelon_pivots(pts)
    n = len(pts[0])
    assert P.dim == affine_rank(P.points) == len(pivots)
    # a unit step along a column off the pivots leaves a flat hull
    for k in set(range(n)) - set(pivots):
        off = tuple(a + (i == k) for i, a in enumerate(P.points[0]))
        assert affine_rank(P.points + (off,)) == P.dim + 1
    for f in P.facets:
        assert all(f.normal[k] == 0 for k in range(n) if k not in pivots)


@given(point_sets())
@settings(deadline=None, max_examples=80)
def test_hyperplane_normal_properties(pts):
    d = len(pts[0])
    for group in (pts, pts[:d]):
        normal = hyperplane_normal(group)
        diffs = np.array([[float(a - b) for a, b in zip(p, group[0])] for p in group[1:]] or [[0.0] * d])
        if np.linalg.matrix_rank(diffs) != d - 1:
            assert normal is None
            continue
        assert all(a.denominator == 1 for a in normal)
        assert np.gcd.reduce([int(a) for a in normal]) == 1
        assert all(dot(normal, vsub(p, group[0])) == 0 for p in group)
        # the free coordinate of the echelon form is the last nonzero one
        assert [a for a in normal if a != 0][-1] > 0


def facet_list(P):
    return [([str(c) for c in f.normal], str(f.offset), sorted(f.incident)) for f in P.facets]


def test_flat_hull_facets_are_pinned():
    # the lifted normal of a flat hull is one representative among many;
    # these are the ones the traces record
    segment = hull([vec(1, 1, 1), vec(1, 3, 2), vec(1, 5, 3)])
    assert segment.dim == 1 and segment.vertices == {0, 2}
    assert facet_list(segment) == [(["0", "-1", "0"], "-1", [0]), (["0", "1", "0"], "5", [2])]
    # a plane through (1, 0, 2, 1) spanned by (0, 2, 1, 1) and (0, 1, 3, -2)
    plane = hull([vec(1, 0, 2, 1), vec(1, 1, 5, -1), vec(1, 3, 6, 0),
                            vec(1, 4, 4, 3), vec(1, 4, 9, -2), vec(1, 6, 10, -1)])
    assert plane.dim == 2 and plane.vertices == {0, 1, 3, 4, 5}
    assert facet_list(plane) == [
        (["0", "-4", "3", "0"], "11", [1, 4]),
        (["0", "-3", "1", "0"], "2", [0, 1]),
        (["0", "-1", "2", "0"], "14", [4, 5]),
        (["0", "1", "-2", "0"], "-4", [0, 3]),
        (["0", "3", "-1", "0"], "8", [3, 5]),
    ]


# --- the integer lattice frame -------------------------------------------------


@given(rational_point_sets())
@settings(deadline=None, max_examples=80)
def test_integer_kernels_match_a_fraction_elimination(pts):
    d = len(pts[0])
    for group in (pts, pts[:d], pts[:2]):
        assert affine_rank(lattice(group)[1]) == len(hull_oracle.affine_rref(group))
        assert hyperplane_normal(group) == hull_oracle.normal_of(group)


@given(rational_point_sets(), st.integers(1, 60), st.integers(1, 60))
@settings(deadline=None, max_examples=60)
def test_hull_is_invariant_under_a_positive_scaling(pts, num, den):
    r = F(num, den)
    P = hull(pts)
    Q = hull([tuple(r * a for a in p) for p in pts])
    assert Q.vertices == P.vertices
    assert Q.dim == P.dim and echelon_pivots(Q.points) == echelon_pivots(P.points)
    assert [(f.normal, f.incident) for f in Q.facets] == [(f.normal, f.incident) for f in P.facets]
    p_scale, q_scale = lattice(pts)[0], lattice([tuple(r * a for a in p) for p in pts])[0]
    assert [Fraction(f.offset, q_scale) for f in Q.facets] == [r * Fraction(f.offset, p_scale) for f in P.facets]


def test_wide16_hull_matches_the_oracle():
    # exponent denominators 2, 3 and 4 give the lattice frame a scale of 12
    P = build_polytope(WIDE16.frame)
    assert P.dim == 16 and len(P.facets) == 17
    assert WIDE16.scale == 12 and P.points == tuple(tuple(12 * a for a in p) for p in WIDE16.support)
    assert polytope_facets_in_hull_coords(P) == brute_force_facets(list(P.points))
