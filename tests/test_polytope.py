import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from descregions import lp
from descregions.linalg import affine_rank, dot, rank, vsub
from descregions.polytope import (
    FacetBudgetExceededError,
    affine_hull,
    build_polytope,
    face_exposing_normal,
    parallel_face_pairs,
    smallest_face_containing,
)
from descregions.signomial import negatives

from fixtures import CUBE3, CUBE4, STRIP_PAIR, TEN_TERM, TEN_TERM_LOWER, vec
from hull_oracle import brute_force_facets, polytope_facets_in_hull_coords
from strategies import point_sets

F = Fraction


def idx_of(P, point):
    return P.points.index(point)


def test_affine_hull_dims():
    assert affine_hull([vec(0, 0), vec(1, 0), vec(0, 1)]).dim == 2
    assert affine_hull([vec(1, 1)]).dim == 0
    hull = affine_hull([vec(0, 0), vec(2, 2), vec(1, 1)])
    assert hull.dim == 1
    assert hull.basis == (vec(1, 1),)
    assert affine_hull(CUBE3.support).dim == 3


def test_ten_term_hull_vertices():
    P = build_polytope(TEN_TERM.support)
    verts = {P.points[i] for i in P.vertices}
    assert verts == {vec(0, 0), vec(2, 0), vec(3, 2), vec(2, 3), vec(0, 4)}


def test_single_point_polytope():
    P = build_polytope([vec(1, 1)])
    assert P.dim == 0
    assert P.vertices == {0}
    assert P.facets == ()


def test_cube_hull_counts():
    P = build_polytope(CUBE3.support)
    assert len(P.vertices) == 8
    assert len(P.facets) == 6


def face_of(P, points):
    """Points of the smallest face containing the given points."""
    return {P.points[i] for i in smallest_face_containing(P, [idx_of(P, p) for p in points])[0]}


def test_face_in_direction():
    P = build_polytope(TEN_TERM_LOWER.support)
    left = {vec(0, 0), vec(0, 1), vec(0, 2), vec(0, 3), vec(0, 4)}
    assert face_of(P, [vec(0, 1), vec(0, 3)]) == left
    assert face_exposing_normal(P, [idx_of(P, vec(0, 1)), idx_of(P, vec(0, 3))]) == vec(-1, 0)
    everything = list(range(len(P.points)))
    assert smallest_face_containing(P, everything) == (tuple(everything), False)
    assert face_exposing_normal(P, everything) == vec(0, 0)
    Q = build_polytope(STRIP_PAIR.support)
    assert face_of(Q, [vec(0, 1), vec(4, 1)]) == {vec(0, 1), vec(1, 1), vec(4, 1)}
    assert face_exposing_normal(Q, [idx_of(Q, vec(0, 1)), idx_of(Q, vec(4, 1))]) == vec(0, 1)


def test_is_vertex_examples():
    P = build_polytope(TEN_TERM.support)
    assert idx_of(P, vec(0, 2)) not in P.vertices
    assert idx_of(P, vec(3, 2)) in P.vertices
    single = build_polytope([vec(5, 5)])
    assert 0 in single.vertices


def is_edge(P, i, j):
    """The segment is a face: its smallest face has exactly these vertices."""
    return set(smallest_face_containing(P, [i, j])[0]) & P.vertices == {i, j}


def test_is_edge_examples():
    C = build_polytope(CUBE3.support)
    assert is_edge(C, idx_of(C, vec(0, 0, 0)), idx_of(C, vec(0, 0, 1)))
    P = build_polytope(TEN_TERM.support)
    assert is_edge(P, idx_of(P, vec(0, 0)), idx_of(P, vec(0, 4)))
    assert not is_edge(P, idx_of(P, vec(2, 0)), idx_of(P, vec(0, 4)))
    # the edge also holds (0,1), (0,2) and (0,3)
    assert face_of(P, [vec(0, 0), vec(0, 4)]) == {vec(0, k) for k in range(5)}


def test_smallest_face_lower_restriction():
    P = build_polytope(TEN_TERM_LOWER.support)
    neg = set(negatives(TEN_TERM_LOWER))
    neg_idx = [i for i, p in enumerate(P.points) if p in neg]
    face, proper = smallest_face_containing(P, neg_idx)
    assert proper
    assert {P.points[i] for i in face} == {
        vec(0, 0), vec(0, 1), vec(0, 2), vec(0, 3), vec(0, 4)
    }


def test_smallest_face_whole_polytope():
    P = build_polytope(TEN_TERM.support)
    face, proper = smallest_face_containing(P, list(range(len(P.points))))
    assert not proper
    assert face == tuple(range(len(P.points)))


def test_smallest_face_cube4_negatives():
    P = build_polytope(CUBE4.support)
    neg = set(negatives(CUBE4))
    neg_idx = [i for i, p in enumerate(P.points) if p in neg]
    face, proper = smallest_face_containing(P, neg_idx)
    assert proper
    embedded_cube = {mu for mu in CUBE4.support if mu[3] == 0}
    assert {P.points[i] for i in face} == embedded_cube
    assert face_exposing_normal(P, neg_idx) == vec(0, 0, 0, -1)


def test_parallel_face_pairs_cube_and_strip():
    C = build_polytope(CUBE3.support)
    pairs = parallel_face_pairs(C, tuple(range(len(C.points))))
    assert vec(0, 0, 1) in pairs
    assert pairs == sorted(pairs)
    Q = build_polytope(STRIP_PAIR.support)
    assert parallel_face_pairs(Q, tuple(range(len(Q.points)))) == [vec(0, 1)]


def test_parallel_face_pairs_triangle():
    # every facet normal of a triangle pairs the opposite vertex with its edge,
    # so all three qualify under the two-value test
    P = build_polytope([vec(0, 0), vec(1, 0), vec(0, 1)])
    pairs = parallel_face_pairs(P, (0, 1, 2))
    assert pairs == [vec(0, 1), vec(1, 0), vec(1, 1)]


def test_parallel_face_pairs_partial_support():
    # support on one edge only: the edge normal sees a single scalar value
    # and does not qualify, the other two normals still do
    P = build_polytope([vec(0, 0), vec(1, 0), vec(0, 1)])
    pairs = parallel_face_pairs(P, (0, 1))
    assert pairs == [vec(1, 0), vec(1, 1)]


def test_facet_soundness_and_duality():
    for f in (TEN_TERM, CUBE3, CUBE4, STRIP_PAIR):
        P = build_polytope(f.support)
        d = P.dim
        for facet in P.facets:
            h = facet.halfspace
            values = [dot(h.normal, p) for p in P.points]
            assert all(v <= h.offset for v in values)
            incident_pts = [P.points[i] for i in facet.incident]
            assert affine_rank(incident_pts) == d - 1
        # vertex/facet duality
        for i in range(len(P.points)):
            normals = [f.halfspace.normal for f in P.facets if i in f.incident]
            dual_vertex = len(normals) >= d and rank(normals) == d
            assert dual_vertex == (i in P.vertices)


def test_face_in_direction_of_facet_normal_gives_incident_set():
    P = build_polytope(TEN_TERM.support)
    for facet in P.facets:
        face, proper = smallest_face_containing(P, sorted(facet.incident))
        assert proper and set(face) == set(facet.incident)
        assert face_exposing_normal(P, sorted(facet.incident)) == facet.halfspace.normal


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
        P = build_polytope(pts)
        assert polytope_facets_in_hull_coords(P) == brute_force_facets(pts)


def test_is_edge_implies_vertices():
    rng = random.Random(7)
    for _ in range(10):
        pts = _random_points(rng)
        if len(pts) < 2:
            continue
        P = build_polytope(pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if is_edge(P, i, j):
                    assert i in P.vertices and j in P.vertices


def test_facet_budget():
    with pytest.raises(FacetBudgetExceededError):
        build_polytope(CUBE3.support, facet_budget=3)


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        build_polytope([vec(0, 0), vec(0, 0)])


# --- incidences against the LP definitions ------------------------------------


def lp_exposes(points, face, others):
    """Some functional is constant on ``face`` and exceeds it by at least one
    on every point of ``others`` (exact LP)."""
    first = points[face[0]]
    rows = [(vsub(first, points[k]), 0, "=") for k in face[1:]]
    rows += [(vsub(first, points[k]), 1, ">=") for k in others]
    return lp.feasible(lp.LinearSystem.build(len(first), rows)).is_feasible


@given(point_sets())
# during insertion two facets share three points but no ridge
@example(sorted(vec(*p) for p in [(0, 0, 2, 2), (0, 1, 0, 2), (0, 2, 2, 0), (1, 0, 0, 0),
                                  (1, 0, 1, 0), (1, 1, 0, 1), (1, 2, 0, 2), (2, 2, 2, 0)]))
@settings(deadline=None, max_examples=40)
def test_incidences_match_lp_definitions(pts):
    P = build_polytope(pts)
    assert polytope_facets_in_hull_coords(P) == brute_force_facets(pts)
    everything = range(len(pts))
    for f in P.facets:
        h = f.halfspace
        assert f.incident == {i for i in everything if dot(h.normal, pts[i]) == h.offset}
    vertices = {i for i in everything if lp_exposes(pts, [i], [k for k in everything if k != i])}
    assert P.vertices == vertices
    for i in everything:
        for j in range(i + 1, len(pts)):
            others = [k for k in everything if k not in (i, j)]
            face = smallest_face_containing(P, [i, j])[0]
            # the segment is a face holding no other point
            assert (face == (i, j)) == lp_exposes(pts, [i, j], others)
            # the segment is a face holding no other vertex
            assert is_edge(P, i, j) == (
                {i, j} <= vertices
                and lp_exposes(pts, [i, j], [k for k in others if k in vertices])
            )
            u = face_exposing_normal(P, [i, j])
            top = max(dot(u, p) for p in pts)
            assert {k for k in everything if dot(u, pts[k]) == top} == set(face)
