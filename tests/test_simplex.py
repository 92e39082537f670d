"""The simplex halfspaces from one fraction-free inverse against the
per-facet echelon eliminations of ``simplex_oracle``, and the work a hull
build spends on its echelon form."""

import random
from fractions import Fraction

import pytest

from descregions.check import DegenerateSimplexError, simplex_halfspaces
from descregions.linalg import _Echelon, lattice
from descregions.polytope import build_polytope

import simplex_oracle
from fixtures import CUBE3, CUBE4, WIDE16, vec

F = Fraction


def outcome(derive, vertices):
    """The halfspace tuple, or the degenerate-simplex error."""
    try:
        return derive(vertices)
    except DegenerateSimplexError:
        return DegenerateSimplexError


def assert_alike(vertices):
    """The int halfspaces of the vertices' lattice frame against the oracle's
    on the vertices themselves: the same normals, and int offsets L times
    the rational ones."""
    scale, rows = lattice(vertices)
    new, old = outcome(simplex_halfspaces, rows), outcome(simplex_oracle.simplex_halfspaces, vertices)
    if DegenerateSimplexError in (new, old):
        assert new is old
    else:
        assert new == tuple((v, scale * a) for v, a in old)
        assert all(type(a) is int for _, a in new)
    return new


def random_simplex(rng, n, rational):
    def coord():
        if rational:
            return F(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 7, 12)))
        return F(rng.randint(-6, 6))
    return [tuple(coord() for _ in range(n)) for _ in range(n + 1)]


@pytest.mark.parametrize("n, count", [(1, 60), (2, 120), (3, 120), (4, 100), (5, 80), (6, 60), (16, 12)])
@pytest.mark.parametrize("rational", [False, True], ids=["int", "rational"])
def test_one_inverse_matches_the_per_facet_eliminations(n, count, rational):
    rng = random.Random(1000 * n + rational)
    degenerate = 0
    for _ in range(count):
        vertices = random_simplex(rng, n, rational)
        degenerate += assert_alike(vertices) is DegenerateSimplexError
    # small integer coordinates in low dimensions give some singular draws
    assert degenerate < count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 16])
def test_degenerate_sets_raise_in_both(n):
    rng = random.Random(n)
    for _ in range(10):
        vertices = random_simplex(rng, n, rational=rng.random() < 0.5)
        i, j = rng.sample(range(n + 1), 2)
        repeated = list(vertices)
        repeated[j] = vertices[i]
        cases = [repeated, vertices[:-1], vertices + [vertices[0]]]
        if n >= 2:
            # a third vertex on the line through two others; for n = 2 the
            # points are collinear, for n = 3 coplanar
            t = F(rng.randint(-4, 4), rng.randint(1, 4))
            dependent = list(vertices)
            dependent[2] = tuple(a + t * (b - a) for a, b in zip(vertices[0], vertices[1]))
            cases.append(dependent)
        if n >= 3:
            # a fourth vertex on the plane of the first three
            s, t = F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 3)
            coplanar = list(vertices)
            coplanar[3] = tuple(a + s * (b - a) + t * (c - a) for a, b, c in zip(*vertices[:3]))
            cases.append(coplanar)
        for case in cases:
            assert assert_alike(case) is DegenerateSimplexError


def test_named_degenerate_sets():
    for vertices in (
        (vec(0, 0), vec(1, 1), vec(2, 2)),  # collinear
        (vec(0, 0), vec(1, 2), vec(0, 0)),  # a repeated vertex
        (vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0), vec(1, 1, 0)),  # coplanar
        (vec(0, 0), vec(1, 0)),  # too few vertices
        (vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1)),  # too many
    ):
        with pytest.raises(DegenerateSimplexError):
            simplex_halfspaces(lattice(vertices)[1])
        assert assert_alike(vertices) is DegenerateSimplexError


def test_standard_simplex_halfspaces():
    # the facet opposite 0 is sum(x) <= 1, the one opposite e_j is -x_j <= 0
    n = 16
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    derived = assert_alike([(0,) * n] + unit)
    assert derived[0] == ((1,) * n, 1)
    assert derived[1:] == tuple((tuple(-a for a in e), 0) for e in unit)


@pytest.fixture
def echelon_work(monkeypatch):
    """The number of echelon forms started and of vectors inserted while
    the test runs."""
    counts = {"affine": 0, "add": 0}
    affine, add = _Echelon.affine.__func__, _Echelon.add

    def counted_affine(cls, points):
        counts["affine"] += 1
        return affine(cls, points)

    def counted_add(self, v):
        counts["add"] += 1
        return add(self, v)

    monkeypatch.setattr(_Echelon, "affine", classmethod(counted_affine))
    monkeypatch.setattr(_Echelon, "add", counted_add)
    return counts


# WIDE16 once took 307 insertions: one echelon for the affine hull, another
# for the starting simplex, and n + 2 for each simplex derivation.
@pytest.mark.parametrize("f", [WIDE16, CUBE3, CUBE4], ids=["WIDE16", "CUBE3", "CUBE4"])
def test_a_hull_runs_one_echelon(f, echelon_work):
    P = build_polytope(f.frame)
    assert P.facets
    assert echelon_work["affine"] == 1
    assert echelon_work["add"] <= len(f.support)
