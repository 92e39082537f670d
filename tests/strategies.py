"""Hypothesis strategies for small exact point sets and signed supports."""

from fractions import Fraction

from hypothesis import assume, strategies as st

from descregions.signomial import Signomial

COORD = st.integers(-3, 3)


@st.composite
def point_sets(draw, max_size=7):
    """Distinct integer points in 2 to 4 dimensions, sorted.  Besides general
    sets, draws single points, collinear sets and sets on a coordinate
    hyperplane, whose hulls are lower-dimensional, and subsets of the lattice
    {0,1,2}^n, with many coplanar points and non-simplicial facets."""
    n = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(("general", "general", "hyperplane", "collinear", "single", "lattice")))
    if shape == "single":
        pts = {tuple(draw(COORD) for _ in range(n))}
    elif shape == "lattice":
        cell = st.tuples(*[st.integers(0, 2)] * n)
        pts = set(draw(st.lists(cell, min_size=4, max_size=12, unique=True)))
    elif shape == "collinear":
        base = [draw(COORD) for _ in range(n)]
        step = [draw(st.integers(-2, 2)) for _ in range(n)]
        assume(any(step))
        ts = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=max_size, unique=True))
        pts = {tuple(b + t * s for b, s in zip(base, step)) for t in ts}
    else:
        pts = set(draw(st.lists(st.tuples(*[COORD] * n), min_size=3, max_size=max_size)))
        if shape == "hyperplane":
            k = draw(st.integers(0, n - 1))
            pts = {p[:k] + (0,) + p[k + 1:] for p in pts}
    return sorted(tuple(Fraction(c) for c in p) for p in pts)


@st.composite
def signed_supports(draw, max_dimension=4, negatives=(2, 4)):
    """A signomial with +1/-1 coefficients in 2 to ``max_dimension`` variables
    (4 by default), with one to four positive exponents and between the
    bounds of ``negatives`` negative ones drawn (2 to 4 by default; a draw
    that repeats an exponent or meets a positive one loses it).  Half of the
    draws put one more negative exponent, first in sorted order, at the
    midpoint of two positive ones, so it cannot be strictly separated and
    the search has to go on past it."""
    n = draw(st.integers(2, max_dimension))
    point = st.tuples(*[COORD] * n)
    pos = draw(st.lists(point, min_size=1, max_size=4))
    neg = draw(st.lists(point, min_size=negatives[0], max_size=negatives[1]))
    hidden = None
    if draw(st.booleans()):
        a = draw(st.tuples(*[COORD] * (n - 1)))
        b = draw(st.tuples(*[st.integers(-1, 1)] * (n - 1)))
        pos += [(0,) + tuple(x - y for x, y in zip(a, b)), (2,) + tuple(x + y for x, y in zip(a, b))]
        neg = [(max(c[0], 2),) + c[1:] for c in neg]
        hidden = (1,) + a
    terms = {p: 1 for p in pos}
    for p in neg:
        terms.setdefault(p, -1)
    if hidden is not None:
        terms[hidden] = -1
    return Signomial.from_terms(n, [(c, tuple(Fraction(x) for x in p)) for p, c in terms.items()])


@st.composite
def rational_point_sets(draw, max_size=7):
    """``point_sets`` with each coordinate divided by its own denominator
    from {1, 2, 3, 4, 6, 12}.  A diagonal scaling keeps every affine
    dependence, so the flat, collinear and lattice shapes stay."""
    pts = draw(point_sets(max_size))
    dens = [draw(st.sampled_from((1, 2, 3, 4, 6, 12))) for _ in pts[0]]
    return sorted(tuple(a / d for a, d in zip(p, dens)) for p in pts)


@st.composite
def rational_signed_supports(draw, max_dimension=4):
    """``signed_supports`` with each exponent coordinate divided by its own
    denominator from {1, 2, 3, 4, 6, 12}, so the lattice frame's scale is
    often above one.  A positive diagonal scaling keeps every sign, face and
    the sorted order."""
    f = draw(signed_supports(max_dimension))
    dens = [draw(st.sampled_from((1, 2, 3, 4, 6, 12))) for _ in range(f.dimension)]
    return Signomial.from_terms(
        f.dimension, [(t.coefficient, tuple(a / d for a, d in zip(t.exponent, dens))) for t in f.terms]
    )
