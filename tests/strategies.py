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
def signed_supports(draw):
    """A signomial with +1/-1 coefficients in 2 to 4 variables, with one to
    four positive and up to four negative exponents.  Half of the draws put
    the first negative exponent in sorted order at the midpoint of two
    positive ones, so it cannot be strictly separated and the search has to
    go on past it."""
    n = draw(st.integers(2, 4))
    point = st.tuples(*[COORD] * n)
    pos = draw(st.lists(point, min_size=1, max_size=4))
    neg = draw(st.lists(point, min_size=2, max_size=4))
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
