"""The beneath-beyond insertion loop that ``polytope._incremental_facets``
replaced, frozen as a differential oracle for the tests (like
``eager_inverse_oracle`` for the simplex inverse).

Each insertion pairs every visible facet with every hidden one and tests
each pair's common points for a ridge by scanning every facet; the package
keeps each facet's neighbours across its ridges and tests only the facets
through the new point.  The tests ask both for the same facets, the same
incidences and the same None answers past a budget.
"""

from descregions.check import simplex_halfspaces
from descregions.linalg import dot, primitive_int


def incremental_facets(hp, init, budget):
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

    facets = [
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
