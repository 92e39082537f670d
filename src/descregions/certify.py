"""Recursive connectivity certification.

The driver mirrors the recursive strategy exactly: try the single-shot
criteria; if all negative exponents lie on a proper face of the Newton
polytope, recurse on the restriction to that face (the component count is
preserved); otherwise scan facet normals for a pair of opposite parallel
faces covering the whole support, and when a polytope edge joins two negative
exponents across the pair, certify both face restrictions and combine.

Every emitted certificate is a replayable trace: all witnesses are exact and
``check.verify_certificate`` re-checks them from scratch without re-running
any search.  Children certified "at most one" are upgraded to "exactly one"
before a parallel split is emitted, witnessed by a negative exponent at a
vertex of the child's Newton polytope (the restriction is then negative far
along the exposing direction, so its negative region is nonempty).

The search runs on each signomial's integer lattice frame: the hull is
built on the frame rows, so its point indices are term indices.  Each face
question is one query on that hull, which gives the faces (split as replay
splits them) with their int normals; children are restricted by index, and
witness points leave as ``Signomial.exponent``.  Only the root's hull is
built from its points; a child's is read off its parent's facets
(``polytope.face_polytope``) when the child first needs it, so a run
builds at most one hull and the facet budget bounds that one.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from .check import (  # noqa: F401 -- CERTIFIED_AT_MOST_ONE and verify_certificate stay reachable here
    CERTIFIED_AT_MOST_ONE,
    CERTIFIED_EMPTY,
    CERTIFIED_EXACTLY_ONE,
    CERTIFIED_OUTCOMES,
    INCONCLUSIVE,
    KIND_CRITERION,
    KIND_EMPTY,
    KIND_INCONCLUSIVE,
    KIND_NEGATIVE_FACE,
    KIND_PARALLEL_SPLIT,
    Certificate,
    CertifyConfig,
    EdgeWitness,
    NonemptyWitness,
    criterion_outcome,
    verify_certificate,
)
from .criteria import check_connectivity, negative_vertex_functional
from .polytope import Polytope, build_polytope, face_polytope, lazy_hull, parallel_face_pairs, smallest_face_containing
from .signomial import Signomial, restrict_indices


def certify_connectivity(f: Signomial, config: Optional[CertifyConfig] = None) -> Certificate:
    """Run the recursive certification on f and return the certificate trace."""
    config = config or CertifyConfig()
    return _certify(f, lazy_hull(lambda: build_polytope(f.frame, config.facet_budget)), config, 1)


def _face(f: Signomial, P: Polytope, face: Sequence[int]) -> Tuple[Signomial, Callable[[], Polytope]]:
    """f restricted to the face of its Newton polytope P at the term indices
    ``face``, with the face's hull, read off P when first asked for."""
    g = restrict_indices(f, face)
    return g, lazy_hull(lambda: face_polytope(P, face, g.frame))


def _certify(
    f: Signomial,
    newton: Callable[[], Optional[Polytope]],
    config: CertifyConfig,
    depth: int,
    inseparable: bool = False,
) -> Certificate:
    """The certificate of one node.  ``newton`` returns N(f), built when the
    simplex search or the face scan first needs it: only the root's is built
    from its points, and each child's is read off its parent's; faces are
    found by term index on the hull and on f's lattice frame, and children
    are restricted by index.  Past the depth or facet budget the node is
    Inconclusive.

    A node reaches its negative face only once ``check_connectivity`` has
    declined, so f has no strict separating hyperplane, and neither has the
    child (``inseparable``).  Over the negatives and positives of f, that
    declined search's dual is a point with positive weight on every negative
    that is also a convex combination of positives.  It lies in the face,
    which holds every negative, so the positives it uses lie there too, and
    the same point refutes every strict separating hyperplane of the child."""
    if depth > config.max_depth:
        return Certificate(
            KIND_INCONCLUSIVE, INCONCLUSIVE, reason=f"recursion depth exceeded {config.max_depth}"
        )
    neg_idx = f.negative_indices
    if not neg_idx:
        return Certificate(KIND_EMPTY, CERTIFIED_EMPTY)

    crit = check_connectivity(f, config, newton, inseparable)
    if crit is not None:
        return Certificate(KIND_CRITERION, criterion_outcome(crit), criterion=crit)

    P = newton()
    if P is None:
        return Certificate(
            KIND_INCONCLUSIVE, INCONCLUSIVE, reason=f"facet count exceeded budget of {config.facet_budget}"
        )

    # P is built from f.frame, so its point indices are f's term indices
    face_idx, normal = smallest_face_containing(P, neg_idx)
    if any(normal):
        child = _certify(*_face(f, P, face_idx), config, depth + 1, inseparable=True)
        return Certificate(
            KIND_NEGATIVE_FACE,
            child.outcome,
            normal=normal,
            face=tuple(map(f.exponent, face_idx)),
            children=(child,),
        )

    for v, face1, face2 in parallel_face_pairs(P):
        edge = intersection_nonempty(f, P, face1, face2)
        if edge is None:
            continue
        (f1, newton1), (f2, newton2) = _face(f, P, face1), _face(f, P, face2)
        child1 = _certify(f1, newton1, config, depth + 1)
        if child1.outcome not in CERTIFIED_OUTCOMES:
            continue
        child2 = _certify(f2, newton2, config, depth + 1)
        if child2.outcome not in CERTIFIED_OUTCOMES:
            continue
        # each edge end is a negative vertex of P on its own face, so both are found
        w1 = negative_vertex_functional(f1, P, face1)
        w2 = negative_vertex_functional(f2, P, face2)
        return Certificate(
            KIND_PARALLEL_SPLIT,
            CERTIFIED_EXACTLY_ONE,
            normal=v,
            edge=edge,
            child_nonempty=(NonemptyWitness(*w1), NonemptyWitness(*w2)),
            children=(child1, child2),
        )

    return Certificate(
        KIND_INCONCLUSIVE,
        INCONCLUSIVE,
        reason="no criterion applies, no proper negative face, no certified parallel split"
        " (facet-normal scan only)",
    )


def intersection_nonempty(
    f: Signomial, P: Polytope, top: Sequence[int], bottom: Sequence[int]
) -> Optional[EdgeWitness]:
    """First pair of negative exponents on the two faces ``top`` and
    ``bottom`` of a parallel split of the Newton polytope ``P``, built on f's
    frame (so its point indices are f's term indices), joined by an edge.

    A pair is an edge when its smallest face holds no other support point;
    the functional is that face's exposing normal, which exposes it strictly
    against every other support point (zero when the edge is the whole hull).
    """
    neg = set(f.negative_indices)
    top, bottom = ([i for i in face if i in neg] for face in (top, bottom))
    for i in top:
        for j in bottom:
            pair = sorted((i, j))
            face, normal = smallest_face_containing(P, pair)
            if list(face) == pair:
                return EdgeWitness(f.exponent(i), f.exponent(j), normal)
    return None
