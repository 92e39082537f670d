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

The search runs on each signomial's integer lattice frame: negatives are
term indices, the hull's point indices are term indices, the two faces of
a parallel split are read off the frame rows by the face split that replay
uses too, and children are restricted by index.  Witnesses leave as the
signomial's own Fraction exponents.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    _face_split,
    _splits,
    criterion_outcome,
    verify_certificate,
)
from .criteria import check_connectivity, hull_indices, negative_vertex_functional
from .polytope import (
    FacetBudgetExceededError,
    Polytope,
    build_polytope,
    face_exposing_normal,
    lazy_hull,
    parallel_face_pairs,
    smallest_face_containing,
)
from .signomial import Signomial, restrict_indices


def certify_connectivity(f: Signomial, config: Optional[CertifyConfig] = None) -> Certificate:
    """Run the recursive certification on f and return the certificate trace."""
    config = config or CertifyConfig()
    return _certify(f, config, depth=1)


def _certify(f: Signomial, config: CertifyConfig, depth: int) -> Certificate:
    """The certificate of one node.  N(f) is built at most once, when the
    simplex search or the face scan first needs it; faces are found by term
    index on the hull and on f's lattice frame, and children are restricted
    by index."""
    if depth > config.max_depth:
        return Certificate(
            KIND_INCONCLUSIVE, INCONCLUSIVE, reason=f"recursion depth exceeded {config.max_depth}"
        )
    neg_idx = f.negative_indices
    if not neg_idx:
        return Certificate(KIND_EMPTY, CERTIFIED_EMPTY)

    newton = lazy_hull(lambda: build_polytope(f.support, config.facet_budget))
    crit = check_connectivity(f, config, newton)
    if crit is not None:
        return Certificate(KIND_CRITERION, criterion_outcome(crit), criterion=crit)

    try:
        P = newton()
    except FacetBudgetExceededError as exc:
        return Certificate(KIND_INCONCLUSIVE, INCONCLUSIVE, reason=str(exc))

    # P is built from f.support, so its point indices are f's term indices
    face_idx, proper = smallest_face_containing(P, neg_idx)
    if proper:
        normal = face_exposing_normal(P, neg_idx)
        child = _certify(restrict_indices(f, face_idx), config, depth + 1)
        return Certificate(
            KIND_NEGATIVE_FACE,
            child.outcome,
            normal=normal,
            face=tuple(f.support[i] for i in face_idx),
            children=(child,),
        )

    if P.dim >= 1:
        all_idx = tuple(range(len(P.points)))
        for v in parallel_face_pairs(P, all_idx):
            edge = intersection_nonempty(f, v, P)
            if edge is None:
                continue
            face1, face2 = _face_split(f, v)
            f1, f2 = restrict_indices(f, face1), restrict_indices(f, face2)
            child1 = _certify(f1, config, depth + 1)
            child2 = _certify(f2, config, depth + 1)
            if child1.outcome not in CERTIFIED_OUTCOMES or child2.outcome not in CERTIFIED_OUTCOMES:
                continue
            w1 = negative_vertex_functional(f1, P, face1)
            w2 = negative_vertex_functional(f2, P, face2)
            if w1 is None or w2 is None:  # cannot hold: the edge ends are such vertices
                continue
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
    f: Signomial, v: Sequence, P: Optional[Polytope] = None
) -> Optional[EdgeWitness]:
    """First pair of negative exponents on the two opposite faces in direction
    v joined by an edge of the Newton polytope ``P`` (built when not given).

    Requires the support to lie on the two faces.  A pair is an edge when its
    smallest face holds no other support point; the functional is the sum of
    the normals of the facets through the edge, which exposes it strictly
    against every other support point (zero when the edge is the whole hull).
    """
    faces = _face_split(f, v)
    if not _splits(f, faces):
        raise ValueError("support does not split across the faces of v and -v")
    if P is None:
        P = build_polytope(f.support)
    index = hull_indices(P, f)
    neg = set(f.negative_indices)
    top, bottom = ([i for i in face if i in neg] for face in faces)
    for i in top:
        for j in bottom:
            pair = sorted((index[i], index[j]))
            if list(smallest_face_containing(P, pair)[0]) == pair:
                return EdgeWitness(f.support[i], f.support[j], face_exposing_normal(P, pair))
    return None
