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

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Optional, Sequence, Tuple

from . import lp
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
    SeparatingWitness,
    _face_split,
    _splits,
    criterion_outcome,
    frame_values,
    verify_certificate,
    verify_enclosing_pair,
)
from .criteria import (
    check_connectivity,
    closure_property,
    find_strict_separating_hyperplane,
    hull_indices,
    negative_vertex_functional,
)
from .linalg import Vector, vector
from .polytope import (
    FacetBudgetExceededError,
    Polytope,
    build_polytope,
    face_exposing_normal,
    lazy_hull,
    parallel_face_pairs,
    smallest_face_containing,
)
from .signomial import Signomial, negatives, positives, restrict_indices


class NotEnclosingError(ValueError):
    """The supplied (v, a, b) is not an enclosing pair for the signomial."""


def certify_connectivity(f: Signomial, config: Optional[CertifyConfig] = None) -> Certificate:
    """Run the recursive certification on f and return the certificate trace."""
    config = config or CertifyConfig()
    return _certify(f, config, depth=1)


def _certify(
    f: Signomial,
    config: CertifyConfig,
    depth: int,
    newton: Optional[Callable[[], Polytope]] = None,
    separating: Optional[Callable[[], Optional[SeparatingWitness]]] = None,
) -> Certificate:
    """The certificate of one node; ``newton`` returns N(f) and
    ``separating`` the strict separating hyperplane search's result when the
    caller shares them.  Faces are found by term index on the hull and on f's
    lattice frame, and children are restricted by index."""
    if depth > config.max_depth:
        return Certificate(
            KIND_INCONCLUSIVE, INCONCLUSIVE, reason=f"recursion depth exceeded {config.max_depth}"
        )
    neg_idx = f.negative_indices
    if not neg_idx:
        return Certificate(KIND_EMPTY, CERTIFIED_EMPTY)

    newton = newton or lazy_hull(lambda: build_polytope(f.support, config.facet_budget))
    crit = check_connectivity(f, config, newton, separating)
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


def side_restrictions(f: Signomial, v: Sequence, a, b) -> Tuple[Signomial, Signomial]:
    """Restrictions to the two sides of an enclosing pair: negatives on or
    above the upper hyperplane plus all positives, and symmetrically below."""
    if not verify_enclosing_pair(f, v, a, b, strict=False):
        raise NotEnclosingError("(v, a, b) is not an enclosing pair for this signomial")
    values, (a, b) = frame_values(f, v, a, b)
    pos = list(f.positive_indices)
    upper = [i for i in f.negative_indices if values[i] >= a] + pos
    lower = [i for i in f.negative_indices if values[i] <= b] + pos
    return restrict_indices(f, sorted(upper)), restrict_indices(f, sorted(lower))


@dataclass(frozen=True)
class IntersectionEvidence:
    kind: str  # "negative-edge" | "segment-witness"
    beta1: Vector
    beta2: Vector


@dataclass(frozen=True)
class BoundReport:
    bound: Optional[int]  # None when unknown
    method: str  # "graph-parallel" | "graph-ab" | "sum"
    edges: Tuple[IntersectionEvidence, ...] = ()
    reason: Optional[str] = None
    children: Tuple[Certificate, ...] = ()


def upper_bound(
    f: Signomial,
    v: Sequence,
    config: Optional[CertifyConfig] = None,
    enclosing: Optional[Tuple] = None,
) -> BoundReport:
    """Component-count bound from a two-vertex intersection graph.

    With ``enclosing=(a, b)`` the children are the side restrictions of the
    enclosing pair and an edge is a segment witness between their negative
    supports; otherwise the support must split across the parallel faces of v
    and an edge is a negative-negative polytope edge.  Children must
    certify at most one component each (otherwise the bound is unknown);
    any intersection evidence shows both children's regions are nonempty
    and meet, so the bound drops to one.  Without it the bound is the sum,
    two.
    """
    config = config or CertifyConfig()
    vv = vector(v)
    if enclosing is not None:
        method = "graph-ab"
        a, b = enclosing
        fa, fb = side_restrictions(f, vv, a, b)
    else:
        faces = _face_split(f, vv)
        if _splits(f, faces):
            method = "graph-parallel"
            fa, fb = (restrict_indices(f, face) for face in faces)
        elif config.enable_enclosing_search:
            # derive the tightest enclosing offsets along v
            method = "graph-ab"
            if not f.positive_indices:
                raise ValueError("enclosing offsets need positive exponents")
            values, (unit,) = frame_values(f, vv, 1)
            pos_values = [values[i] for i in f.positive_indices]
            a, b = Fraction(max(pos_values), unit), Fraction(min(pos_values), unit)
            fa, fb = side_restrictions(f, vv, a, b)
        else:
            raise ValueError(
                "support does not split across the faces of v and -v; supply"
                " enclosing offsets or enable the enclosing search"
            )

    cert_a = _certify(fa, config, depth=1)
    cert_b = _certify(fb, config, depth=1)
    children = (cert_a, cert_b)
    for cert in children:
        if cert.outcome not in CERTIFIED_OUTCOMES:
            return BoundReport(
                None, method, reason="a child restriction is not certified", children=children
            )
    nonempty_children = [c for c in children if c.outcome != CERTIFIED_EMPTY]
    if len(nonempty_children) < 2:
        return BoundReport(max(1, len(nonempty_children)), "sum", children=children)

    evidence: Optional[IntersectionEvidence] = None
    if method == "graph-parallel":
        try:
            edge = intersection_nonempty(f, vv, build_polytope(f.support, config.facet_budget))
        except FacetBudgetExceededError:
            edge = None  # no negative-edge evidence: a weaker bound, never a wrong one
        if edge is not None:
            evidence = IntersectionEvidence("negative-edge", edge.beta1, edge.beta2)
    else:
        pos_union = sorted(set(positives(fa)) | set(positives(fb)))
        for beta1 in sorted(negatives(fa)):
            for beta2 in sorted(negatives(fb)):
                if pos_union and lp.separate_segment_from_hull(beta1, beta2, pos_union).is_feasible:
                    evidence = IntersectionEvidence("segment-witness", beta1, beta2)
                    break
            if evidence:
                break

    if evidence is not None:
        return BoundReport(1, method, (evidence,), children=children)
    return BoundReport(2, "sum", children=children)


def certify_and_check_closure(
    f: Signomial, config: Optional[CertifyConfig] = None
) -> Tuple[Certificate, bool]:
    """Certificate plus the closure-property verdict, the pair consumed by the
    steady-state-region application."""
    config = config or CertifyConfig()
    newton = lazy_hull(lambda: build_polytope(f.support, config.facet_budget))
    separating = cache(lambda: find_strict_separating_hyperplane(f))
    cert = _certify(f, config, 1, newton, separating)
    return cert, closure_property(f, config.facet_budget, newton, separating)
