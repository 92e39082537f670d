"""Recursive connectivity certification.

The driver mirrors the recursive strategy exactly: try the single-shot
criteria; if all negative exponents lie on a proper face of the Newton
polytope, recurse on the restriction to that face (the component count is
preserved); otherwise scan facet normals for a pair of opposite parallel
faces covering the whole support, and when a polytope edge joins two negative
exponents across the pair, certify both face restrictions and combine.

Every emitted certificate is a replayable trace: all witnesses are exact and
``verify_certificate`` re-checks them from scratch without re-running any
search.  Children certified "at most one" are upgraded to "exactly one"
before a parallel split is emitted, witnessed by a negative exponent at a
vertex of the child's Newton polytope (the restriction is then negative far
along the exposing direction, so its negative region is nonempty).

The search runs on each signomial's integer lattice frame: negatives are
term indices, the hull's point indices are term indices, the two faces of
a parallel split are read off the frame rows, and children are restricted
by index.  Witnesses leave as the signomial's own Fraction exponents.
Replay keeps its own Fraction reading of faces and restrictions
(``_parallel_faces``, ``restrict``) rather than the search's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, List, Optional, Sequence, Tuple

from . import lp
from .criteria import (
    NO_NEGATIVE_TERMS,
    CertifyConfig,
    CriterionCertificate,
    SeparatingWitness,
    negative_vertex_functional,
    check_connectivity,
    closure_property,
    find_strict_separating_hyperplane,
    hull_indices,
    verify_criterion,
    verify_enclosing_pair,
)
from .linalg import Vector, dot, is_zero, lattice, vector
from .polytope import (
    FacetBudgetExceededError,
    Polytope,
    build_polytope,
    face_exposing_normal,
    lazy_hull,
    parallel_face_pairs,
    smallest_face_containing,
)
from .signomial import Signomial, negatives, positives, restrict, restrict_indices

CERTIFIED_EMPTY = "CertifiedEmpty"
CERTIFIED_AT_MOST_ONE = "CertifiedAtMostOne"
CERTIFIED_EXACTLY_ONE = "CertifiedExactlyOne"
INCONCLUSIVE = "Inconclusive"

CERTIFIED_OUTCOMES = (CERTIFIED_EMPTY, CERTIFIED_AT_MOST_ONE, CERTIFIED_EXACTLY_ONE)

KIND_CRITERION = "criterion"
KIND_NEGATIVE_FACE = "negative-face-reduction"
KIND_PARALLEL_SPLIT = "parallel-split"
KIND_EMPTY = "empty"
KIND_INCONCLUSIVE = "inconclusive"


class NotEnclosingError(ValueError):
    """The supplied (v, a, b) is not an enclosing pair for the signomial."""


@dataclass(frozen=True)
class NonemptyWitness:
    """A negative exponent at a vertex of the Newton polytope with an exposing
    functional; proves the negative region is nonempty."""

    point: Vector
    functional: Vector


@dataclass(frozen=True)
class EdgeWitness:
    """Two negative exponents joined by an edge of the Newton polytope, with
    the functional exposing exactly that edge."""

    beta1: Vector
    beta2: Vector
    functional: Vector


@dataclass(frozen=True)
class Certificate:
    kind: str
    outcome: str
    criterion: Optional[CriterionCertificate] = None
    normal: Optional[Vector] = None
    face: Optional[Tuple[Vector, ...]] = None
    edge: Optional[EdgeWitness] = None
    child_nonempty: Optional[Tuple[NonemptyWitness, NonemptyWitness]] = None
    children: Tuple["Certificate", ...] = ()
    reason: Optional[str] = None


def criterion_outcome(cert: CriterionCertificate) -> str:
    if cert.kind == NO_NEGATIVE_TERMS:
        return CERTIFIED_EMPTY
    return CERTIFIED_EXACTLY_ONE if cert.nonempty else CERTIFIED_AT_MOST_ONE


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


def _parallel_faces(f: Signomial, v: Vector) -> Tuple[Tuple[Vector, ...], Tuple[Vector, ...]]:
    """The exponents on the faces in directions v and -v, in exact
    rationals: replay's own reading of a recorded normal."""
    values = [(dot(v, mu), mu) for mu in f.support]
    top = max(val for val, _ in values)
    bot = min(val for val, _ in values)
    face_v = tuple(mu for val, mu in values if val == top)
    face_mv = tuple(mu for val, mu in values if val == bot)
    return face_v, face_mv


def _face_split(f: Signomial, v: Sequence) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Indices of f's terms on the faces in directions v and -v, read off
    f's lattice frame with v scaled to integers (a positive scaling)."""
    w = lattice([vector(v)])[1][0]
    values = [dot(w, row) for row in f.frame]
    top, bottom = max(values), min(values)
    return (
        tuple(i for i, x in enumerate(values) if x == top),
        tuple(i for i, x in enumerate(values) if x == bottom),
    )


def _splits(f: Signomial, faces: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> bool:
    """Whether the two faces of ``_face_split`` are distinct and cover the
    support (distinct faces are disjoint)."""
    top, bottom = faces
    return top != bottom and len(top) + len(bottom) == len(f.terms)


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
    vv = vector(v)
    aa, bb = Fraction(a), Fraction(b)
    if not verify_enclosing_pair(f, vv, aa, bb, strict=False):
        raise NotEnclosingError("(v, a, b) is not an enclosing pair for this signomial")
    pos = positives(f)
    upper = [p for p in negatives(f) if dot(vv, p) >= aa] + list(pos)
    lower = [p for p in negatives(f) if dot(vv, p) <= bb] + list(pos)
    return restrict(f, upper), restrict(f, lower)


@dataclass(frozen=True)
class IntersectionEvidence:
    kind: str  # "negative-edge" | "segment-witness" | "sampled-point"
    beta1: Optional[Vector] = None
    beta2: Optional[Vector] = None
    point: Optional[Tuple[float, ...]] = None


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
    grid=None,
) -> BoundReport:
    """Component-count bound from a two-vertex intersection graph.

    With ``enclosing=(a, b)`` the children are the side restrictions of the
    enclosing pair and an edge is a segment witness between their negative
    supports; otherwise the support must split across the parallel faces of v
    and an edge is a negative-negative polytope edge, falling back to a
    sampled common negative point.  Children must certify at most one
    component each (otherwise the bound is unknown); any intersection
    evidence shows both children's regions are nonempty and meet, so the
    bound drops to one.
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
            pos_values = [dot(vv, alpha) for alpha in positives(f)]
            if not pos_values:
                raise ValueError("enclosing offsets need positive exponents")
            a, b = max(pos_values), min(pos_values)
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
            from . import oracle

            try:
                point = oracle.intersection_witness(fa, fb, grid)
            except oracle.GridBudgetExceededError:
                point = None
            if point is not None:
                evidence = IntersectionEvidence("sampled-point", point=point)
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


# ---------------------------------------------------------------------------
# replay verification


def verify_certificate(f: Signomial, cert: Certificate, path: str = "root") -> List[str]:
    """Re-check every witness in the trace exactly; no searches are re-run.

    Returns a list of human-readable problems, empty when the certificate is
    valid for f.
    """
    errors: List[str] = []

    def fail(msg: str):
        errors.append(f"{path}: {msg}")

    vectors = []
    if cert.normal is not None:
        vectors.append(cert.normal)
    vectors.extend(cert.face or ())
    if cert.edge is not None:
        vectors.extend((cert.edge.beta1, cert.edge.beta2, cert.edge.functional))
    if any(len(v) != f.dimension for v in vectors):
        fail("certificate vectors do not match the signomial dimension")
        return errors

    if cert.kind == KIND_EMPTY:
        if negatives(f):
            fail("empty node but f has negative terms")
        if cert.outcome != CERTIFIED_EMPTY:
            fail("empty node must be CertifiedEmpty")
        return errors

    if cert.kind == KIND_INCONCLUSIVE:
        if cert.outcome != INCONCLUSIVE:
            fail("inconclusive node with a certified outcome")
        return errors

    if cert.kind == KIND_CRITERION:
        if cert.criterion is None:
            fail("criterion node without criterion payload")
            return errors
        try:
            problem = verify_criterion(f, cert.criterion)
        except Exception as exc:  # malformed witness payloads must not crash replay
            problem = f"criterion witness is malformed: {exc}"
        if problem:
            fail(problem)
        if cert.outcome != criterion_outcome(cert.criterion):
            fail("criterion outcome mismatch")
        return errors

    if cert.kind == KIND_NEGATIVE_FACE:
        if cert.normal is None or is_zero(cert.normal) or cert.face is None or len(cert.children) != 1:
            fail("malformed negative-face node")
            return errors
        values = [dot(cert.normal, mu) for mu in f.support]
        top = max(values)
        computed = {mu for mu, val in zip(f.support, values) if val == top}
        if computed != set(cert.face):
            fail("recorded face is not the face exposed by the recorded normal")
        if not set(negatives(f)) <= computed:
            fail("face does not contain all negative exponents")
        if computed == set(f.support):
            fail("face is not proper")
        child_f = restrict(f, cert.face)
        if cert.outcome != cert.children[0].outcome:
            fail("outcome does not match the child outcome")
        errors.extend(verify_certificate(child_f, cert.children[0], path + ".face"))
        return errors

    if cert.kind == KIND_PARALLEL_SPLIT:
        if (
            cert.normal is None
            or is_zero(cert.normal)
            or cert.edge is None
            or cert.child_nonempty is None
            or len(cert.child_nonempty) != 2
            or len(cert.children) != 2
        ):
            fail("malformed parallel-split node")
            return errors
        values = {dot(cert.normal, mu) for mu in f.support}
        if len(values) != 2:
            fail("support does not lie on two parallel faces of the recorded normal")
            return errors
        face_v, face_mv = _parallel_faces(f, cert.normal)
        neg = set(negatives(f))
        e = cert.edge
        if e.beta1 not in neg or e.beta1 not in face_v:
            fail("edge endpoint beta1 is not a negative exponent on the upper face")
        if e.beta2 not in neg or e.beta2 not in face_mv:
            fail("edge endpoint beta2 is not a negative exponent on the lower face")
        u = e.functional
        if dot(u, e.beta1) != dot(u, e.beta2):
            fail("edge functional is not constant on the edge")
        for q in f.support:
            if q in (e.beta1, e.beta2):
                continue
            if dot(u, e.beta1) <= dot(u, q):
                fail("edge functional does not expose the edge strictly")
                break
        if cert.outcome != CERTIFIED_EXACTLY_ONE:
            fail("parallel split must certify exactly one component")
        for idx, (face, label) in enumerate(((face_v, "upper"), (face_mv, "lower"))):
            child_f = restrict(f, face)
            child = cert.children[idx]
            if child.outcome not in CERTIFIED_OUTCOMES or child.outcome == CERTIFIED_EMPTY:
                fail(f"{label} child is not certified with a nonempty-compatible outcome")
            w = cert.child_nonempty[idx]
            if w.point not in set(negatives(child_f)) or len(w.functional) != f.dimension:
                fail(f"{label} nonempty witness is not a negative exponent of the child")
            else:
                for q in child_f.support:
                    if q == w.point:
                        continue
                    if dot(w.functional, w.point) <= dot(w.functional, q):
                        fail(f"{label} nonempty witness functional is not strictly exposing")
                        break
            errors.extend(verify_certificate(child_f, child, f"{path}.{label}"))
        return errors

    fail(f"unknown certificate kind {cert.kind!r}")
    return errors
