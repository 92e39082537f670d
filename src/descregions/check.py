"""The trusted checker: everything a certificate trace holds, and the exact
re-check of every witness in it.

Replay goes through this module alone: it imports nothing from the package
but ``linalg`` and ``signomial``, so no search, LP or hull code stands
between a trace and its verdict.  The searches call the same checks on
their own witnesses before handing them out.

Replay reads only the signomial's integer lattice frame.  Every test of a
recorded functional runs through ``frame_values``: the functional and its
offsets are scaled once to ints, and each exponent's value is an int dot
product with its frame row.  Faces are read by term index
(``_face_split``, whose ``_extremes`` the hull's parallel-face scan shares),
children are restricted by index, and a recorded point goes to its term
through ``Signomial.term_index`` (none off the lattice).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .linalg import IntVector, Vector, dot, is_zero, lattice, primitive_int, vneg
from .signomial import MAX_EXPONENT_DIGITS, Signomial, exceeds_cap, newton_dim, restrict_indices

# outcomes
CERTIFIED_EMPTY = "CertifiedEmpty"
CERTIFIED_AT_MOST_ONE = "CertifiedAtMostOne"
CERTIFIED_EXACTLY_ONE = "CertifiedExactlyOne"
INCONCLUSIVE = "Inconclusive"

CERTIFIED_OUTCOMES = (CERTIFIED_EMPTY, CERTIFIED_AT_MOST_ONE, CERTIFIED_EXACTLY_ONE)

# certificate node kinds
KIND_CRITERION = "criterion"
KIND_NEGATIVE_FACE = "negative-face-reduction"
KIND_PARALLEL_SPLIT = "parallel-split"
KIND_EMPTY = "empty"
KIND_INCONCLUSIVE = "inconclusive"

# criterion kinds
NO_NEGATIVE_TERMS = "no-negative-terms"
NO_POSITIVE_TERMS = "no-positive-terms"
ONE_NEGATIVE_COEFF = "one-negative-coeff"
ONE_POSITIVE_COEFF = "one-positive-coeff"
STRICT_SEPARATING = "strict-separating"
SIMPLEX_NEGATIVES_INSIDE = "simplex-negatives-inside"
SIMPLEX_POSITIVES_INSIDE = "simplex-positives-inside"
BOX = "box"

# kinds that also certify the negative region is nonempty
_NONEMPTY_KINDS = {
    NO_POSITIVE_TERMS,
    ONE_POSITIVE_COEFF,
    STRICT_SEPARATING,
    SIMPLEX_POSITIVES_INSIDE,
    BOX,
}

MODE_NEGATIVES_INSIDE = "negatives-inside"
MODE_POSITIVES_INSIDE = "positives-inside"

# The most variables a simplex witness is searched, taken or replayed in.
# Checking one costs a fraction-free inverse whose time grows faster than
# n^4 on dense vertices: with entries up to 10^5, 2.3 ms at n = 16, 31 ms at
# n = 32 and 79 ms at n = 40 (CPython 3.11, 2-core VM).  16 keeps every
# witness's check in milliseconds and covers the largest fixture, WIDE16.
MAX_SIMPLEX_DIMENSION = 16


@dataclass(frozen=True)
class SeparatingWitness:
    normal: Vector
    offset: Fraction
    strict: bool
    strict_point: Optional[Vector] = None


@dataclass(frozen=True)
class EnclosingWitness:
    normal: Vector
    upper: Fraction
    lower: Fraction
    strict: bool


@dataclass(frozen=True)
class SimplexWitness:
    """An n-simplex separating the signed support through its vertex cones.

    ``halfspaces`` may carry a caller-supplied H-representation; it is checked
    against the one derived from the vertices.  ``interior_negative`` is the
    required negative exponent interior to the cone union (positives-inside
    mode); when absent one is searched for.
    """

    vertices: Tuple[Vector, ...]
    mode: str
    interior_negative: Optional[Vector] = None
    halfspaces: Optional[Tuple[Tuple[Vector, Fraction], ...]] = None


@dataclass(frozen=True)
class BoxWitness:
    enclosing: EnclosingWitness
    beta1: Vector
    beta2: Vector
    separator_normal: Vector
    separator_offset: Fraction


@dataclass(frozen=True)
class CriterionCertificate:
    kind: str
    nonempty: bool
    witness: object = None


@dataclass(frozen=True)
class CertifyConfig:
    max_depth: int = 64
    facet_budget: Optional[int] = 10000
    enable_simplex_search: bool = False
    # Read by no search.  It stays because the trace's config records it
    # (dropping it moves every trace's bytes) and the benchmark passes it;
    # it goes with the node budget's key, once the benchmark stops passing
    # it, so that the bytes move once.
    enable_enclosing_search: bool = False
    enable_box_criterion: bool = False
    simplex_witness: Optional[SimplexWitness] = None
    enclosing_max_negatives: int = 12

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.facet_budget is not None and self.facet_budget < 1:
            raise ValueError("facet_budget must be >= 1")


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


# ---------------------------------------------------------------------------
# functionals on the lattice frame


def frame_values(f: Signomial, v: Sequence, *offsets) -> Tuple[List[int], Tuple[int, ...]]:
    """The rational functional v on each of f's exponents, and the offsets,
    as ints on f's lattice frame.

    (v, offsets) times the lcm of their denominators is an int vector (w, t),
    and f's frame rows are L mu; w . (L mu) and L t are then v . mu and the
    offsets times one positive factor, so they compare as the rationals do.
    A functional of the wrong length is a ValueError naming its length.
    """
    k = len(v)
    if k != f.dimension:
        raise ValueError(f"functional has {k} entries, not {f.dimension}")
    _, (row,) = lattice([(*v, *offsets)])
    w = row[:k]
    return [dot(w, mu) for mu in f.frame], tuple(f.scale * t for t in row[k:])


def _extremes(values: Sequence) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Indices of the largest and of the smallest values, the two faces of a
    functional's values on points (ValueError when there are none)."""
    top, bottom = max(values), min(values)
    return (
        tuple(i for i, x in enumerate(values) if x == top),
        tuple(i for i, x in enumerate(values) if x == bottom),
    )


def _face_split(f: Signomial, v: Sequence) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Indices of f's terms on the faces in directions v and -v (ValueError
    when f has no terms)."""
    return _extremes(frame_values(f, v)[0])


def _splits(f: Signomial, faces: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> bool:
    """Whether the two faces of ``_face_split`` are distinct and cover the
    support (distinct faces are disjoint)."""
    top, bottom = faces
    return top != bottom and len(top) + len(bottom) == len(f.frame)


def _exposes(values: Sequence[int], top, ends: Sequence[Optional[int]]) -> bool:
    """Whether every value off the given term indices lies strictly below
    ``top``."""
    return all(x < top for i, x in enumerate(values) if i not in ends)


# ---------------------------------------------------------------------------
# criterion witnesses


class DegenerateSimplexError(ValueError):
    """Simplex vertices are affinely dependent."""


def simplex_halfspaces(vertices: Sequence[IntVector]) -> Tuple[Tuple[IntVector, int], ...]:
    """Outer halfspaces (v_j, a_j) of the simplex on int vertices, the j-th
    supporting the facet opposite vertex j, with primitive integer normals
    and int offsets.  Raises DegenerateSimplexError when the vertices are
    affinely dependent.

    The hull's starting simplex, the simplex search and replay's simplex
    check all read their facets from here.  A Gauss-Jordan elimination of
    [M | I], with M the rows v_i - v_0 and every step divided exactly by
    the previous pivot (Bareiss 1968), leaves [d I | d M^-1] with
    d = +-det M.  Column j of d M^-1 is orthogonal to every row of M but
    the j-th, so it is normal to the facet opposite v_j; the sum of the
    columns has the same product with every row, so it is normal to the
    facet opposite v_0.  A zero pivot column means the vertices are
    dependent.  Each normal is made primitive and turned away from its
    opposite vertex.

    The scaling is lazy, so a sparse simplex pays for its nonzeros.  A step
    would only multiply a row with a zero in the pivot column by q / prev,
    so it leaves that row as it is; each row keeps the denominator ``at`` it
    was last brought to, and Bareiss's row is the stored one times
    prev / at.  A row is brought up to date only when it is read: as the
    pivot row (one exact pass, a * prev // at), when a step eliminates from
    it (the pass folds into the step, which then divides by at instead of
    prev), and at the end.  So the pivots, the result and the degenerate
    cases are Bareiss's."""
    n = len(vertices[0])
    if len(vertices) != n + 1:
        raise DegenerateSimplexError("vertices do not form an n-simplex")
    base = vertices[0]
    rows = [[a - b for a, b in zip(p, base)] + [int(i == k) for k in range(n)] for i, p in enumerate(vertices[1:])]
    at = [1] * n  # the denominator each row was last brought to
    prev = 1
    for k in range(n):
        # each row holds columns k.. of the eliminated [M | I]
        r = next((i for i in range(k, n) if rows[i][0]), None)
        if r is None:
            raise DegenerateSimplexError("vertices do not form an n-simplex")
        rows[k], rows[r] = rows[r], rows[k]
        at[k], at[r] = at[r], at[k]
        pivot = rows[k] if at[k] == prev else [a * prev // at[k] for a in rows[k]]
        q, pivot = pivot[0], pivot[1:]
        for i, row in enumerate(rows):
            c = row[0]
            if i == k:
                rows[i] = pivot
            elif c:
                rows[i] = [(q * a - c * b) // at[i] for a, b in zip(row[1:], pivot)]
            else:
                del row[0]
                continue
            at[i] = q
        prev = q
    rows = [row if s == prev else [a * prev // s for a in row] for row, s in zip(rows, at)]
    # rows is now d M^-1
    columns = [tuple(map(sum, rows))] + list(zip(*rows))
    out = []
    for j, col in enumerate(columns):
        normal = primitive_int(col)
        offset = dot(normal, vertices[1 if j == 0 else 0])
        if dot(normal, vertices[j]) > offset:
            normal, offset = vneg(normal), -offset
        out.append((normal, offset))
    return tuple(out)


def verify_separating_hyperplane(
    f: Signomial,
    v: Sequence,
    a,
    strict: bool,
    strict_point: Optional[Vector] = None,
) -> bool:
    """Exact check of the separating-hyperplane definition: v . beta >= a on
    the negatives, v . alpha <= a on the positives, and strictly above at
    ``strict_point`` (or some negative) when ``strict``."""
    if is_zero(v):
        return False
    values, (level,) = frame_values(f, v, a)
    above = [values[i] - level for i in f.negative_indices]
    if any(x < 0 for x in above):
        return False
    if any(values[i] > level for i in f.positive_indices):
        return False
    if strict:
        if strict_point is not None:
            k = f.term_index(strict_point)
            return any(i == k and x > 0 for i, x in zip(f.negative_indices, above))
        return any(x > 0 for x in above)
    return True


def verify_enclosing_pair(f: Signomial, v: Sequence, a, b, strict: bool) -> bool:
    """Exact check of the enclosing-pair definition (positives inside the slab
    [b, a] along v, negatives outside its interior)."""
    if is_zero(v) or a < b:
        return False
    values, (a, b) = frame_values(f, v, a, b)
    if any(not b <= values[i] <= a for i in f.positive_indices):
        return False
    neg = [values[i] for i in f.negative_indices]
    if any(b < x < a for x in neg):
        return False
    return not strict or (any(x > a for x in neg) and any(x < b for x in neg))


def _ray(v: Sequence, a) -> IntVector:
    """The halfspace v . x <= a as coprime ints: two halfspaces give the same
    ray exactly when one is a positive multiple of the other."""
    return primitive_int(lattice([(*v, a)])[1][0])


def verify_simplex_witness(f: Signomial, w: SimplexWitness) -> bool:
    """Exact check of the simplex vertex-cone criterion.

    negatives-inside: negatives in the simplex, positives in the cone union.
    positives-inside (needs n >= 2): positives in the simplex, negatives in
    the cone union, and some negative interior to the union.  It runs on
    f's lattice frame, as the search does: each vertex as its frame row,
    and the interior negative as its term index.  False for a witness of
    the wrong shape and for an interior negative that is not one of f's;
    raises DegenerateSimplexError when the vertices are affinely dependent.
    """
    return not _simplex_shape_error(f, w) and _simplex_verifies(f, w)


def _simplex_verifies(f: Signomial, w: SimplexWitness) -> bool:
    """``verify_simplex_witness`` on a witness of the right shape, whose
    vertices all lie on f's exponent lattice."""
    interior = None if w.interior_negative is None else f.term_index(w.interior_negative)
    if w.interior_negative is not None and interior not in f.negative_indices:
        return False
    derived = simplex_halfspaces([f.frame_row(p) for p in w.vertices])
    # a provided H-representation must be the derived one, up to positive scalings and order
    if w.halfspaces is not None:
        L = f.scale
        if sorted(_ray(v, a) for v, a in w.halfspaces) != sorted(_ray(v, Fraction(a, L)) for v, a in derived):
            return False
    return _simplex_holds(f, w.mode, interior, derived)


def _simplex_shape_error(f: Signomial, w: SimplexWitness) -> Optional[str]:
    """Why the witness's vertices cannot span an n-simplex on f's lattice
    frame, or why it is not checked, or None.  Each vertex entry is held to
    the exponent digit caps and must lie on f's exponent lattice (times L an
    int), so a check costs what the search's checks on f's frame cost."""
    if f.dimension > MAX_SIMPLEX_DIMENSION:
        return f"simplex witness in {f.dimension} variables, above the cap of {MAX_SIMPLEX_DIMENSION}"
    if len(w.vertices) != f.dimension + 1:
        return f"simplex witness has {len(w.vertices)} vertices, not n + 1 = {f.dimension + 1}"
    if any(len(p) != f.dimension for p in w.vertices):
        return "simplex vertices do not match the signomial dimension"
    for a in (a for p in w.vertices for a in p):
        if exceeds_cap(a):
            return f"simplex vertex entry has more than {MAX_EXPONENT_DIGITS} digits"
        if f.scale % a.denominator:
            return f"simplex vertex entry {a} is off the signomial's exponent lattice (L = {f.scale})"


def _simplex_holds(f: Signomial, mode: str, interior: Optional[int], derived) -> bool:
    """The criterion of ``verify_simplex_witness`` on f's lattice frame,
    against the halfspaces ``derived`` from the simplex's frame rows;
    ``interior`` is the term index of the required interior negative, or
    None to look for one."""
    frame = f.frame
    pos = [frame[i] for i in f.positive_indices]
    neg = [frame[i] for i in f.negative_indices]

    def in_simplex(p) -> bool:
        return all(dot(v, p) <= a for v, a in derived)

    def in_cones(p, strict: bool = False) -> bool:
        """p in the vertex cone at some vertex k (its interior): v . p >= a
        (> a) for every halfspace (v, a) but the k-th."""
        slack = [dot(v, p) - a for v, a in derived]
        return any(all(x > 0 if strict else x >= 0 for x in slack[:k] + slack[k + 1:]) for k in range(len(slack)))

    if mode == MODE_NEGATIVES_INSIDE:
        return all(map(in_simplex, neg)) and all(map(in_cones, pos))
    if mode == MODE_POSITIVES_INSIDE:
        if f.dimension < 2 or not all(map(in_simplex, pos)) or not all(map(in_cones, neg)):
            return False
        return any(in_cones(b, True) for b in (neg if interior is None else [frame[interior]]))
    raise ValueError(f"unknown simplex mode {mode!r}")


def verify_criterion(f: Signomial, cert: CriterionCertificate) -> Optional[str]:
    """Re-check a criterion certificate exactly; returns an error string or None."""
    neg, pos = f.negative_indices, f.positive_indices
    if cert.nonempty != (cert.kind in _NONEMPTY_KINDS):
        return f"nonempty flag inconsistent with kind {cert.kind}"
    if cert.kind == NO_NEGATIVE_TERMS:
        return None if not neg else "negative support is not empty"
    if cert.kind == NO_POSITIVE_TERMS:
        if pos:
            return "positive support is not empty"
        return None if neg else "no terms at all"
    if cert.kind in (ONE_NEGATIVE_COEFF, ONE_POSITIVE_COEFF):
        sign, signed = ("negative", neg) if cert.kind == ONE_NEGATIVE_COEFF else ("positive", pos)
        if len(signed) != 1:
            return f"{sign} coefficient count is not one"
        if cert.kind == ONE_POSITIVE_COEFF and newton_dim(f) < 2:
            return "Newton polytope dimension below two"
        found = cert.witness is not None and f.term_index(cert.witness) == signed[0]
        return None if found else f"recorded exponent is not the one {sign} exponent"
    if cert.kind == STRICT_SEPARATING:
        w = cert.witness
        ok = verify_separating_hyperplane(f, w.normal, w.offset, True, w.strict_point)
        return None if ok else "separating hyperplane does not verify"
    if cert.kind in (SIMPLEX_NEGATIVES_INSIDE, SIMPLEX_POSITIVES_INSIDE):
        if shape := _simplex_shape_error(f, cert.witness):
            return shape
        try:
            ok = _simplex_verifies(f, cert.witness)
        except DegenerateSimplexError:
            return "degenerate simplex witness"
        return None if ok else "simplex witness does not verify"
    if cert.kind == BOX:
        e = cert.witness.enclosing
        if not verify_enclosing_pair(f, e.normal, e.upper, e.lower, strict=True):
            return "enclosing pair does not verify"
        return _box_error(f, cert.witness)
    return f"unknown criterion kind {cert.kind!r}"


def _box_error(f: Signomial, w: BoxWitness) -> Optional[str]:
    """Why the box's own conditions fail, on an enclosing pair that
    verifies, or None: both ends are negative exponents on the pair's two
    outer sides, strictly above the segment separator, and every positive
    lies on or below it."""
    i, j = f.term_index(w.beta1), f.term_index(w.beta2)
    if i not in f.negative_indices or j not in f.negative_indices:
        return "box endpoints are not negative exponents"
    e = w.enclosing
    values, (a, b) = frame_values(f, e.normal, e.upper, e.lower)
    if values[i] < a or values[j] > b:
        return "box endpoints on wrong sides"
    values, (c,) = frame_values(f, w.separator_normal, w.separator_offset)
    if values[i] <= c or values[j] <= c:
        return "segment separator not strict on endpoints"
    if any(values[k] > c for k in f.positive_indices):
        return "segment separator fails on a positive exponent"
    return None


# ---------------------------------------------------------------------------
# replay


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
        if f.negative_indices:
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
        top = _face_split(f, cert.normal)[0]
        found = set(map(f.term_index, cert.face))
        face = tuple(sorted(found - {None}))
        if face != top or None in found:
            fail("recorded face is not the face exposed by the recorded normal")
        if not set(f.negative_indices) <= set(top):
            fail("face does not contain all negative exponents")
        if len(top) == len(f.frame):
            fail("face is not proper")
        if cert.outcome != cert.children[0].outcome:
            fail("outcome does not match the child outcome")
        errors.extend(verify_certificate(restrict_indices(f, face), cert.children[0], path + ".face"))
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
        faces = _face_split(f, cert.normal) if f.frame else ((), ())
        if not _splits(f, faces):
            fail("support does not lie on two parallel faces of the recorded normal")
            return errors
        neg = f.negative_indices
        e = cert.edge
        ends = [f.term_index(e.beta1), f.term_index(e.beta2)]
        if ends[0] not in neg or ends[0] not in faces[0]:
            fail("edge endpoint beta1 is not a negative exponent on the upper face")
        if ends[1] not in neg or ends[1] not in faces[1]:
            fail("edge endpoint beta2 is not a negative exponent on the lower face")
        # a recorded end may lie off the support: its value enters as an offset,
        # so that it compares with the support's values on one scale
        off = [dot(e.functional, mu) for mu, i in zip((e.beta1, e.beta2), ends) if i is None]
        values, levels = frame_values(f, e.functional, *off)
        levels = iter(levels)
        top, other = (next(levels) if i is None else values[i] for i in ends)
        if top != other:
            fail("edge functional is not constant on the edge")
        if not _exposes(values, top, ends):
            fail("edge functional does not expose the edge strictly")
        if cert.outcome != CERTIFIED_EXACTLY_ONE:
            fail("parallel split must certify exactly one component")
        for face, child, w, label in zip(faces, cert.children, cert.child_nonempty, ("upper", "lower")):
            child_f = restrict_indices(f, face)
            if child.outcome not in CERTIFIED_OUTCOMES or child.outcome == CERTIFIED_EMPTY:
                fail(f"{label} child is not certified with a nonempty-compatible outcome")
            k = child_f.term_index(w.point)
            if k not in child_f.negative_indices or len(w.functional) != f.dimension:
                fail(f"{label} nonempty witness is not a negative exponent of the child")
            else:
                values = frame_values(child_f, w.functional)[0]
                if not _exposes(values, values[k], (k,)):
                    fail(f"{label} nonempty witness functional is not strictly exposing")
            errors.extend(verify_certificate(child_f, child, f"{path}.{label}"))
        return errors

    fail(f"unknown certificate kind {cert.kind!r}")
    return errors
