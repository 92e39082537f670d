"""Single-shot connectivity criteria on the signed support.

Each criterion either certifies that the negative region has at most one
connected component (some additionally certify it is nonempty) or declines.
``check_connectivity`` runs them in a fixed order and returns the first
certificate; all returned witnesses re-verify under the exact ``verify_*``
checks before being handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from . import lp
from .linalg import Vector, affine_rank, dot, is_zero, vector
from .polytope import (
    DegenerateSimplexError,
    Polytope,
    build_polytope,
    face_exposing_normal,
    simplex_halfspaces,
    smallest_face_containing,
)
from .signomial import Signomial, negatives, newton_dim, positives

ZERO = Fraction(0)
ONE = Fraction(1)

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


class EnclosingBudgetExceededError(RuntimeError):
    """The enclosing-pair search would enumerate too many side assignments."""


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


MODE_NEGATIVES_INSIDE = "negatives-inside"
MODE_POSITIVES_INSIDE = "positives-inside"


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
    enable_enclosing_search: bool = False
    enable_box_criterion: bool = False
    simplex_witness: Optional[SimplexWitness] = None
    enclosing_max_negatives: int = 12

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


def find_strict_separating_hyperplane(f: Signomial) -> Optional[SeparatingWitness]:
    """A strict separating hyperplane, from at most two feasibility problems.

    Both solve for (v, a) with v.beta >= a on the negatives and v.alpha <= a
    on the positives.  The first adds v.beta0 >= a + 1 for the first negative
    beta0 in support order; the second adds sum(v.beta - a) >= 1 over the
    remaining negatives, which by homogeneity is feasible exactly when one of
    them can be made strict.  The strict point is the first negative strictly
    above the hyperplane.
    """
    neg = sorted(negatives(f))
    pos = sorted(positives(f))
    if not neg or not pos:
        return None
    n = f.dimension
    rows = [(tuple(beta) + (-ONE,), ZERO, ">=") for beta in neg]
    rows += [(tuple(-a for a in alpha) + (ONE,), ZERO, ">=") for alpha in pos]
    strict_rows = [(tuple(neg[0]) + (-ONE,), ONE, ">=")]
    if len(neg) > 1:
        total = tuple(map(sum, zip(*neg[1:])))
        strict_rows.append((total + (1 - len(neg),), ONE, ">="))
    for strict_row in strict_rows:
        res = lp.feasible(lp.LinearSystem.build(n + 1, rows + [strict_row]))
        if res.is_feasible:
            v, a = res.witness[:n], res.witness[n]
            beta0 = next(beta for beta in neg if dot(v, beta) > a)
            if not verify_separating_hyperplane(f, v, a, strict=True, strict_point=beta0):
                raise RuntimeError("separating witness failed re-verification")
            return SeparatingWitness(v, a, True, beta0)
    return None


def verify_separating_hyperplane(
    f: Signomial,
    v: Sequence,
    a,
    strict: bool,
    strict_point: Optional[Vector] = None,
) -> bool:
    """Exact check of the separating-hyperplane definition."""
    vv = vector(v)
    aa = Fraction(a)
    if is_zero(vv):
        return False
    neg = negatives(f)
    pos = positives(f)
    if any(dot(vv, beta) < aa for beta in neg):
        return False
    if any(dot(vv, alpha) > aa for alpha in pos):
        return False
    if strict:
        if strict_point is not None:
            return strict_point in neg and dot(vv, strict_point) > aa
        return any(dot(vv, beta) > aa for beta in neg)
    return True


def verify_enclosing_pair(f: Signomial, v: Sequence, a, b, strict: bool) -> bool:
    """Exact check of the enclosing-pair definition (positives inside the slab
    [b, a] along v, negatives outside its interior)."""
    vv = vector(v)
    aa, bb = Fraction(a), Fraction(b)
    if is_zero(vv) or aa < bb:
        return False
    for alpha in positives(f):
        val = dot(vv, alpha)
        if val > aa or val < bb:
            return False
    above = below = False
    for beta in negatives(f):
        val = dot(vv, beta)
        if bb < val < aa:
            return False
        if val > aa:
            above = True
        if val < bb:
            below = True
    if strict:
        return above and below
    return True


def find_strict_enclosing_pair(
    f: Signomial, max_negatives: int = 12
) -> Optional[EnclosingWitness]:
    """Search for a strict enclosing pair by assigning the negatives to the two
    outer sides (one feasibility problem per assignment, both sides required
    strictly outside, 2^k assignments total).

    Raises EnclosingBudgetExceededError when the negative count exceeds
    ``max_negatives``.
    """
    neg = sorted(negatives(f))
    pos = sorted(positives(f))
    k = len(neg)
    if k > max_negatives:
        raise EnclosingBudgetExceededError(
            f"{k} negative exponents exceed the side-assignment budget {max_negatives}"
        )
    n = f.dimension
    for mask in range(1, 2 ** k - 1):
        upper = [neg[i] for i in range(k) if mask >> i & 1]
        lower = [neg[i] for i in range(k) if not mask >> i & 1]
        rows = []
        # unknowns: v (n), a, b
        for alpha in pos:
            rows.append((tuple(-c for c in alpha) + (ONE, ZERO), ZERO, ">="))
            rows.append((tuple(alpha) + (ZERO, -ONE), ZERO, ">="))
        for beta in upper:
            rows.append((tuple(beta) + (-ONE, ZERO), ONE, ">="))
        for beta in lower:
            rows.append((tuple(-c for c in beta) + (ZERO, ONE), ONE, ">="))
        rows.append(((ZERO,) * n + (ONE, -ONE), ZERO, ">="))
        res = lp.feasible(lp.LinearSystem.build(n + 2, rows))
        if res.is_feasible:
            v = res.witness[:n]
            a, b = res.witness[n], res.witness[n + 1]
            if not verify_enclosing_pair(f, v, a, b, strict=True):
                raise RuntimeError("enclosing witness failed re-verification")
            return EnclosingWitness(v, a, b, True)
    return None


def _matches_derived(provided, derived) -> bool:
    """Each provided halfspace must be a positive scaling of a distinct derived
    facet halfspace."""
    remaining = list(derived)
    for pv, pa in provided:
        pv = vector(pv)
        pa = Fraction(pa)
        hit = None
        for idx, (dv, da) in enumerate(remaining):
            scale = None
            ok = True
            for a, b in zip(dv, pv):
                if (a == 0) != (b == 0):
                    ok = False
                    break
                if b != 0:
                    s = a / b
                    if s <= 0 or (scale is not None and s != scale):
                        ok = False
                        break
                    scale = s
            if ok and scale is not None and da == pa * scale:
                hit = idx
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return not remaining


def _cone_memberships(halfspaces, point: Vector) -> Tuple[List[int], List[int]]:
    """Indices k with point in the vertex cone at vertex k, and those with the
    membership strict (cone interior)."""
    n1 = len(halfspaces)
    inside, interior = [], []
    for k in range(n1):
        weak = strict = True
        for j in range(n1):
            if j == k:
                continue
            v, a = halfspaces[j]
            val = dot(v, point)
            if val < a:
                weak = False
                break
            if val == a:
                strict = False
        if weak:
            inside.append(k)
            if strict:
                interior.append(k)
    return inside, interior


def verify_simplex_witness(f: Signomial, w: SimplexWitness) -> bool:
    """Exact check of the simplex vertex-cone criterion.

    negatives-inside: negatives in the simplex, positives in the cone union.
    positives-inside (needs n >= 2): positives in the simplex, negatives in
    the cone union, and some negative interior to the union.
    """
    derived = simplex_halfspaces(w.vertices)
    if w.halfspaces is not None and not _matches_derived(w.halfspaces, derived):
        return False
    pos = positives(f)
    neg = negatives(f)

    def in_simplex(p: Vector) -> bool:
        return all(dot(v, p) <= a for v, a in derived)

    def in_cones(p: Vector) -> bool:
        return bool(_cone_memberships(derived, p)[0])

    def in_cone_interior(p: Vector) -> bool:
        return bool(_cone_memberships(derived, p)[1])

    if w.mode == MODE_NEGATIVES_INSIDE:
        return all(in_simplex(b) for b in neg) and all(in_cones(a) for a in pos)
    if w.mode == MODE_POSITIVES_INSIDE:
        if f.dimension < 2:
            return False
        if not all(in_simplex(a) for a in pos):
            return False
        if not all(in_cones(b) for b in neg):
            return False
        if w.interior_negative is not None:
            return w.interior_negative in neg and in_cone_interior(w.interior_negative)
        return any(in_cone_interior(b) for b in sorted(neg))
    raise ValueError(f"unknown simplex mode {w.mode!r}")


def check_box_criterion(
    f: Signomial, config: Optional[CertifyConfig] = None
) -> Optional[CriterionCertificate]:
    """Strict enclosing pair plus a negative pair on opposite sides whose
    segment misses the hull of the positives."""
    config = config or CertifyConfig()
    pos = sorted(positives(f))
    if not pos:
        return None
    pair = find_strict_enclosing_pair(f, config.enclosing_max_negatives)
    if pair is None:
        return None
    v, a, b = pair.normal, pair.upper, pair.lower
    above = [p for p in sorted(negatives(f)) if dot(v, p) >= a]
    below = [p for p in sorted(negatives(f)) if dot(v, p) <= b]
    for beta1 in above:
        for beta2 in below:
            res = lp.separate_segment_from_hull(beta1, beta2, pos)
            if res.is_feasible:
                wn, wc = res.witness[: f.dimension], res.witness[f.dimension]
                witness = BoxWitness(pair, beta1, beta2, wn, wc)
                return CriterionCertificate(BOX, True, witness)
    return None


def closure_property(f: Signomial, facet_budget: Optional[int] = None) -> bool:
    """True when the closure of the negative region provably equals the set
    where f <= 0: strict separating hyperplane, or all negative exponents on a
    proper face of the Newton polytope.  False means "not certified"."""
    neg = negatives(f)
    pos = positives(f)
    if not f.terms:
        return False
    if not neg or not pos:
        return True  # f has constant sign on the whole orthant
    if find_strict_separating_hyperplane(f) is not None:
        return True
    P = build_polytope(f.support, facet_budget)
    neg_idx = [i for i, p in enumerate(P.points) if p in set(neg)]
    _, proper = smallest_face_containing(P, neg_idx)
    return proper


def negative_vertex_functional(
    f: Signomial, P: Optional[Polytope] = None
) -> Optional[Tuple[Vector, Vector]]:
    """First negative exponent that is a vertex of the Newton polytope,
    together with a functional u exposing it strictly (u.beta > u.q for every
    other support point q); certifies the negative region is nonempty.

    ``P`` defaults to the Newton polytope of f; it may also be the hull of a
    larger point set of which f's support is a face, since the vertices of a
    face are the vertices of the hull that lie in it.  The functional is the
    sum of the normals of the facets through the vertex, or zero when the
    hull is the vertex alone.
    """
    if P is None:
        P = build_polytope(f.support)
    index = {p: i for i, p in enumerate(P.points)}
    for beta in sorted(negatives(f)):
        if index[beta] in P.vertices:
            return beta, face_exposing_normal(P, [index[beta]])
    return None


def _simplex_search(f: Signomial, config: CertifyConfig) -> Optional[CriterionCertificate]:
    support = sorted(f.support)
    n = f.dimension
    if len(support) < n + 1:
        return None
    for combo in combinations(support, n + 1):
        if affine_rank(list(combo)) != n:
            continue
        for mode in (MODE_NEGATIVES_INSIDE, MODE_POSITIVES_INSIDE):
            w = SimplexWitness(tuple(combo), mode)
            if verify_simplex_witness(f, w):
                kind = (
                    SIMPLEX_NEGATIVES_INSIDE
                    if mode == MODE_NEGATIVES_INSIDE
                    else SIMPLEX_POSITIVES_INSIDE
                )
                return CriterionCertificate(kind, kind in _NONEMPTY_KINDS, w)
    return None


def check_connectivity(
    f: Signomial, config: Optional[CertifyConfig] = None
) -> Optional[CriterionCertificate]:
    """First applicable single-shot criterion, or None.

    Order: empty negative support, empty positive support, one negative
    coefficient, strict separating hyperplane, one positive coefficient (hull
    dimension >= 2), simplex witness, then the box criterion when enabled.
    """
    config = config or CertifyConfig()
    neg = negatives(f)
    pos = positives(f)
    if not neg:
        return CriterionCertificate(NO_NEGATIVE_TERMS, False)
    if not pos:
        return CriterionCertificate(NO_POSITIVE_TERMS, True)
    if len(neg) == 1:
        return CriterionCertificate(ONE_NEGATIVE_COEFF, False, neg[0])
    sep = find_strict_separating_hyperplane(f)
    if sep is not None:
        return CriterionCertificate(STRICT_SEPARATING, True, sep)
    if len(pos) == 1 and newton_dim(f) >= 2:
        return CriterionCertificate(ONE_POSITIVE_COEFF, True, pos[0])
    if config.simplex_witness is not None:
        w = config.simplex_witness
        try:
            ok = verify_simplex_witness(f, w)
        except DegenerateSimplexError:
            ok = False
        if ok:
            kind = (
                SIMPLEX_NEGATIVES_INSIDE
                if w.mode == MODE_NEGATIVES_INSIDE
                else SIMPLEX_POSITIVES_INSIDE
            )
            return CriterionCertificate(kind, kind in _NONEMPTY_KINDS, w)
    if config.enable_simplex_search:
        found = _simplex_search(f, config)
        if found is not None:
            return found
    if config.enable_box_criterion:
        try:
            found = check_box_criterion(f, config)
        except EnclosingBudgetExceededError:
            found = None  # over budget: the criterion simply does not fire
        if found is not None:
            return found
    return None


def verify_criterion(f: Signomial, cert: CriterionCertificate) -> Optional[str]:
    """Re-check a criterion certificate exactly; returns an error string or None."""
    neg = negatives(f)
    pos = positives(f)
    if cert.nonempty != (cert.kind in _NONEMPTY_KINDS):
        return f"nonempty flag inconsistent with kind {cert.kind}"
    if cert.kind == NO_NEGATIVE_TERMS:
        return None if not neg else "negative support is not empty"
    if cert.kind == NO_POSITIVE_TERMS:
        if pos:
            return "positive support is not empty"
        return None if neg else "no terms at all"
    if cert.kind == ONE_NEGATIVE_COEFF:
        return None if len(neg) == 1 else "negative coefficient count is not one"
    if cert.kind == ONE_POSITIVE_COEFF:
        if len(pos) != 1:
            return "positive coefficient count is not one"
        return None if newton_dim(f) >= 2 else "Newton polytope dimension below two"
    if cert.kind == STRICT_SEPARATING:
        w = cert.witness
        ok = verify_separating_hyperplane(f, w.normal, w.offset, True, w.strict_point)
        return None if ok else "separating hyperplane does not verify"
    if cert.kind in (SIMPLEX_NEGATIVES_INSIDE, SIMPLEX_POSITIVES_INSIDE):
        try:
            ok = verify_simplex_witness(f, cert.witness)
        except DegenerateSimplexError:
            return "degenerate simplex witness"
        return None if ok else "simplex witness does not verify"
    if cert.kind == BOX:
        w = cert.witness
        e = w.enclosing
        if not verify_enclosing_pair(f, e.normal, e.upper, e.lower, strict=True):
            return "enclosing pair does not verify"
        if w.beta1 not in neg or w.beta2 not in neg:
            return "box endpoints are not negative exponents"
        if dot(e.normal, w.beta1) < e.upper or dot(e.normal, w.beta2) > e.lower:
            return "box endpoints on wrong sides"
        c = Fraction(w.separator_offset)
        if dot(w.separator_normal, w.beta1) <= c or dot(w.separator_normal, w.beta2) <= c:
            return "segment separator not strict on endpoints"
        if any(dot(w.separator_normal, alpha) > c for alpha in pos):
            return "segment separator fails on a positive exponent"
        return None
    return f"unknown criterion kind {cert.kind!r}"
