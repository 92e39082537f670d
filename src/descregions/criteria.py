"""Single-shot connectivity criteria on the signed support.

Each criterion either certifies that the negative region has at most one
connected component (some additionally certify it is nonempty) or declines.
``check_connectivity`` runs them in a fixed order and returns the first
certificate; all returned witnesses re-verify under the exact ``verify_*``
checks of ``check``, the ones replay runs, before being handed out.  The
witness classes and criterion kinds live in ``check`` too.
"""

from __future__ import annotations

from heapq import merge
from itertools import combinations, groupby
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from . import lp
from .check import (
    _NONEMPTY_KINDS,
    BOX,
    MODE_NEGATIVES_INSIDE,
    MODE_POSITIVES_INSIDE,
    NO_NEGATIVE_TERMS,
    NO_POSITIVE_TERMS,
    ONE_NEGATIVE_COEFF,
    ONE_POSITIVE_COEFF,
    SIMPLEX_NEGATIVES_INSIDE,
    SIMPLEX_POSITIVES_INSIDE,
    STRICT_SEPARATING,
    BoxWitness,
    CertifyConfig,
    CriterionCertificate,
    DegenerateSimplexError,
    EnclosingWitness,
    SeparatingWitness,
    SimplexWitness,
    _simplex_holds,
    frame_values,
    simplex_halfspaces,
    verify_enclosing_pair,
    verify_separating_hyperplane,
    verify_simplex_witness,
)
from .linalg import Vector, dot
from .polytope import (
    FacetBudgetExceededError,
    Polytope,
    build_polytope,
    face_exposing_normal,
    smallest_face_containing,
)
from .signomial import Signomial, negatives, newton_dim, positives


class EnclosingBudgetExceededError(RuntimeError):
    """The enclosing-pair search would enumerate too many side assignments."""


def _unframe(f: Signomial, w: Vector) -> Vector:
    """A normal found on f's lattice frame, back in f's own coordinates.

    An LP built from the frame rows L * mu in place of mu has its normal's
    columns scaled by L; Bland's rule follows the same bases under a
    positive column scaling, so its normal is w = v / L for the normal v
    of the LP on the rational rows, and offsets are unchanged."""
    return w if f.scale == 1 else tuple(f.scale * x for x in w)


def find_strict_separating_hyperplane(f: Signomial) -> Optional[SeparatingWitness]:
    """A strict separating hyperplane, from at most two feasibility problems.

    Both solve for (v, a) with v.beta >= a on the negatives and v.alpha <= a
    on the positives, with the rows taken from f's lattice frame.  The first
    adds v.beta0 >= a + 1 for the first negative beta0 in support order; the
    second adds sum(v.beta - a) >= 1 over the remaining negatives, which by
    homogeneity is feasible exactly when one of them can be made strict.
    The strict point is the first negative strictly above the hyperplane.
    """
    neg, pos = f.negative_indices, f.positive_indices
    if not neg or not pos:
        return None
    n = f.dimension
    frame = f.frame
    rows = [(frame[i] + (-1,), 0, ">=") for i in neg]
    rows += [(tuple(-c for c in frame[i]) + (1,), 0, ">=") for i in pos]
    strict_rows = [(frame[neg[0]] + (-1,), 1, ">=")]
    if len(neg) > 1:
        total = tuple(map(sum, zip(*(frame[i] for i in neg[1:]))))
        strict_rows.append((total + (1 - len(neg),), 1, ">="))
    for strict_row in strict_rows:
        res = lp.feasible(lp.LinearSystem.build(n + 1, rows + [strict_row]))
        if res.is_feasible:
            values, _ = res.integer_witness  # (w, a) times d > 0
            beta0 = next(f.support[i] for i in neg if dot(values[:n], frame[i]) > values[n])
            v, a = _unframe(f, res.witness[:n]), res.witness[n]
            if not verify_separating_hyperplane(f, v, a, strict=True, strict_point=beta0):
                raise RuntimeError("separating witness failed re-verification")
            return SeparatingWitness(v, a, True, beta0)
    return None


def find_strict_enclosing_pair(
    f: Signomial, max_negatives: int = 12
) -> Optional[EnclosingWitness]:
    """Search for a strict enclosing pair by assigning the k negatives to the
    two outer sides, one feasibility problem per assignment with both sides
    required strictly outside.

    Assignment m (bit i set: the i-th negative above) is feasible exactly when
    its complement is, via (v, a, b) -> (-v, -b, -a), so the first feasible
    one of all 2^k - 2 leaves the last negative below: only those at most
    2^(k-1) - 1 are tried, in increasing order.  The Farkas certificate of an
    infeasible assignment uses the rows of some set S of negatives, so it
    refutes every later assignment that puts S on the same sides, and by the
    symmetry every one that puts S on the opposite sides; those are skipped
    without a feasibility problem.

    The rows are taken from f's lattice frame.  Raises
    EnclosingBudgetExceededError when the negative count exceeds
    ``max_negatives``.
    """
    neg, pos = f.negative_indices, f.positive_indices
    k = len(neg)
    if k > max_negatives:
        raise EnclosingBudgetExceededError(
            f"{k} negative exponents exceed the side-assignment budget {max_negatives}"
        )
    if k < 2:
        return None
    n = f.dimension
    frame = f.frame
    # unknowns: v (n), a, b
    pos_rows = []
    for i in pos:
        pos_rows.append((tuple(-c for c in frame[i]) + (1, 0), 0, ">="))
        pos_rows.append((frame[i] + (0, -1), 0, ">="))
    nogoods: List[Tuple[int, int]] = []  # (S as a bit set, the sides of S refuted)
    for mask in range(1, 2 ** (k - 1)):
        if any((mask & s) in (sides, s ^ sides) for s, sides in nogoods):
            continue
        upper = [i for i in range(k) if mask >> i & 1]
        lower = [i for i in range(k) if not mask >> i & 1]
        rows = list(pos_rows)
        for i in upper:
            rows.append((frame[neg[i]] + (-1, 0), 1, ">="))
        for i in lower:
            rows.append((tuple(-c for c in frame[neg[i]]) + (0, 1), 1, ">="))
        rows.append(((0,) * n + (1, -1), 0, ">="))
        res = lp.feasible(lp.LinearSystem.build(n + 2, rows))
        if res.is_feasible:
            v = _unframe(f, res.witness[:n])
            a, b = res.witness[n], res.witness[n + 1]
            if not verify_enclosing_pair(f, v, a, b, strict=True):
                raise RuntimeError("enclosing witness failed re-verification")
            return EnclosingWitness(v, a, b, True)
        s = sum(1 << i for i, y in zip(upper + lower, res.farkas[len(pos_rows):]) if y)
        nogoods.append((s, mask & s))
    return None


def check_box_criterion(
    f: Signomial, config: Optional[CertifyConfig] = None
) -> Optional[CriterionCertificate]:
    """Strict enclosing pair plus a negative pair on opposite sides whose
    segment misses the hull of the positives, each segment LP on f's
    lattice frame."""
    config = config or CertifyConfig()
    neg, pos = f.negative_indices, f.positive_indices
    if not pos:
        return None
    pair = find_strict_enclosing_pair(f, config.enclosing_max_negatives)
    if pair is None:
        return None
    frame = f.frame
    values, (a, b) = frame_values(f, pair.normal, pair.upper, pair.lower)
    above = [i for i in neg if values[i] >= a]
    below = [i for i in neg if values[i] <= b]
    hull = [frame[i] for i in pos]
    for i in above:
        for j in below:
            res = lp.separate_segment_from_hull(frame[i], frame[j], hull)
            if res.is_feasible:
                wn, wc = _unframe(f, res.witness[: f.dimension]), res.witness[f.dimension]
                witness = BoxWitness(pair, f.support[i], f.support[j], wn, wc)
                return CriterionCertificate(BOX, True, witness)
    return None


def closure_property(
    f: Signomial,
    facet_budget: Optional[int] = None,
    newton: Optional[Callable[[], Polytope]] = None,
    separating: Optional[Callable[[], Optional[SeparatingWitness]]] = None,
) -> bool:
    """True when the closure of the negative region provably equals the set
    where f <= 0: strict separating hyperplane, or all negative exponents on a
    proper face of the Newton polytope.  False means "not certified".

    A caller that shares them with ``check_connectivity`` passes ``newton``,
    returning N(f) (built within ``facet_budget`` when not given), and
    ``separating``, returning the strict separating hyperplane search's
    result (run here when not given)."""
    neg, pos = f.negative_indices, f.positive_indices
    if not f.terms:
        return False
    if not neg or not pos:
        return True  # f has constant sign on the whole orthant
    sep = separating() if separating is not None else find_strict_separating_hyperplane(f)
    if sep is not None:
        return True
    P = newton() if newton is not None else build_polytope(f.support, facet_budget)
    _, proper = smallest_face_containing(P, neg)
    return proper


def hull_indices(P: Polytope, f: Signomial) -> Sequence[int]:
    """The index in ``P.points`` of each of f's exponents: the term indices
    themselves when P is f's own hull, else looked up for a caller's larger
    hull (KeyError when an exponent is not a point of P)."""
    if P.points == f.support:
        return range(len(f.terms))
    index = {p: i for i, p in enumerate(P.points)}
    return [index[mu] for mu in f.support]


def negative_vertex_functional(
    f: Signomial, P: Optional[Polytope] = None, index: Optional[Sequence[int]] = None
) -> Optional[Tuple[Vector, Vector]]:
    """First negative exponent that is a vertex of the Newton polytope,
    together with a functional u exposing it strictly (u.beta > u.q for every
    other support point q); certifies the negative region is nonempty.

    ``P`` defaults to the Newton polytope of f; it may also be the hull of a
    larger point set of which f's support is a face, since the vertices of a
    face are the vertices of the hull that lie in it.  ``index`` gives the
    index in ``P.points`` of each of f's exponents when the caller holds it,
    as for a restriction of P's points by index.  The functional is the
    sum of the normals of the facets through the vertex, or zero when the
    hull is the vertex alone.
    """
    if P is None:
        P = build_polytope(f.support)
    if index is None:
        index = hull_indices(P, f)
    for i in f.negative_indices:
        if index[i] in P.vertices:
            return f.support[i], face_exposing_normal(P, [index[i]])
    return None


def _simplex_certificate(w: SimplexWitness) -> CriterionCertificate:
    kind = SIMPLEX_NEGATIVES_INSIDE if w.mode == MODE_NEGATIVES_INSIDE else SIMPLEX_POSITIVES_INSIDE
    return CriterionCertificate(kind, kind in _NONEMPTY_KINDS, w)


def _combinations_holding(vertices: frozenset, count: int, size: int) -> Iterator[Tuple[int, ...]]:
    """The combinations of ``size`` indices below ``count`` that hold every
    index in ``vertices``, in the order of ``combinations(range(count),
    size)``: adding a fixed set to sorted choices from the rest keeps it."""
    rest = [i for i in range(count) if i not in vertices]
    for extra in combinations(rest, size - len(vertices)):
        yield tuple(sorted(vertices.union(extra)))


def _simplex_search(f: Signomial, config: CertifyConfig, newton=None) -> Optional[CriterionCertificate]:
    """First simplex witness spanned by n + 1 support points, combinations in
    sorted order and negatives-inside before positives-inside.

    Only candidates proven to fail are skipped.  The simplex is derived once
    per combination, in the support's lattice frame; an affinely dependent
    one raises DegenerateSimplexError and is passed over.  A vertex of the
    Newton polytope N(f) that lies in the simplex, which is inside N(f), is
    a vertex of the simplex too, so negatives-inside needs every negative
    vertex of N(f) among the combination's points and positives-inside
    every positive one.  Without the hull, as when it exceeds the facet
    budget, nothing is skipped this way; a hull of dimension below n leaves
    no simplex at all.
    """
    support = f.support
    n = f.dimension
    if len(support) < n + 1:
        return None
    needed = {MODE_NEGATIVES_INSIDE: set(), MODE_POSITIVES_INSIDE: set()}
    try:
        P = newton() if newton is not None else build_polytope(support, config.facet_budget)
    except FacetBudgetExceededError:
        pass
    else:
        if P.dim < n:
            return None
        for i in P.vertices:
            positive = f.terms[i].coefficient > 0
            needed[MODE_POSITIVES_INSIDE if positive else MODE_NEGATIVES_INSIDE].add(i)
    # only the combinations that hold every needed vertex of some mode, in
    # sorted order; none when each mode needs more than n + 1 vertices
    holding = {frozenset(v) for v in needed.values() if len(v) <= n + 1}
    frame = f.frame
    for combo, _ in groupby(merge(*(_combinations_holding(v, len(support), n + 1) for v in holding))):
        modes = [mode for mode, vertices in needed.items() if vertices.issubset(combo)]
        try:
            derived = simplex_halfspaces([frame[i] for i in combo])
        except DegenerateSimplexError:
            continue
        for mode in modes:
            if _simplex_holds(f, frame, mode, None, derived):
                return _simplex_certificate(SimplexWitness(tuple(support[i] for i in combo), mode))
    return None


def check_connectivity(
    f: Signomial,
    config: Optional[CertifyConfig] = None,
    newton: Optional[Callable[[], Polytope]] = None,
) -> Optional[CriterionCertificate]:
    """First applicable single-shot criterion, or None.

    Order: empty negative support, empty positive support, one negative
    coefficient, strict separating hyperplane, one positive coefficient (hull
    dimension >= 2), simplex witness, then the box criterion when enabled.
    ``newton`` returns N(f) for the simplex search (built when not given).
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
            return _simplex_certificate(w)
    if config.enable_simplex_search:
        found = _simplex_search(f, config, newton)
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
