"""Single-shot connectivity criteria on the signed support.

Each criterion either certifies that the negative region has at most one
connected component (some additionally certify it is nonempty) or declines,
returning None, also past its budget; a Newton polytope past the facet
budget is None as well.
``check_connectivity`` runs them in a fixed order and returns the first
certificate; all returned witnesses re-verify under the exact ``verify_*``
checks of ``check``, the ones replay runs, before being handed out.  The
witness classes and criterion kinds live in ``check`` too.  The searches
read only the lattice frame; a witness point leaves as ``f.exponent(i)``.
"""

from __future__ import annotations

from heapq import merge
from itertools import combinations, groupby, islice
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from . import lp
from .check import (
    _NONEMPTY_KINDS,
    BOX,
    MAX_SIMPLEX_DIMENSION,
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
    _box_error,
    _simplex_holds,
    frame_values,
    simplex_halfspaces,
    verify_criterion,
    verify_enclosing_pair,
    verify_separating_hyperplane,
)
from .linalg import Vector, dot
from .polytope import Polytope, build_polytope, smallest_face_containing
from .signomial import Signomial, newton_dim


# Combinations one simplex search derives before it declines: far above the
# most a search derives (21 on the lowdim corpora, 56 on fixtures, 120 in tests).
SIMPLEX_SEARCH_BUDGET = 5_000


def _unframe(f: Signomial, w: Vector) -> Vector:
    """A normal found on f's lattice frame, back in f's own coordinates.

    The criteria's LPs are int ">=" rows on the frame: the normal's columns
    hold the exponents times L, a positive column scaling that Bland's rule
    follows through the same bases, so the frame's normal is w = v / L for
    the normal v of the same LP on the rational exponents, and offsets are
    unchanged."""
    return w if f.scale == 1 else tuple(f.scale * x for x in w)


def find_strict_separating_hyperplane(f: Signomial) -> Optional[SeparatingWitness]:
    """A strict separating hyperplane, from at most two feasibility problems.

    Both solve for (v, a) with v.beta >= a on the negatives and v.alpha <= a
    on the positives, with the rows taken from f's lattice frame.  The first
    adds v.beta0 >= a + 1 for the first negative beta0 in support order; the
    second adds sum(v.beta - a) >= 1 over the remaining negatives, which by
    homogeneity is feasible exactly when one of them can be made strict.
    The strict point is the first negative strictly above the hyperplane.

    The second is not solved when the first one's Farkas certificate y
    weighs every remaining negative's row: y >= 0 combines the rows to
    0 >= y_strict > 0, so every (v, a) meeting the weak rows is tight on
    each row y weighs, and none of those negatives can be made strict.
    """
    neg, pos = f.negative_indices, f.positive_indices
    if not neg or not pos:
        return None
    n = f.dimension
    frame = f.frame
    rows = [(frame[i] + (-1,), 0) for i in neg]
    rows += [(tuple(-c for c in frame[i]) + (1,), 0) for i in pos]
    strict_rows = [(frame[neg[0]] + (-1,), 1)]
    if len(neg) > 1:
        total = tuple(map(sum, zip(*(frame[i] for i in neg[1:]))))
        strict_rows.append((total + (1 - len(neg),), 1))
    for strict_row in strict_rows:
        res = lp.feasible(lp.LinearSystem(n + 1, (*rows, strict_row)))
        if res.is_feasible:
            values, _ = res.integer_witness  # (w, a) times d > 0
            beta0 = next(f.exponent(i) for i in neg if dot(values[:n], frame[i]) > values[n])
            v, a = _unframe(f, res.witness[:n]), res.witness[n]
            if not verify_separating_hyperplane(f, v, a, strict=True, strict_point=beta0):
                raise RuntimeError("separating witness failed re-verification")
            return SeparatingWitness(v, a, True, beta0)
        if all(res.farkas[1:len(neg)]):  # the rows of neg[1:]
            return None
    return None


def find_strict_enclosing_pair(
    f: Signomial, max_negatives: int = CertifyConfig.enclosing_max_negatives
) -> Optional[EnclosingWitness]:
    """Search for a strict enclosing pair by assigning the k negatives to the
    two outer sides, both sides required strictly outside, depth first.

    Assignment m (bit i set: the i-th negative above) is feasible exactly when
    its complement is, via (v, a, b) -> (-v, -b, -a), so the first feasible
    one of all 2^k - 2 leaves the last negative below.  The walk places the
    negatives k-2, ..., 0 in turn, below before above, so it reaches the
    full assignments 1 .. 2^(k-1) - 1 in increasing order, and solves each
    one it reaches on its own rows: the first feasible one is the pair.

    A partial assignment is feasible when its parent's exact witness
    satisfies the newly placed negative's row; otherwise its rows alone are
    solved.  An infeasible one cuts its whole subtree, and its Farkas
    certificate, on the rows of some set S of the placed negatives, refutes
    every assignment that puts S on the same sides, and by the symmetry every
    one that puts S on the opposite sides: a node that has placed all of S
    that way is skipped without a feasibility problem.  A certificate on
    every placed negative refutes only the node's own subtree, so it is not
    kept.

    The rows are taken from f's lattice frame.  Past ``max_negatives``
    negatives the search declines (None), as it does below two.
    """
    neg, pos = f.negative_indices, f.positive_indices
    k = len(neg)
    if not 2 <= k <= max_negatives:
        return None
    n = f.dimension
    frame = f.frame
    # unknowns: v (n), a, b; the rows of each negative on either side
    pos_rows = []
    for i in pos:
        pos_rows.append((tuple(-c for c in frame[i]) + (1, 0), 0))
        pos_rows.append((frame[i] + (0, -1), 0))
    above = [(frame[i] + (-1, 0), 1) for i in neg]
    below = [(tuple(-c for c in frame[i]) + (0, 1), 1) for i in neg]
    ordered = ((0,) * n + (1, -1), 0)
    # (S as a bit set, the sides of S refuted)
    nogoods: List[Tuple[int, int]] = []
    # (the negative just placed, the sides so far, the parent's exact
    # witness (values, d), None under the root)
    stack = [(k - 2, 1 << (k - 2), None), (k - 2, 0, None)]
    while stack:
        i, mask, parent = stack.pop()
        unplaced = (1 << i) - 1
        if any(not s & unplaced and (mask & s) in (sides, s ^ sides) for s, sides in nogoods):
            continue
        coeffs, rhs = above[i] if mask >> i & 1 else below[i]
        if i == 0 or parent is None or dot(coeffs, parent[0]) < rhs * parent[1]:
            if i == 0 and not mask:
                continue  # every negative below: not a strict pair
            upper = [j for j in range(i, k) if mask >> j & 1]
            lower = [j for j in range(i, k) if not mask >> j & 1]
            rows = pos_rows + [above[j] for j in upper] + [below[j] for j in lower] + [ordered]
            res = lp.feasible(lp.LinearSystem(n + 2, tuple(rows)))
            if not res.is_feasible:
                s = sum(1 << j for j, y in zip(upper + lower, res.farkas[len(pos_rows):]) if y)
                if s != (1 << k) - (1 << i):  # not every placed negative
                    nogoods.append((s, mask & s))
                continue
            if i == 0:
                v = _unframe(f, res.witness[:n])
                a, b = res.witness[n], res.witness[n + 1]
                if not verify_enclosing_pair(f, v, a, b, strict=True):
                    raise RuntimeError("enclosing witness failed re-verification")
                return EnclosingWitness(v, a, b, True)
            parent = res.integer_witness
        stack.append((i - 1, mask | 1 << (i - 1), parent))
        stack.append((i - 1, mask, parent))
    return None


def check_box_criterion(
    f: Signomial, config: Optional[CertifyConfig] = None
) -> Optional[CriterionCertificate]:
    """Strict enclosing pair plus a negative pair on opposite sides whose
    segment misses the hull of the positives, each segment LP on f's
    lattice frame; the pair search checks the pair, ``_box_error`` the rest."""
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
                witness = BoxWitness(pair, f.exponent(i), f.exponent(j), wn, wc)
                if _box_error(f, witness) is not None:
                    raise RuntimeError("box witness failed re-verification")
                return _certificate(BOX, witness)
    return None


def closure_property(
    f: Signomial,
    facet_budget: Optional[int] = None,
    newton: Optional[Callable[[], Optional[Polytope]]] = None,
    separating: Optional[Callable[[], Optional[SeparatingWitness]]] = None,
) -> Optional[bool]:
    """True when the closure of the negative region provably equals the set
    where f <= 0: strict separating hyperplane, or all negative exponents on a
    proper face of the Newton polytope.  False means "not certified", and
    None that the Newton polytope it needs passes ``facet_budget``.

    A caller that shares them with ``check_connectivity`` passes ``newton``,
    returning N(f) (built within ``facet_budget`` when not given), and
    ``separating``, returning the strict separating hyperplane search's
    result (run here when not given)."""
    neg, pos = f.negative_indices, f.positive_indices
    if not f.frame:
        return False
    if not neg or not pos:
        return True  # f has constant sign on the whole orthant
    sep = separating() if separating is not None else find_strict_separating_hyperplane(f)
    if sep is not None:
        return True
    P = newton() if newton is not None else build_polytope(f.frame, facet_budget)
    return None if P is None else any(smallest_face_containing(P, neg)[1])


def negative_vertex_functional(
    f: Signomial, P: Polytope, index: Sequence[int]
) -> Optional[Tuple[Vector, Vector]]:
    """First negative exponent that is a vertex of the Newton polytope,
    together with a functional u exposing it strictly (u.beta > u.q for every
    other support point q); certifies the negative region is nonempty.

    ``P`` is the hull of a point set of which f's support is a face (N(f)
    itself with ``index`` = ``range(len(f.frame))``), since the vertices of
    a face are the vertices of the hull that lie in it; ``index`` gives the
    index in ``P.points`` of each of f's terms, as for a restriction of P's
    points by index.  The functional is the vertex's exposing normal.
    """
    for i in f.negative_indices:
        if index[i] in P.vertices:
            return f.exponent(i), smallest_face_containing(P, [index[i]])[1]
    return None


def _certificate(kind: str, witness: object = None) -> CriterionCertificate:
    """A criterion's certificate, nonempty exactly for the kinds replay checks as nonempty."""
    return CriterionCertificate(kind, kind in _NONEMPTY_KINDS, witness)


def _simplex_kind(mode: str) -> str:
    return SIMPLEX_NEGATIVES_INSIDE if mode == MODE_NEGATIVES_INSIDE else SIMPLEX_POSITIVES_INSIDE


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
    no simplex at all.  Above MAX_SIMPLEX_DIMENSION variables the search
    declines, so it emits no witness that replay refuses, and it declines
    past SIMPLEX_SEARCH_BUDGET combinations.
    """
    frame = f.frame
    n = f.dimension
    if n > MAX_SIMPLEX_DIMENSION or len(frame) < n + 1:
        return None
    needed = {MODE_NEGATIVES_INSIDE: set(), MODE_POSITIVES_INSIDE: set()}
    P = newton() if newton is not None else build_polytope(frame, config.facet_budget)
    if P is not None:
        if P.dim < n:
            return None
        positive = set(f.positive_indices)
        for i in P.vertices:
            needed[MODE_POSITIVES_INSIDE if i in positive else MODE_NEGATIVES_INSIDE].add(i)
    # only the combinations that hold every needed vertex of some mode, in
    # sorted order; none when each mode needs more than n + 1 vertices
    holding = {frozenset(v) for v in needed.values() if len(v) <= n + 1}
    walk = groupby(merge(*(_combinations_holding(v, len(frame), n + 1) for v in holding)))
    for combo, _ in islice(walk, SIMPLEX_SEARCH_BUDGET):
        modes = [mode for mode, vertices in needed.items() if vertices.issubset(combo)]
        try:
            derived = simplex_halfspaces([frame[i] for i in combo])
        except DegenerateSimplexError:
            continue
        for mode in modes:
            if _simplex_holds(f, mode, None, derived):
                return _certificate(_simplex_kind(mode), SimplexWitness(tuple(map(f.exponent, combo)), mode))
    return None


def check_connectivity(
    f: Signomial,
    config: Optional[CertifyConfig] = None,
    newton: Optional[Callable[[], Polytope]] = None,
    inseparable: bool = False,
) -> Optional[CriterionCertificate]:
    """First applicable single-shot criterion, or None.

    Order: empty negative support, empty positive support, one negative
    coefficient, strict separating hyperplane, one positive coefficient (hull
    dimension >= 2), simplex witness, then the box criterion when enabled.
    ``newton`` returns N(f) for the simplex search (built when not given).
    ``inseparable`` says that f is known to have no strict separating
    hyperplane, so that search is skipped: ``certify`` passes it to the
    negative-face child of a node whose own search found none.
    A supplied ``config.simplex_witness`` is taken when ``verify_criterion``,
    the check replay runs, passes it, which it does only up to
    MAX_SIMPLEX_DIMENSION variables, as the search runs.
    """
    config = config or CertifyConfig()
    neg, pos = f.negative_indices, f.positive_indices
    if not neg:
        return _certificate(NO_NEGATIVE_TERMS)
    if not pos:
        return _certificate(NO_POSITIVE_TERMS)
    if len(neg) == 1:
        return _certificate(ONE_NEGATIVE_COEFF, f.exponent(neg[0]))
    sep = None if inseparable else find_strict_separating_hyperplane(f)
    if sep is not None:
        return _certificate(STRICT_SEPARATING, sep)
    if len(pos) == 1 and newton_dim(f) >= 2:
        return _certificate(ONE_POSITIVE_COEFF, f.exponent(pos[0]))
    if config.simplex_witness is not None:
        found = _certificate(_simplex_kind(config.simplex_witness.mode), config.simplex_witness)
        if verify_criterion(f, found) is None:
            return found
    if config.enable_simplex_search:
        found = _simplex_search(f, config, newton)
        if found is not None:
            return found
    if config.enable_box_criterion:
        return check_box_criterion(f, config)
    return None
