"""Exact linear feasibility of integer ">=" rows (phase-I simplex, Bland's rule).

Only feasibility is ever needed: the questions asked here (separating and
enclosing hyperplanes, segment/hull disjointness) are positively homogeneous,
so strict inequalities are pre-normalized by the callers to a ">= 1" slack.
Vertex, edge and face questions need no LP: ``polytope`` answers them from
the hull's facet incidences.  Pivoting follows Bland's rule with a fixed
variable order, so the returned witnesses are deterministic.

A system is its number of unknowns and rows (coeffs, rhs) of Python ints,
each read as coeffs . x >= rhs over free rational unknowns x.  The criteria build them
from a signomial's lattice frame, which multiplies the exponent columns by
L: a positive column scaling changes every reduced cost of a column and
every ratio of the entering column by a positive factor only, so Bland's
rule walks the same bases as on the rational rows, the witness on the frame
is v / L in those columns, and the Farkas certificate keeps its support.
The criteria compare on the frame with the int witness and multiply the
normal by L.

The simplex is narrow (Chvatal, *Linear Programming*, ch. 2-3 and 8).  Row r
reads coeffs . x - s_r = rhs, with a surplus s_r >= 0.  A row whose rhs is
<= 0 starts with its surplus basic; only the others get an artificial, and
phase I minimizes their sum.  The tableau is a dictionary, one row per basic
variable and one column per nonbasic one, so the separating LP with one
strict row is n + 3 entries wide.  In a pivot the leaving variable takes the
entering one's column, and an artificial is dropped once it leaves.  The
unknowns x stay free: one enters in whichever direction lowers the objective
and, once basic, is never ratio-tested, so it never leaves.  Phase I stops
once the sum is 0.

The tableau holds Python integers, the phase-I objective as its last row:
the rational dictionary is the integer one over a single common denominator
d, the determinant of the current basis.  Each pivot updates every other row
in place, fraction-free (Edmonds 1967, Bareiss 1968, as in Avis's lrs), with
exact integer divisions.  Both answers are checked exactly on the rows
before they are returned: a witness x = values / d must satisfy every row,
as row . values >= rhs * d, and comes back with (values, d); an infeasible
answer carries a Farkas certificate y >= 0 with sum y_i coeffs_i = 0 and
sum y_i rhs_i > 0.  The final objective row is the sum of the artificials
minus the combination y of the rows, so y_r is read off it as the reduced
cost of s_r (0 while s_r is basic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .linalg import IntVector, Vector, dot

LinearRow = Tuple[IntVector, int]  # (coeffs, rhs): coeffs . x >= rhs


@dataclass(frozen=True)
class LinearSystem:
    unknowns: int
    rows: Tuple[LinearRow, ...]

    def __post_init__(self):
        for coeffs, _ in self.rows:
            if len(coeffs) != self.unknowns:
                raise ValueError("row width does not match unknown count")


@dataclass(frozen=True)
class FeasibilityResult:
    witness: Optional[Vector]  # None means infeasible
    # for an infeasible system, row multipliers y (checked by ``_refutes``)
    # with y >= 0, sum y_i coeffs_i = 0 and sum y_i rhs_i > 0
    farkas: Optional[Tuple[int, ...]] = None
    pivots: int = field(default=0, compare=False)  # simplex pivots made
    # the witness on the integer rows: (values, d) with witness = values / d
    integer_witness: Optional[Tuple[IntVector, int]] = field(default=None, compare=False)

    @property
    def is_feasible(self) -> bool:
        return self.witness is not None


def _satisfies(system: LinearSystem, x: Sequence[int], d: int) -> bool:
    """Whether x / d (d > 0) satisfies every row."""
    return all(dot(coeffs, x) >= rhs * d for coeffs, rhs in system.rows)


def _refutes(system: LinearSystem, y: Sequence[int]) -> bool:
    """Whether y is a Farkas certificate: combining the rows with y >= 0
    gives 0 . x >= a positive number, which no x satisfies."""
    rows = system.rows
    if any(yi < 0 for yi in y):
        return False
    for j in range(system.unknowns):
        if sum(yi * coeffs[j] for yi, (coeffs, _) in zip(y, rows)):
            return False
    return sum(yi * rhs for yi, (_, rhs) in zip(y, rows)) > 0


def feasible(system: LinearSystem) -> FeasibilityResult:
    """Exact feasibility of a system of int ">=" rows over free rational
    unknowns.

    A phase-I simplex minimizes the sum of the artificials of the rows that
    need one.  An infeasible answer carries its Farkas certificate.
    """
    n = system.unknowns
    rows = system.rows
    m = len(rows)
    # variable labels, also Bland's order: x_j is j, the surplus of row r is
    # n + r and its artificial n + m + r; artificials never enter
    late = [r for r, (_, rhs) in enumerate(rows) if rhs > 0]
    labels = list(range(n)) + [n + r for r in late]  # the nonbasic variable of each column
    basis: List[int] = []
    tableau: List[List[int]] = []
    for r, (coeffs, rhs) in enumerate(rows):
        # basic + line . nonbasic = line[-1] >= 0, the basic's coefficient 1
        if rhs > 0:
            line = list(coeffs) + [-1 if q == r else 0 for q in late] + [rhs]
            basis.append(n + m + r)
        else:
            line = [-c for c in coeffs] + [0] * len(late) + [-rhs]
            basis.append(n + r)
        tableau.append(line)
    # the phase-I objective row, last in the tableau: the reduced costs times
    # d, and -d * (sum of the artificials) in its last entry
    obj = [0] * (len(labels) + 1)
    for line, b in zip(tableau, basis):
        if b >= n + m:
            obj = [o - a for o, a in zip(obj, line)]
    tableau.append(obj)

    # The rational dictionary is tableau / d, where d is the determinant of
    # the current basis.  Every entry of tableau is then a minor of the
    # starting one, so the divisions of a pivot are exact (Edmonds,
    # Bareiss).  Pivots are positive, so d stays positive.
    d, pivots = 1, 0
    while obj[-1]:  # until the artificials are all 0, or no pivot lowers their sum
        candidates = [j for j, v in enumerate(labels) if obj[j] < 0 or obj[j] and v < n]
        if not candidates:
            break
        e = min(candidates, key=labels.__getitem__)
        if obj[e] > 0:  # a free unknown entering downwards: negate its column
            for line in tableau:
                line[e] = -line[e]
            labels[e] = ~labels[e]
        leave = -1
        for i, (line, b) in enumerate(zip(tableau, basis)):
            a = line[e]
            # the least ratio rhs_i / a, cross-multiplied, then the lower label
            if a > 0 and b >= n and (
                leave < 0 or (line[-1] * tableau[leave][e], b) < (tableau[leave][-1] * a, basis[leave])
            ):
                leave = i
        if leave < 0:
            # phase-I objective is bounded below by 0; unbounded cannot occur
            raise RuntimeError("phase-I simplex became unbounded")
        # one fraction-free exchange of every other row, the objective's too:
        # the pivot p becomes the common denominator in place of d, and
        # column e, which the leaving variable takes over, becomes minus the
        # row's old entry there
        pivot_row = tableau[leave]
        p = pivot_row[e]
        for i, row in enumerate(tableau):
            c = row[e]
            if i == leave:
                continue
            if c:
                new = [(p * a - c * b) // d for a, b in zip(row, pivot_row)]
                new[e] = -c
                tableau[i] = new
            elif p != d:
                tableau[i] = [p * a // d for a in row]
        pivot_row[e] = d
        obj = tableau[-1]
        labels[e], basis[leave] = basis[leave], labels[e]
        d = p
        pivots += 1
        if labels[e] >= n + m:  # an artificial that left is dropped
            for line in tableau:
                del line[e]
            del labels[e]

    if obj[-1] != 0:
        cost = {v: obj[j] for j, v in enumerate(labels)}  # basic variables cost 0
        y = [cost.get(n + r, 0) for r in range(m)]
        if not _refutes(system, y):
            raise RuntimeError("simplex produced an invalid Farkas certificate")
        return FeasibilityResult(None, tuple(y), pivots)

    x = [0] * n
    for line, v in zip(tableau, basis):
        if v < 0:
            x[~v] = -line[-1]
        elif v < n:
            x[v] = line[-1]
    if not _satisfies(system, x, d):
        raise RuntimeError("simplex produced an invalid witness")
    return FeasibilityResult(tuple(Fraction(a, d) for a in x), None, pivots, (tuple(x), d))


def separate_segment_from_hull(
    b1: Sequence[int], b2: Sequence[int], hull_points: Sequence[Sequence[int]]
) -> FeasibilityResult:
    """Strictly separate the segment [b1, b2] from the convex hull of a point set.

    Feasible exactly when the segment and the hull are disjoint; the witness
    (w, c) satisfies w.b1 >= c+1, w.b2 >= c+1 and w.p <= c for every hull
    point (the unit slack is harmless by homogeneity).  The points are int
    rows of a lattice frame of scale L: scaling the points is a positive
    scaling of the w columns, which Bland's rule follows through the same
    bases, so the exact points' witness is (L * w, c) for the frame's (w, c).
    """
    if not hull_points:
        raise ValueError("hull_points must be nonempty")
    n = len(b1)
    rows = [(tuple(b1) + (-1,), 1), (tuple(b2) + (-1,), 1)]
    rows += [(tuple(-a for a in p) + (1,), 0) for p in sorted(hull_points)]
    return feasible(LinearSystem(n + 1, tuple(rows)))
