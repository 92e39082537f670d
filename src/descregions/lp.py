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

The tableau holds Python integers, column by column: one list per nonbasic
column and one for the right-hand side, each with its m row entries and the
phase-I objective's entry last.  The rational dictionary is the integer one
over a single common denominator d, the determinant of the current basis.
A pivot is fraction-free (Edmonds 1967, Bareiss 1968, as in Avis's lrs),
with exact integer divisions, skipped while d is 1: it rebuilds only the
columns whose entry in the pivot row is nonzero, scales the others when
the pivot is not d, and gives the entering column to the leaving variable,
negated with d in the pivot row.  Dropping an artificial deletes its
column, and the ratio test reads the entering column and the right-hand
side.  Both answers are checked exactly on the rows before they are
returned: a witness x = values / d must satisfy every row, as row . values
>= rhs * d, and comes back with (values, d); an infeasible answer carries a
Farkas certificate y >= 0 with sum y_i coeffs_i = 0 and sum y_i rhs_i > 0.
The final objective is the sum of the artificials minus the combination y
of the rows, so y_r is read off the objective entry of s_r's column as its
reduced cost (0 while s_r is basic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

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
    gives 0 . x >= a positive number, which no x satisfies.  Only the rows
    whose multiplier is nonzero are combined."""
    if any(yi < 0 for yi in y):
        return False
    total, bound = [0] * system.unknowns, 0
    for yi, (coeffs, rhs) in zip(y, system.rows):
        if yi:
            total = [t + yi * a for t, a in zip(total, coeffs)]
            bound += yi * rhs
    return bound > 0 and not any(total)


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
    basis = [n + m + r if rhs > 0 else n + r for r, (_, rhs) in enumerate(rows)]
    # Row r reads basic + sum of entries times nonbasics = right-hand side,
    # the basic's coefficient 1: a row with an artificial keeps its signs,
    # any other is negated.  Entry m of each column is the phase-I
    # objective's, the reduced cost times d; in the right-hand side, the
    # last column, it is -d * (sum of the artificials).
    signed = [coeffs if rhs > 0 else [-c for c in coeffs] for coeffs, rhs in rows]
    signed.append([-sum(c) for c in zip(*[rows[r][0] for r in late])] if late else [0] * n)
    cols = list(map(list, zip(*signed)))
    for r in late:
        col = [0] * (m + 1)
        col[r], col[m] = -1, 1
        cols.append(col)
    rhs = [abs(b) for _, b in rows]
    rhs.append(-sum([rhs[r] for r in late]))
    cols.append(rhs)

    # The rational dictionary is the tableau over d, the determinant of the
    # current basis.  Every entry is then a minor of the starting one, so
    # the divisions of a pivot are exact (Edmonds, Bareiss).  Pivots are
    # positive, so d stays positive.
    d, pivots = 1, 0
    while rhs[m]:  # until the artificials are all 0, or no pivot lowers their sum
        e = -1  # Bland: the least label whose column lowers the objective
        for j, v in enumerate(labels):
            c = cols[j][m]
            if (c < 0 or c and v < n) and (e < 0 or v < labels[e]):
                e = j
        if e < 0:
            break
        enter = cols[e]
        if enter[m] > 0:  # a free unknown entering downwards: negate its column
            enter = cols[e] = [-a for a in enter]
            labels[e] = ~labels[e]
        leave = -1
        for i in range(m):
            a = enter[i]
            # the least ratio rhs_i / a, cross-multiplied, then the lower label
            if a > 0 and basis[i] >= n:
                if leave < 0:
                    leave = i
                    continue
                here, best = rhs[i] * enter[leave], rhs[leave] * a
                if here < best or here == best and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            # phase-I objective is bounded below by 0; unbounded cannot occur
            raise RuntimeError("phase-I simplex became unbounded")
        # one fraction-free exchange: the pivot p becomes the common
        # denominator in place of d.  A column whose pivot-row entry q is
        # nonzero is rebuilt and keeps q there; any other is only scaled by
        # p / d.  The leaving variable takes over column e: minus the old
        # column, with d in the pivot row.
        p = enter[leave]
        for j, col in enumerate(cols):
            if j == e:
                continue
            q = col[leave]
            if q:
                if d == 1:
                    col = [p * a - q * b for a, b in zip(col, enter)]
                else:
                    col = [(p * a - q * b) // d for a, b in zip(col, enter)]
                col[leave] = q
                cols[j] = col
            elif p != d:
                cols[j] = [p * a // d for a in col] if d != 1 else [p * a for a in col]
        col = [-a for a in enter]
        col[leave] = d
        cols[e] = col
        rhs = cols[-1]
        labels[e], basis[leave] = basis[leave], labels[e]
        d = p
        pivots += 1
        if labels[e] >= n + m:  # an artificial that left is dropped
            del cols[e], labels[e]

    if rhs[m]:
        # y_r is the reduced cost of s_r, read off its column; a basic s_r costs 0
        y = [0] * m
        for v, col in zip(labels, cols):
            if v >= n:
                y[v - n] = col[m]
        if not _refutes(system, y):
            raise RuntimeError("simplex produced an invalid Farkas certificate")
        return FeasibilityResult(None, tuple(y), pivots)

    x = [0] * n
    for b, v in zip(rhs, basis):
        if v < 0:
            x[~v] = -b
        elif v < n:
            x[v] = b
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
