"""Exact rational linear feasibility (phase-I simplex, Bland's rule).

Only feasibility is ever needed: the questions asked here (separating and
enclosing hyperplanes, segment/hull disjointness) are positively homogeneous,
so strict inequalities are pre-normalized by the callers to a ">= 1" slack.
Vertex, edge and face questions need no LP: ``polytope`` answers them from
the hull's facet incidences.  Pivoting follows Bland's rule with a fixed row
order, so the returned witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Optional, Sequence, Tuple

from .linalg import Vector, dot, vector

Relation = Literal[">=", "="]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LinearRow:
    coeffs: Vector
    rhs: Fraction
    relation: Relation


@dataclass(frozen=True)
class LinearSystem:
    unknowns: int
    rows: Tuple[LinearRow, ...]

    def __post_init__(self):
        for r in self.rows:
            if len(r.coeffs) != self.unknowns:
                raise ValueError("row width does not match unknown count")

    @staticmethod
    def build(unknowns: int, rows: Iterable[tuple]) -> "LinearSystem":
        built = tuple(
            LinearRow(vector(c), Fraction(b), rel) for c, b, rel in rows
        )
        return LinearSystem(unknowns, built)


@dataclass(frozen=True)
class FeasibilityResult:
    witness: Optional[Vector]  # None means infeasible

    @property
    def is_feasible(self) -> bool:
        return self.witness is not None


INFEASIBLE = FeasibilityResult(None)


def _satisfies(system: LinearSystem, x: Sequence[Fraction]) -> bool:
    for row in system.rows:
        lhs = dot(row.coeffs, x)
        if row.relation == "=" and lhs != row.rhs:
            return False
        if row.relation == ">=" and lhs < row.rhs:
            return False
    return True


def feasible(system: LinearSystem) -> FeasibilityResult:
    """Exact feasibility of a system of >=/= rows over free rational unknowns.

    Free variables are split as x = u - w, ">=" rows get surplus variables,
    and a phase-I simplex minimizes the sum of one artificial per row.
    """
    n = system.unknowns
    m = len(system.rows)
    if m == 0:
        return FeasibilityResult(tuple([ZERO] * n))

    n_surplus = sum(1 for r in system.rows if r.relation == ">=")
    ncols = 2 * n + n_surplus + m  # u, w, surplus, artificial
    art0 = 2 * n + n_surplus

    tableau: list[list[Fraction]] = []
    surplus_at = 0
    for i, row in enumerate(system.rows):
        line = [ZERO] * (ncols + 1)
        for j, c in enumerate(row.coeffs):
            line[j] = c
            line[n + j] = -c
        if row.relation == ">=":
            line[2 * n + surplus_at] = -ONE
            surplus_at += 1
        line[ncols] = row.rhs
        if line[ncols] < 0:
            line = [-a for a in line]
        line[art0 + i] = ONE
        tableau.append(line)

    basis = [art0 + i for i in range(m)]
    # phase-I objective: minimize the sum of artificials; start from the
    # reduced costs for the all-artificial basis
    obj = [ZERO] * (ncols + 1)
    for j in range(ncols):
        col_sum = sum(tableau[i][j] for i in range(m))
        cost = ONE if j >= art0 else ZERO
        obj[j] = cost - col_sum
    obj[ncols] = -sum(tableau[i][ncols] for i in range(m))

    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # phase-I objective is bounded below by 0; unbounded cannot occur
            raise RuntimeError("phase-I simplex became unbounded")
        piv = tableau[leave][enter]
        tableau[leave] = [a / piv for a in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                c = tableau[i][enter]
                tableau[i] = [a - c * b for a, b in zip(tableau[i], tableau[leave])]
        if obj[enter] != 0:
            c = obj[enter]
            obj = [a - c * b for a, b in zip(obj, tableau[leave])]
        basis[leave] = enter

    if -obj[ncols] != 0:
        return INFEASIBLE

    values = [ZERO] * ncols
    for i, b in enumerate(basis):
        values[b] = tableau[i][ncols]
    witness = tuple(values[j] - values[n + j] for j in range(n))
    if not _satisfies(system, witness):
        raise RuntimeError("simplex produced an invalid witness")
    return FeasibilityResult(witness)


def separate_segment_from_hull(b1: Vector, b2: Vector, hull_points: Sequence[Vector]) -> FeasibilityResult:
    """Strictly separate the segment [b1, b2] from the convex hull of a point set.

    Feasible exactly when the segment and the hull are disjoint; the witness
    (w, c) satisfies w.b1 >= c+1, w.b2 >= c+1 and w.p <= c for every hull
    point (the unit slack is harmless by homogeneity).
    """
    if not hull_points:
        raise ValueError("hull_points must be nonempty")
    n = len(b1)
    rows = []
    rows.append((tuple(b1) + (-ONE,), ONE, ">="))
    rows.append((tuple(b2) + (-ONE,), ONE, ">="))
    for p in sorted(hull_points):
        rows.append((tuple(-a for a in p) + (ONE,), ZERO, ">="))
    return feasible(LinearSystem.build(n + 1, rows))
