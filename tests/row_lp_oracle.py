"""The row-major phase-I kernel that ``lp.feasible`` replaced, frozen as a
differential oracle for the tests (like ``lp_oracle`` and ``fm_oracle``).

It walks the same Bland path as ``lp``: the same narrow dictionary (one
entry per nonbasic variable, an artificial only for a row with a positive
right-hand side, free unknowns that never leave), held as one list per
basic row with the phase-I objective row last, every other row updated in
each pivot.  ``_refutes`` here combines every row, whatever its multiplier.
The tests ask ``lp`` for the same witness, Farkas vector, pivot count and
integer witness on every system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from descregions.lp import FeasibilityResult, LinearSystem, _satisfies


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
