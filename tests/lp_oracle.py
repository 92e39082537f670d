"""The exact simplex on the full phase-I tableau, kept as an independent
oracle for the tests (like ``fm_oracle`` and ``parse_oracle``).

The tableau stores every column of the phase-I formulation: u and w for the
split x = u - w, one surplus and one artificial per row, and the
right-hand side, in that order, and starts from the all-artificial basis.
It shares only the system type, the result type and the exact checks with
``lp``, whose narrow dictionary (one column per nonbasic variable, held
column by column) walks another Bland path: the tests compare the
feasibility status, and check each kernel's witness or Farkas vector.
``row_lp_oracle`` is the one that walks ``lp``'s own path.
``int_system`` turns the tests' rational systems into ``lp``'s int rows.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List

from descregions.lp import FeasibilityResult, LinearSystem, _refutes, _satisfies

ZERO = Fraction(0)


def _pivot_row(row: List[int], pivot_row: List[int], p: int, enter: int, d: int) -> List[int]:
    """One fraction-free update of a non-pivot row: the pivot p becomes the
    common denominator in place of d."""
    c = row[enter]
    if c == 0:
        return [p * a // d for a in row]
    return [(p * a - c * b) // d for a, b in zip(row, pivot_row)]


def int_system(unknowns: int, rows) -> LinearSystem:
    """The rational rows (coeffs, rhs, relation), relation ">=" or "=", as
    the int ">=" rows ``lp`` takes: every row times the lcm L of all the
    system's denominators, a uniform positive scaling under which Bland's
    rule walks the same bases to the same witness, and an "=" row as the
    row and its negation."""
    scale = lcm(*(a.denominator for coeffs, rhs, _ in rows for a in (*coeffs, rhs)))
    out = []
    for coeffs, rhs, relation in rows:
        line = tuple(int(a * scale) for a in (*coeffs, rhs))
        out.append((line[:-1], line[-1]))
        if relation == "=":
            out.append((tuple(-a for a in line[:-1]), -line[-1]))
    return LinearSystem(unknowns, tuple(out))


def feasible(system: LinearSystem) -> FeasibilityResult:
    """Exact feasibility of a system of int ">=" rows over free rational
    unknowns.

    Free variables are split as x = u - w, every row gets a surplus
    variable, and a phase-I simplex minimizes the sum of one artificial per
    row.  An infeasible answer carries its Farkas certificate.
    """
    n = system.unknowns
    m = len(system.rows)
    if m == 0:
        return FeasibilityResult(tuple([ZERO] * n))

    ncols = 2 * n + 2 * m  # u, w, surplus, artificial
    art0 = 2 * n + m
    tableau: List[List[int]] = []
    signs: List[int] = []  # -1 for a row negated to make its rhs nonnegative
    for i, (coeffs, rhs) in enumerate(system.rows):
        line = [0] * (ncols + 1)
        line[:n] = coeffs
        line[n:2 * n] = [-c for c in coeffs]
        line[2 * n + i] = -1
        line[ncols] = rhs
        signs.append(-1 if rhs < 0 else 1)
        if rhs < 0:
            line = [-a for a in line]
        line[art0 + i] = 1
        tableau.append(line)

    basis = [art0 + i for i in range(m)]
    # phase-I objective: minimize the sum of artificials; start from the
    # reduced costs for the all-artificial basis
    obj = [-sum(column) for column in zip(*tableau)]
    obj[art0:ncols] = [0] * m

    # The rational tableau is tableau / d, where d is the determinant of the
    # current basis.  Every entry of tableau is then a minor of the starting
    # one, so the divisions in ``_pivot_row`` are exact (Edmonds, Bareiss).
    d = 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # rhs_i / a against rhs_leave / a_leave, cross-multiplied
                here = tableau[i][ncols] * tableau[leave][enter]
                best = tableau[leave][ncols] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # phase-I objective is bounded below by 0; unbounded cannot occur
            raise RuntimeError("phase-I simplex became unbounded")
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        for i in range(m):
            if i != leave:
                tableau[i] = _pivot_row(tableau[i], pivot_row, p, enter, d)
        obj = _pivot_row(obj, pivot_row, p, enter, d)
        if obj[enter] != 0:
            # a broken update; without this the entering column could stay
            # negative and be chosen again forever
            raise RuntimeError("pivot left the entering column with a nonzero reduced cost")
        d = p
        basis[leave] = enter

    if obj[ncols] != 0:
        # the simplex multipliers d * pi_i = d - obj[art_i]; undoing the row
        # negation turns them into multipliers of the rows as given
        y = tuple(s * (d - obj[art0 + i]) for i, s in enumerate(signs))
        if not _refutes(system, y):
            raise RuntimeError("simplex produced an invalid Farkas certificate")
        return FeasibilityResult(None, y)

    values = [0] * ncols
    for i, b in enumerate(basis):
        values[b] = tableau[i][ncols]
    x = [values[j] - values[n + j] for j in range(n)]
    if not _satisfies(system, x, d):
        raise RuntimeError("simplex produced an invalid witness")
    return FeasibilityResult(tuple(Fraction(a, d) for a in x))
