"""Exact rational linear feasibility (phase-I simplex, Bland's rule).

Only feasibility is ever needed: the questions asked here (separating and
enclosing hyperplanes, segment/hull disjointness) are positively homogeneous,
so strict inequalities are pre-normalized by the callers to a ">= 1" slack.
Vertex, edge and face questions need no LP: ``polytope`` answers them from
the hull's facet incidences.  Pivoting follows Bland's rule with a fixed row
order, so the returned witnesses are deterministic.

The tableau holds Python integers: the rows are scaled by the lcm of every
denominator in the system, and the rational tableau is the integer one over
a single common denominator, the determinant of the current basis.  Each
pivot updates the rows fraction-free (Edmonds 1967, Bareiss 1968, as in
Avis's lrs) with exact integer divisions, so no ``Fraction`` is formed until
the witness is read off.  Both answers are checked exactly before they are
returned, on the same integer rows: a witness x = values / d must satisfy
every row, as row . values >= rhs * d, and an infeasible answer carries a
Farkas certificate y, read off the final objective row, with y >= 0 on the
">=" rows, sum y_i coeffs_i = 0 and sum y_i rhs_i > 0.

The tableau stores only the u columns of the split x = u - w, one
artificial column per row and the right-hand side.  Row operations keep
every linear relation between columns, so the others are read off these:
w_j is -u_j, and the surplus of row r is -L s_r times its artificial (s_r
the row's sign flip), with reduced cost L y_r for the multiplier y_r that
the Farkas readout uses.  Pricing, the ratio test and the readout run over
the full set of columns in the same order, so Bland's rule walks the same
bases as on the wide tableau, with the same witnesses and Farkas vectors.

Rows may hold ints or Fractions.  The criteria build theirs as ints from a
signomial's lattice frame, which multiplies the exponent columns by L: a
positive column scaling changes every reduced cost of a column and every
ratio of the entering column by a positive factor only, so Bland's rule
walks the same bases, the witness on the frame is v / L in those columns,
and the Farkas certificate keeps its support.  The witness comes back as
Fractions; the criteria multiply the normal by L.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, List, Literal, Optional, Sequence, Tuple, Union

from .linalg import IntVector, Vector, dot, lattice

Relation = Literal[">=", "="]

ZERO = Fraction(0)


Number = Union[int, Fraction]


def _exact(x) -> Number:
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class LinearRow:
    coeffs: Tuple[Number, ...]
    rhs: Number
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
        """Rows from (coefficients, rhs, relation); ints and Fractions are
        kept as they are, anything else becomes a Fraction."""
        built = tuple(
            LinearRow(tuple(map(_exact, c)), _exact(b), rel) for c, b, rel in rows
        )
        return LinearSystem(unknowns, built)

    @cached_property
    def lattice(self) -> Tuple[int, Tuple[Tuple[IntVector, int, Relation], ...]]:
        """The lcm L of every denominator in the system, and the rows
        (coefficients, right-hand side, relation) times L as ints."""
        scale, lines = lattice([(*row.coeffs, row.rhs) for row in self.rows])
        return scale, tuple((line[:-1], line[-1], row.relation) for line, row in zip(lines, self.rows))


@dataclass(frozen=True)
class FeasibilityResult:
    witness: Optional[Vector]  # None means infeasible
    # for an infeasible system, row multipliers y (checked by ``_refutes``)
    # with y >= 0 on the ">=" rows, sum y_i coeffs_i = 0 and sum y_i rhs_i > 0
    farkas: Optional[Tuple[int, ...]] = None

    @property
    def is_feasible(self) -> bool:
        return self.witness is not None


def _satisfies(system: LinearSystem, x: Sequence[int], d: int) -> bool:
    """Whether x / d (d > 0) satisfies every row, checked on the integer rows."""
    for coeffs, rhs, relation in system.lattice[1]:
        lhs, target = dot(coeffs, x), rhs * d
        if lhs < target or (relation == "=" and lhs != target):
            return False
    return True


def _refutes(system: LinearSystem, y: Sequence[int]) -> bool:
    """Whether y is a Farkas certificate: combining the rows with y gives
    0 . x >= (or =) a positive number, which no x satisfies.  Checked on the
    integer rows, a positive scaling of the system."""
    rows = system.lattice[1]
    if any(yi < 0 for yi, (_, _, relation) in zip(y, rows) if relation == ">="):
        return False
    for j in range(system.unknowns):
        if sum(yi * coeffs[j] for yi, (coeffs, _, _) in zip(y, rows)):
            return False
    return sum(yi * rhs for yi, (_, rhs, _) in zip(y, rows)) > 0


def _pivot_row(row: List[int], pivot_row: List[int], p: int, c: int, d: int) -> List[int]:
    """One fraction-free update of a non-pivot row whose entering-column
    entry is c: the pivot p becomes the common denominator in place of d."""
    if c == 0:
        return row if p == d else [p * a // d for a in row]
    return [(p * a - c * b) // d for a, b in zip(row, pivot_row)]


def feasible(system: LinearSystem) -> FeasibilityResult:
    """Exact feasibility of a system of >=/= rows over free rational unknowns.

    Free variables are split as x = u - w, ">=" rows get surplus variables,
    and a phase-I simplex minimizes the sum of one artificial per row.  An
    infeasible answer carries its Farkas certificate.
    """
    n = system.unknowns
    m = len(system.rows)
    if m == 0:
        return FeasibilityResult(tuple([ZERO] * n))

    # Every row is multiplied by the lcm L of all denominators, so surplus
    # coefficients read -L and an artificial, kept at coefficient 1, stands
    # for L times the artificial of the unscaled row.  Every reduced cost and
    # every ratio then changes by a positive factor only, so Bland's rule
    # walks the same bases as over the unscaled rationals.  The tableau
    # stores the u and artificial columns and the rhs (width n + m + 1).
    scale, rows = system.lattice
    width = n + m
    tableau: List[List[int]] = []
    signs: List[int] = []  # -1 for a row negated to make its rhs nonnegative
    for i, (coeffs, rhs, _) in enumerate(rows):
        s = -1 if rhs < 0 else 1
        line = [s * c for c in coeffs] + [0] * m + [s * rhs]
        line[n + i] = 1
        signs.append(s)
        tableau.append(line)

    # The virtual columns u, w, surplus, artificial, in Bland's order, as
    # (stored column, factor, shift): a constraint row holds factor * row[at]
    # and the reduced cost is factor * obj[at] + shift * d.  Row operations
    # keep w_j = -u_j, and surplus r = -L s_r art_r; the objective row is
    # d c - y A, so surplus r costs L s_r (d - obj[art_r]), L times the
    # multiplier y_r of the Farkas readout below.
    columns = [(j, 1, 0) for j in range(n)] + [(j, -1, 0) for j in range(n)]
    columns += [(n + i, -scale * s, scale * s) for i, s in enumerate(signs) if rows[i][2] == ">="]
    columns += [(n + i, 1, 0) for i in range(m)]
    basis = [len(columns) - m + i for i in range(m)]
    # phase-I objective: minimize the sum of artificials; start from the
    # reduced costs for the all-artificial basis
    obj = [-sum(column) for column in zip(*tableau)]
    obj[n:width] = [0] * m

    # The rational tableau is tableau / d, where d is the determinant of the
    # current basis.  Every entry of tableau is then a minor of the starting
    # one, so the divisions in ``_pivot_row`` are exact (Edmonds, Bareiss).
    d = 1
    while True:
        enter = next((j for j, (at, f, sh) in enumerate(columns) if f * obj[at] + sh * d < 0), -1)
        if enter < 0:
            break
        at, f, sh = columns[enter]
        entering = [f * row[at] for row in tableau]
        leave = -1
        for i, a in enumerate(entering):
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # rhs_i / a against rhs_leave / a_leave, cross-multiplied
                here = tableau[i][width] * entering[leave]
                best = tableau[leave][width] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # phase-I objective is bounded below by 0; unbounded cannot occur
            raise RuntimeError("phase-I simplex became unbounded")
        pivot_row = tableau[leave]
        p = entering[leave]
        for i in range(m):
            if i != leave:
                tableau[i] = _pivot_row(tableau[i], pivot_row, p, entering[i], d)
        obj = _pivot_row(obj, pivot_row, p, f * obj[at] + sh * d, d)
        if f * obj[at] + sh * p != 0:
            # a broken update; without this the entering column could stay
            # negative and be chosen again forever
            raise RuntimeError("pivot left the entering column with a nonzero reduced cost")
        d = p
        basis[leave] = enter

    if obj[width] != 0:
        # the simplex multipliers d * pi_i = d - obj[art_i]; undoing the row
        # negation turns them into multipliers of the rows as given
        y = tuple(s * (d - obj[n + i]) for i, s in enumerate(signs))
        if not _refutes(system, y):
            raise RuntimeError("simplex produced an invalid Farkas certificate")
        return FeasibilityResult(None, y)

    values = [0] * len(columns)
    for i, b in enumerate(basis):
        values[b] = tableau[i][width]
    x = [values[j] - values[n + j] for j in range(n)]
    if not _satisfies(system, x, d):
        raise RuntimeError("simplex produced an invalid witness")
    return FeasibilityResult(tuple(Fraction(a, d) for a in x))


def separate_segment_from_hull(b1: Sequence, b2: Sequence, hull_points: Sequence[Sequence]) -> FeasibilityResult:
    """Strictly separate the segment [b1, b2] from the convex hull of a point set.

    Feasible exactly when the segment and the hull are disjoint; the witness
    (w, c) satisfies w.b1 >= c+1, w.b2 >= c+1 and w.p <= c for every hull
    point (the unit slack is harmless by homogeneity).  The points may be
    exact rationals or their rows in a lattice frame of scale L: scaling the
    points is a positive scaling of the w columns, which Bland's rule
    follows through the same bases, so the frame's witness is (w / L, c).
    """
    if not hull_points:
        raise ValueError("hull_points must be nonempty")
    n = len(b1)
    rows = []
    rows.append((tuple(b1) + (-1,), 1, ">="))
    rows.append((tuple(b2) + (-1,), 1, ">="))
    for p in sorted(hull_points):
        rows.append((tuple(-a for a in p) + (1,), 0, ">="))
    return feasible(LinearSystem.build(n + 1, rows))
