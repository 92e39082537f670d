"""Sparse signomials on their integer lattice frame.

A signomial is a finite sum of terms ``c * x^mu`` with ``c`` a nonzero rational
and ``mu`` a rational exponent vector; it is a function on the open positive
orthant.  Everything here is exact except ``evaluate_log``, which works in
log coordinates (``x = exp(y)``) in floating point.

A ``Signomial`` stores its exponents once, as its lattice frame: the scale
L (the lcm of their denominators) and the exponent rows times L as ints,
which every way in hands to the one constructor; it keeps the least scale,
dividing L and the rows by the gcd of L and every entry.  The search and
replay read only the frame, restrict by term index and look a rational
point up with ``term_index`` (None off f's lattice).  Rational exponents are made only
where a point leaves: ``exponent(i)`` for a witness (the row itself when
L = 1), and the ``terms`` and ``support`` views (row / L as Fractions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import gt, lt
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from .linalg import IntVector, Vector, affine_rank, lattice, vector

DEFAULT_TOLERANCE_FACTOR = 1e-12
# the caps of every way in: text, trace input and simplex witness vertices
# hold every exponent entry's reduced numerator and denominator below
# EXPONENT_BOUND (``exceeds_cap``, the one test of an entry); text and trace
# input have at most MAX_TERMS terms in at most MAX_VARIABLE_INDEX variables
MAX_EXPONENT_DIGITS = 6
EXPONENT_BOUND = 10 ** MAX_EXPONENT_DIGITS
MAX_VARIABLE_INDEX = 1000
MAX_TERMS = 1000

Number = Union[int, Fraction]


def exceeds_cap(a: Number) -> bool:
    return abs(a.numerator) >= EXPONENT_BOUND or a.denominator >= EXPONENT_BOUND


@dataclass(frozen=True)
class Term:
    """An element of the ``Signomial.terms`` view."""

    coefficient: Fraction
    exponent: Vector


@dataclass(frozen=True)
class Signomial:
    """Immutable signomial: ``frame`` holds the exponent vectors times
    ``scale`` L as ints, sorted (the exponents' order, as L > 0) and
    distinct, on the least L, and ``coefficients`` the nonzero coefficients
    (ints or Fractions) in that order.  The sign indices are derived, so
    equality, hashing and repr do not see them."""

    dimension: int
    coefficients: Tuple[Number, ...]
    scale: int
    frame: Tuple[IntVector, ...]
    negative_indices: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    positive_indices: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coefficients, frame = self.coefficients, self.frame
        if not all(coefficients):
            raise ValueError("term coefficient must be nonzero")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if len(coefficients) != len(frame):
            raise ValueError("coefficient count does not match the frame rows")
        if any(map(self.dimension.__ne__, map(len, frame))):
            raise ValueError("exponent length does not match dimension")
        if not all(map(lt, frame, frame[1:])):
            if any(map(gt, frame, frame[1:])):
                raise ValueError("terms must be sorted by exponent")
            raise ValueError("exponent vectors must be pairwise distinct")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        g = math.gcd(self.scale, *(a for row in frame for a in row)) if self.scale > 1 else 1
        if g > 1:  # keep the least scale
            object.__setattr__(self, "scale", self.scale // g)
            object.__setattr__(self, "frame", tuple([tuple([a // g for a in row]) for row in frame]))
        # a coefficient's sign is its numerator's (an int or a Fraction)
        negative = [c.numerator < 0 for c in coefficients]
        object.__setattr__(self, "negative_indices", tuple(i for i, neg in enumerate(negative) if neg))
        object.__setattr__(self, "positive_indices", tuple(i for i, neg in enumerate(negative) if not neg))

    @classmethod
    def of_terms(cls, dimension: int, terms: Iterable[Term]) -> "Signomial":
        """The signomial of terms sorted by exponent and distinct."""
        terms = tuple(terms)
        return cls(dimension, tuple(t.coefficient for t in terms), *lattice([t.exponent for t in terms]))

    @staticmethod
    def from_terms(dimension: int, pairs: Iterable[tuple]) -> "Signomial":
        """Build from (coefficient, exponent) pairs of ints and Fractions,
        merging repeated exponents and dropping terms that cancel to zero,
        and frame the sorted survivors once, through ``lattice``."""
        acc: dict = {}  # exponent row -> coefficient; an int and an equal Fraction are one key
        for coeff, exp in pairs:
            row = tuple(exp)
            acc[row] = acc[row] + coeff if row in acc else coeff
        if any(map(dimension.__ne__, map(len, acc))):
            raise ValueError("exponent length does not match dimension")
        rows = sorted([row for row, c in acc.items() if c])
        return Signomial(dimension, tuple(map(acc.__getitem__, rows)), *lattice(rows))

    @property
    def terms(self) -> Tuple[Term, ...]:
        """A view: each term's coefficient and exponent as Fractions."""
        return tuple(map(Term, map(Fraction, self.coefficients), self.support))

    @property
    def support(self) -> Tuple[Vector, ...]:
        """A view: the exponent vectors, each row / L as Fractions."""
        return tuple([vector(self.exponent(i)) for i in range(len(self.frame))])

    def exponent(self, i: int) -> Sequence[Number]:
        """Term i's exponent as it leaves the program in a witness: the frame
        row itself when L = 1 (ints), else the row / L as Fractions."""
        L = self.scale
        return self.frame[i] if L == 1 else tuple([Fraction(a, L) for a in self.frame[i]])

    def frame_row(self, point: Sequence[Number]) -> Optional[IntVector]:
        """A point of ints and Fractions times L, as f's frame would hold it;
        None for a wrong length or an entry off f's exponent lattice (its
        denominator does not divide L)."""
        if len(point) != self.dimension:
            return None
        L = self.scale
        if any(L % a.denominator for a in point):
            return None
        return tuple([a.numerator * (L // a.denominator) for a in point])

    def term_index(self, point: Sequence[Number]) -> Optional[int]:
        """The index of the term whose exponent is ``point``, or None."""
        row = self.frame_row(point)
        return None if row is None else self._row_index.get(row)

    @cached_property
    def _row_index(self) -> Dict[IntVector, int]:
        return {row: i for i, row in enumerate(self.frame)}

    def coefficient(self, exponent: Sequence[Number]) -> Number:
        i = self.term_index(exponent)
        return 0 if i is None else self.coefficients[i]


@dataclass(frozen=True)
class SignedSupport:
    positives: frozenset
    negatives: frozenset


def signed_support(f: Signomial) -> SignedSupport:
    """Partition the support by coefficient sign."""
    return SignedSupport(frozenset(positives(f)), frozenset(negatives(f)))


def positives(f: Signomial) -> Tuple[Vector, ...]:
    return tuple([vector(f.exponent(i)) for i in f.positive_indices])


def negatives(f: Signomial) -> Tuple[Vector, ...]:
    return tuple([vector(f.exponent(i)) for i in f.negative_indices])


def restrict(f: Signomial, exponents: Iterable[Sequence]) -> Signomial:
    """Restriction of f to a set of exponent vectors; the result keeps only the
    terms whose exponent lies in the set and may be empty."""
    found = {f.term_index(e) for e in exponents}
    return restrict_indices(f, sorted(found - {None}))


def restrict_indices(f: Signomial, indices: Iterable[int]) -> Signomial:
    """Restriction of f to the terms at the given increasing indices, framed
    by f's frame rows at those indices, shrunk by the constructor."""
    indices = tuple(indices)
    rows = tuple([f.frame[i] for i in indices])
    return Signomial(f.dimension, tuple([f.coefficients[i] for i in indices]), f.scale, rows)


def newton_dim(f: Signomial) -> int:
    """Dimension of the convex hull of the support (-1 when f has no terms),
    the affine rank of the frame rows."""
    return affine_rank(f.frame)


def evaluate_log(f: Signomial, y: Sequence[float]) -> float:
    """Value of f at x = exp(y), i.e. sum of c * exp(mu . y).

    Raises OverflowError when a term exceeds the float range.
    """
    if len(y) != f.dimension:
        raise ValueError("point length does not match dimension")
    L = f.scale
    total = 0.0
    for c, row in zip(f.coefficients, f.frame):
        # a / L is the correctly rounded float of the entry, as float(Fraction(a, L)) is
        e = sum(a / L * float(yk) for a, yk in zip(row, y))
        total += float(c) * math.exp(e)
    return total
