"""Sparse signomials with exact rational coefficients and exponents.

A signomial is a finite sum of terms ``c * x^mu`` with ``c`` a nonzero rational
and ``mu`` a rational exponent vector; it is a function on the open positive
orthant.  Everything here is exact except ``evaluate_log``, which works in
log coordinates (``x = exp(y)``) in floating point.

Coefficients and exponent entries are Fractions.  Each signomial also
carries its integer lattice frame: the scale L and the exponent rows times
L as ints, in term order, with the term indices of each sign.  The search
and replay both read exponents off the frame and restrict by term index.

The frame is built once per signomial, from ints, on every path in: the
public constructor frames the exponents with ``linalg.lattice``;
``from_terms`` (the parser's way in) hands over the frame it merged and
sorted on, ``restrict_indices`` the parent's rows at the kept indices, and
the trace reader the rows it read as ints, each shrunk to the least scale.
Every path ends in the same validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import gt, lt
from typing import Iterable, Sequence, Tuple

from .linalg import IntVector, Vector, affine_rank, lattice, vector

DEFAULT_TOLERANCE_FACTOR = 1e-12
# text, trace input and simplex witness vertices hold every exponent entry's
# reduced numerator and denominator below EXPONENT_BOUND
MAX_EXPONENT_DIGITS = 6
EXPONENT_BOUND = 10 ** MAX_EXPONENT_DIGITS


@dataclass(frozen=True)
class Term:
    coefficient: Fraction
    exponent: Vector

    def __post_init__(self):
        if self.coefficient == 0:
            raise ValueError("term coefficient must be nonzero")


@dataclass(frozen=True)
class Signomial:
    """Immutable signomial; terms are kept sorted lexicographically by exponent.

    Construction also sets up the signomial's integer lattice frame:
    ``scale`` is the lcm L of the exponents' denominators and ``frame`` the
    exponent vectors times L as ints, in term order.  A positive scaling
    keeps the lexicographic order, so the sorted/distinct check runs on the
    frame rows.  ``negative_indices`` and ``positive_indices`` hold the term
    indices of each sign.  These are derived, so equality, hashing and repr
    see only the dimension and the terms.
    """

    dimension: int
    terms: Tuple[Term, ...]
    scale: int = field(init=False, repr=False, compare=False)
    frame: Tuple[IntVector, ...] = field(init=False, repr=False, compare=False)
    negative_indices: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    positive_indices: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._settle(*lattice([t.exponent for t in self.terms]))

    @classmethod
    def _framed(cls, dimension: int, terms: Tuple[Term, ...], scale: int, frame: Tuple[IntVector, ...]) -> "Signomial":
        """The signomial of the given terms, on the lattice frame (scale,
        frame) that the caller already holds: the exponents times scale as
        ints, with scale the lcm of their denominators.  The frame is
        trusted, not recomputed; the checks are those of the constructor."""
        f = object.__new__(cls)
        object.__setattr__(f, "dimension", dimension)
        object.__setattr__(f, "terms", terms)
        f._settle(scale, frame)
        return f

    def _settle(self, scale: int, frame: Tuple[IntVector, ...]) -> None:
        """Check the dimension, the exponent lengths and that the exponents
        are sorted and distinct (on the frame rows), then set the frame and
        the sign indices: the one validation of every way in."""
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if any(map(self.dimension.__ne__, map(len, frame))):
            raise ValueError("exponent length does not match dimension")
        if not all(map(lt, frame, frame[1:])):
            if any(map(gt, frame, frame[1:])):
                raise ValueError("terms must be sorted by exponent")
            raise ValueError("exponent vectors must be pairwise distinct")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "frame", frame)
        # a coefficient's sign is its numerator's (an int or a Fraction)
        negative = [t.coefficient.numerator < 0 for t in self.terms]
        object.__setattr__(self, "negative_indices", tuple(i for i, neg in enumerate(negative) if neg))
        object.__setattr__(self, "positive_indices", tuple(i for i, neg in enumerate(negative) if not neg))

    @staticmethod
    def from_terms(dimension: int, pairs: Iterable[tuple]) -> "Signomial":
        """Build from (coefficient, exponent) pairs, merging repeated exponents
        and dropping terms that cancel to zero.  Coefficients and exponent
        entries are ints or Fractions, taken as they are: the terms are
        merged and sorted by their exponents' rows in the lattice frame, and
        each surviving term's coefficient and entries become Fractions there,
        once.  The survivors keep their frame rows, shrunk when a cancelled
        term carried the largest denominator."""
        coeffs, rows = [], []
        for coeff, exp in pairs:
            row = tuple(exp)
            if len(row) != dimension:
                raise ValueError("exponent length does not match dimension")
            coeffs.append(coeff)
            rows.append(row)
        scale, keys = lattice(rows)
        acc: dict = {}  # frame row -> [coefficient, exponent row]
        for key, c, row in zip(keys, coeffs, rows):
            if key in acc:
                acc[key][0] += c
            else:
                acc[key] = [c, row]
        kept = [key for key in sorted(acc) if acc[key][0] != 0]
        terms = tuple(Term(Fraction(c), vector(row)) for c, row in map(acc.__getitem__, kept))
        return Signomial._framed(dimension, terms, *_shrink(scale, kept))

    @property
    def support(self) -> Tuple[Vector, ...]:
        return tuple(t.exponent for t in self.terms)

    def coefficient(self, exponent: Vector) -> Fraction:
        for t in self.terms:
            if t.exponent == exponent:
                return t.coefficient
        return Fraction(0)


@dataclass(frozen=True)
class SignedSupport:
    positives: frozenset
    negatives: frozenset


def signed_support(f: Signomial) -> SignedSupport:
    """Partition the support by coefficient sign."""
    return SignedSupport(frozenset(positives(f)), frozenset(negatives(f)))


def positives(f: Signomial) -> Tuple[Vector, ...]:
    return tuple(f.terms[i].exponent for i in f.positive_indices)


def negatives(f: Signomial) -> Tuple[Vector, ...]:
    return tuple(f.terms[i].exponent for i in f.negative_indices)


def restrict(f: Signomial, exponents: Iterable[Sequence]) -> Signomial:
    """Restriction of f to a set of exponent vectors; the result keeps only the
    terms whose exponent lies in the set and may be empty."""
    keep = {vector(e) for e in exponents}
    return Signomial(f.dimension, tuple(t for t in f.terms if t.exponent in keep))


def restrict_indices(f: Signomial, indices: Iterable[int]) -> Signomial:
    """Restriction of f to the terms at the given increasing indices, framed
    by f's frame rows at those indices, shrunk to the child's own scale."""
    indices = tuple(indices)
    rows = [f.frame[i] for i in indices]
    return Signomial._framed(f.dimension, tuple([f.terms[i] for i in indices]), *_shrink(f.scale, rows))


def _shrink(scale: int, rows: Sequence[IntVector]) -> Tuple[int, Tuple[IntVector, ...]]:
    """The frame of points given as int rows on a frame of scale L, at the
    points' own least scale: with g the gcd of L and every entry, that is
    L // g (the lcm of the denominators of the entries over L), and the rows
    are divided by g.  With L = 1 the rows are kept as they are."""
    g = math.gcd(scale, *(a for row in rows for a in row)) if scale != 1 else 1
    if g == 1:
        return scale, tuple(rows)
    return scale // g, tuple([tuple([a // g for a in row]) for row in rows])


def newton_dim(f: Signomial) -> int:
    """Dimension of the convex hull of the support (-1 when f has no terms),
    read off the lattice frame."""
    return affine_rank(f.frame)


def evaluate_log(f: Signomial, y: Sequence[float]) -> float:
    """Value of f at x = exp(y), i.e. sum of c * exp(mu . y).

    Raises OverflowError when a term exceeds the float range.
    """
    if len(y) != f.dimension:
        raise ValueError("point length does not match dimension")
    total = 0.0
    for t in f.terms:
        e = sum(float(m) * float(c) for m, c in zip(t.exponent, y))
        total += float(t.coefficient) * math.exp(e)
    return total
