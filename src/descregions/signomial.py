"""Sparse signomials with exact rational coefficients and exponents.

A signomial is a finite sum of terms ``c * x^mu`` with ``c`` a nonzero rational
and ``mu`` a rational exponent vector; it is a function on the open positive
orthant.  Everything here is exact except ``evaluate_log``, which works in
log coordinates (``x = exp(y)``) in floating point.

Coefficients and exponent entries are Fractions.  Each signomial also
carries its integer lattice frame, set up when it is built: the scale L
and the exponent rows times L as ints, in term order, with the term
indices of each sign.  The search and replay both read exponents off the
frame and restrict by term index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .linalg import IntVector, Vector, affine_rank, lattice, vector

DEFAULT_TOLERANCE_FACTOR = 1e-12


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
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        for t in self.terms:
            if len(t.exponent) != self.dimension:
                raise ValueError("exponent length does not match dimension")
        scale, frame = lattice([t.exponent for t in self.terms])
        pairs = list(zip(frame, frame[1:]))
        if any(a > b for a, b in pairs):
            raise ValueError("terms must be sorted by exponent")
        if any(a == b for a, b in pairs):
            raise ValueError("exponent vectors must be pairwise distinct")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "frame", frame)
        negative = [t.coefficient < 0 for t in self.terms]
        object.__setattr__(self, "negative_indices", tuple(i for i, neg in enumerate(negative) if neg))
        object.__setattr__(self, "positive_indices", tuple(i for i, neg in enumerate(negative) if not neg))

    @staticmethod
    def from_terms(dimension: int, pairs: Iterable[tuple]) -> "Signomial":
        """Build from (coefficient, exponent) pairs, merging repeated exponents
        and dropping terms that cancel to zero.  Coefficients and exponent
        entries are ints or Fractions, taken as they are: the terms are
        merged and sorted by their exponents' rows in the lattice frame, and
        each surviving term's coefficient and entries become Fractions there,
        once."""
        coeffs, rows = [], []
        for coeff, exp in pairs:
            row = tuple(exp)
            if len(row) != dimension:
                raise ValueError("exponent length does not match dimension")
            coeffs.append(coeff)
            rows.append(row)
        acc: dict = {}  # frame row -> [coefficient, exponent row]
        for key, c, row in zip(lattice(rows)[1], coeffs, rows):
            if key in acc:
                acc[key][0] += c
            else:
                acc[key] = [c, row]
        terms = tuple(Term(Fraction(c), vector(row)) for c, row in (acc[key] for key in sorted(acc)) if c != 0)
        return Signomial(dimension, terms)

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
    """Restriction of f to the terms at the given increasing indices."""
    return Signomial(f.dimension, tuple(f.terms[i] for i in indices))


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
