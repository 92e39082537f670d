"""Sparse signomials with exact rational coefficients and exponents.

A signomial is a finite sum of terms ``c * x^mu`` with ``c`` a nonzero rational
and ``mu`` a rational exponent vector; it is a function on the open positive
orthant.  Everything here is exact except ``evaluate_log``, which works in
log coordinates (``x = exp(y)``) in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .linalg import Vector, affine_rank, vector

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
    """Immutable signomial; terms are kept sorted lexicographically by exponent."""

    dimension: int
    terms: Tuple[Term, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        for t in self.terms:
            if len(t.exponent) != self.dimension:
                raise ValueError("exponent length does not match dimension")
        exps = [t.exponent for t in self.terms]
        if sorted(exps) != exps:
            raise ValueError("terms must be sorted by exponent")
        if len(set(exps)) != len(exps):
            raise ValueError("exponent vectors must be pairwise distinct")

    @staticmethod
    def from_terms(dimension: int, pairs: Iterable[tuple]) -> "Signomial":
        """Build from (coefficient, exponent) pairs, merging repeated exponents
        and dropping terms that cancel to zero."""
        acc: dict[Vector, Fraction] = {}
        for coeff, exp in pairs:
            mu = vector(exp)
            if len(mu) != dimension:
                raise ValueError("exponent length does not match dimension")
            acc[mu] = acc.get(mu, Fraction(0)) + Fraction(coeff)
        terms = tuple(
            Term(c, mu) for mu, c in sorted(acc.items()) if c != 0
        )
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
    pos = frozenset(t.exponent for t in f.terms if t.coefficient > 0)
    neg = frozenset(t.exponent for t in f.terms if t.coefficient < 0)
    return SignedSupport(pos, neg)


def positives(f: Signomial) -> Tuple[Vector, ...]:
    return tuple(t.exponent for t in f.terms if t.coefficient > 0)


def negatives(f: Signomial) -> Tuple[Vector, ...]:
    return tuple(t.exponent for t in f.terms if t.coefficient < 0)


def restrict(f: Signomial, exponents: Iterable[Sequence]) -> Signomial:
    """Restriction of f to a set of exponent vectors; the result keeps only the
    terms whose exponent lies in the set and may be empty."""
    keep = {vector(e) for e in exponents}
    return Signomial(f.dimension, tuple(t for t in f.terms if t.exponent in keep))


def newton_dim(f: Signomial) -> int:
    """Dimension of the convex hull of the support (-1 when f has no terms)."""
    return affine_rank(f.support)


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
