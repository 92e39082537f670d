"""The signed support as exponent vectors, for the tests and the frozen
oracles: the library reads it as the sign indices of the frame."""

from typing import Tuple

from descregions.linalg import Vector, vector
from descregions.signomial import Signomial


def positives(f: Signomial) -> Tuple[Vector, ...]:
    """The exponents of the positive terms, in term order, as Fractions."""
    return tuple([vector(f.exponent(i)) for i in f.positive_indices])


def negatives(f: Signomial) -> Tuple[Vector, ...]:
    """The exponents of the negative terms, in term order, as Fractions."""
    return tuple([vector(f.exponent(i)) for i in f.negative_indices])
