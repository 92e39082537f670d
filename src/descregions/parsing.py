"""Text format for signomials.

Grammar (whitespace insensitive)::

    poly   := ['-'] sterm (('+'|'-') sterm)*
    sterm  := coeff ['*' mono] | mono
    mono   := var ['^' exp] ('*' var ['^' exp])*
    exp    := ['-'] integer | '(' rational ')'
    coeff  := number | number '/' integer | '(' rational ')'

Variables are x1..xn with n <= MAX_VARIABLE_INDEX; x, y, z, w alias x1..x4
(every exponent vector has one entry per variable up to the largest index
used, so the cap bounds their size).  Decimal literals are converted
exactly to rationals (9.5 becomes 19/2).  Repeated monomials are merged.
A polynomial has at most MAX_TERMS terms as written.  Each number in an
exponent has at most MAX_EXPONENT_DIGITS digits, and so do the reduced
numerator and denominator of each exponent entry once a term's repeated
variables are merged (x^999999*x^999999 is refused), which is the cap that
trace input is held to as well.

Tokens are the strings of one ``re.findall``, each one's kind read off
its first character.  A valid parse makes no token offset: a ParseError
works out its line and column from the token's index, tokenizing the text
again up to it.  The parser walks the token and kind lists by index, reads
a plain power inline, and works on ints: only decimals and ratios are
Fractions.  Each term's exponent row is built once, as a tuple, and
``Signomial.from_terms`` merges and sorts the rows and frames the
survivors once, taking rows of ints as they are.  ``format_signomial``
writes the ``terms`` view.  An explicit dimension is held to
1..MAX_VARIABLE_INDEX.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice, repeat
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .signomial import EXPONENT_BOUND, MAX_EXPONENT_DIGITS, MAX_TERMS, MAX_VARIABLE_INDEX, Number, Signomial, exceeds_cap  # noqa: F401

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}

# one token per match, whitespace between: a number, a name, an operator or
# any other character, which is refused
_TOKEN_RE = re.compile(r"\d+(?:\.\d+)?|[A-Za-z]\w*|[-+*^()/]|\S")
# name -> index: the aliases, and each canonical xN (no leading zeros) once read
_VARIABLES = dict(_ALIASES)


class _Kinds(dict):
    r"""A token's kind by its first character: "number", "name", the operator
    itself, or "bad".  A number may start with any decimal digit, as ``\d``
    matches non-ASCII ones too."""

    def __missing__(self, first: str) -> str:
        return "number" if first.isdecimal() else "bad"


_KINDS = _Kinds({c: "name" for c in map(chr, range(128)) if c.isalpha()}, **{op: op for op in "-+*^()/"})
_KINDS.update(dict.fromkeys("0123456789", "number"))


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _position(text: str, index: int) -> Tuple[int, int]:
    """Line and column (both from 1) of token ``index`` of the text, or of
    the text's end for the index past its last token."""
    match = next(islice(_TOKEN_RE.finditer(text), index, None), None)
    offset = len(text) if match is None else match.start()
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


class _Parser:
    """Recursive descent over the token strings ``words`` and their
    ``kinds``, which end in an "eof" token; each method takes the index of
    its first token and returns its value with the index after it.
    Integral numbers stay ints and ratios become Fractions."""

    def __init__(self, text: str):
        self.text = text
        self.words = words = _TOKEN_RE.findall(text)
        self.kinds = kinds = list(map(_KINDS.__getitem__, map(itemgetter(0), words)))
        if "bad" in kinds:
            i = kinds.index("bad")
            raise self.error(f"unexpected character {words[i]!r}", i)
        words.append("")
        kinds.append("eof")

    def error(self, message: str, i: int) -> ParseError:
        """The error at token i, for the caller to raise."""
        return ParseError(message, *_position(self.text, i))

    def expect(self, kind: str, i: int) -> int:
        if self.kinds[i] != kind:
            raise self.error(f"expected {kind!r}, found {self.words[i]!r}", i)
        return i + 1

    def number(self, i: int, exponent: bool) -> Number:
        """The exact value of number token i, decimals included; in an
        exponent, more than MAX_EXPONENT_DIGITS digits are an error at the
        token."""
        text = self.words[i]
        if self.kinds[i] != "number":
            raise self.error(f"expected 'number', found {text!r}", i)
        try:
            value = Fraction(text) if "." in text else int(text)
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise self.error(f"number too long ({len(text)} characters)", i) from None
        if exponent and len(text) - text.count(".") > MAX_EXPONENT_DIGITS:
            raise self.error(f"exponent number has more than {MAX_EXPONENT_DIGITS} digits", i)
        return value

    # rational := ['-'] number ['/' number]
    def rational(self, i: int, exponent: bool = False) -> Tuple[Number, int]:
        negative = self.kinds[i] == "-"
        i += negative
        value = self.number(i, exponent)
        if self.kinds[i + 1] == "/":
            den = self.number(i + 2, exponent)
            if "." in self.words[i] or "." in self.words[i + 2]:
                raise self.error("ratio parts must be integers", i + 3)
            if den == 0:
                raise self.error("zero denominator", i + 2)
            value = Fraction(value, den)
            i += 2
        return -value if negative else value, i + 1

    def exponent(self, i: int) -> Tuple[Number, int]:
        if self.kinds[i] == "(":
            value, i = self.rational(i + 1, exponent=True)
            return value, self.expect(")", i)
        negative = self.kinds[i] == "-"
        i += negative
        value = self.number(i, exponent=True)
        if "." in self.words[i]:
            raise self.error("exponents must be integers or parenthesized rationals", i + 1)
        return -value if negative else value, i + 1

    def variable(self, i: int) -> int:
        """The index of name token i when it is not in ``_VARIABLES``."""
        name = self.words[i]
        m = re.fullmatch(r"x0*([1-9]\d*)", name)
        if m:
            # compare lengths first: int() refuses very long digit strings
            index = m.group(1)
            if len(index) > len(str(MAX_VARIABLE_INDEX)) or int(index) > MAX_VARIABLE_INDEX:
                raise self.error(f"variable {name!r} exceeds the largest index x{MAX_VARIABLE_INDEX}", i)
            if name == f"x{int(index)}":  # no leading zeros, ASCII digits
                _VARIABLES[name] = int(index)
            return int(index)
        raise self.error(f"unknown variable {name!r}", i)

    def sterm(self, i: int) -> Tuple[Number, Dict[int, Number], int]:
        """The term at token i: its coefficient, its exponents by variable
        index, and the index after it."""
        words, kinds = self.words, self.kinds
        start = i
        coeff: Number = 1
        exponents: Dict[int, Number] = {}
        if kinds[i] == "number":
            coeff, i = self.rational(i)
        elif kinds[i] == "(":
            coeff, i = self.rational(i + 1)
            i = self.expect(")", i)
        if i > start:  # after a coefficient
            if kinds[i] == "*":
                i += 1
            elif kinds[i] != "name":
                return coeff, exponents, i
        if kinds[i] != "name":
            raise self.error("expected a variable or coefficient", i)
        merged = False
        while True:  # at a name token
            var = _VARIABLES.get(words[i]) or self.variable(i)
            i += 1
            power: Number = 1
            if kinds[i] == "^":
                # at most MAX_EXPONENT_DIGITS digits are read here, any other power by ``exponent``
                text = words[i + 1]
                if text.isdecimal() and len(text) <= MAX_EXPONENT_DIGITS:
                    power = int(text)
                    i += 2
                else:
                    power, i = self.exponent(i + 1)
            if var in exponents:
                exponents[var] += power
                merged = True
            else:
                exponents[var] = power
            if kinds[i] == "*" and kinds[i + 1] == "name":
                i += 1
                continue
            break
        # one power is within the caps, so only a term with a repeated variable can pass them
        if merged:
            for var, power in exponents.items():
                if exceeds_cap(power):
                    raise self.error(f"merged exponent of x{var} has more than {MAX_EXPONENT_DIGITS} digits", start)
        return coeff, exponents, i

    def poly(self) -> Tuple[List[Number], List[Dict[int, Number]]]:
        """Each term's signed coefficient, and its exponents by variable index."""
        kinds = self.kinds
        coeffs: List[Number] = []
        monomials: List[Dict[int, Number]] = []
        negative = kinds[0] == "-"
        i = int(negative or kinds[0] == "+")
        while True:
            if len(coeffs) == MAX_TERMS:
                raise self.error(f"more than {MAX_TERMS} terms", i)
            coeff, exponents, i = self.sterm(i)
            coeffs.append(-coeff if negative else coeff)
            monomials.append(exponents)
            if kinds[i] == "eof":
                return coeffs, monomials
            if kinds[i] != "+" and kinds[i] != "-":
                raise self.error(f"expected '+' or '-', found {self.words[i]!r}", i)
            negative = kinds[i] == "-"
            i += 1


def parse_signomial(text: str, dimension: Optional[int] = None) -> Signomial:
    """Parse the text format; the dimension is the largest variable index used
    (1 when none is) unless given explicitly, and from 1 to MAX_VARIABLE_INDEX
    either way."""
    if dimension is not None and not 1 <= dimension <= MAX_VARIABLE_INDEX:
        bound = "is below 1" if dimension < 1 else f"exceeds the largest index x{MAX_VARIABLE_INDEX}"
        raise ParseError(f"dimension {dimension} {bound}", 1, 1)
    coeffs, monomials = _Parser(text).poly()
    max_var = max((max(e) for e in monomials if e), default=1)
    n = dimension if dimension is not None else max_var
    if max_var > n:
        raise ParseError(f"variable x{max_var} exceeds dimension {n}", 1, 1)
    indices = range(1, n + 1)
    rows = [tuple(map(e.get, indices, repeat(0))) for e in monomials]
    return Signomial.from_terms(n, zip(coeffs, rows))


def _format_exponent(e: Fraction) -> str:
    if e.denominator == 1:
        return f"^{e}" if e != 1 else ""
    return f"^({e})"


def _format_coefficient(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c)
    return f"({c})"


def format_signomial(f: Signomial) -> str:
    """Canonical text form; parses back to a structurally equal signomial."""
    if not f.terms:
        return "0"
    chunks = []
    for t in f.terms:
        mono = "*".join(
            f"x{i + 1}{_format_exponent(e)}" for i, e in enumerate(t.exponent) if e != 0
        )
        mag = abs(t.coefficient)
        if not mono:
            body = _format_coefficient(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_coefficient(mag)}*{mono}"
        chunks.append(("- " if t.coefficient < 0 else "+ ") + body)
    text = " ".join(chunks)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
