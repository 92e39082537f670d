"""The recursive-descent parser for the signomial text format as it stood
before the tokenizer moved to plain tuples and integer arithmetic, kept as an
independent oracle for the tests (like ``fm_oracle`` and ``hull_oracle``).

Tokens are frozen dataclasses carrying their line and column, and every
number is a ``Fraction`` from the start.  The one addition is the cap on
merged exponent entries, checked at the same point of ``sterm``.  ``_from_terms`` is the merge and
sort of ``Signomial.from_terms`` at the same point, on ``Fraction`` exponent
tuples, so the oracle does not share the frame-based sort either.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from descregions.linalg import vector
from descregions.signomial import Signomial, Term

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}
MAX_VARIABLE_INDEX = 1000
MAX_TERMS = 1000
MAX_EXPONENT_DIGITS = 6

_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*^()/])|(?P<ws>\s+)|(?P<bad>.)"
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | one-character operator | "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        col = m.start() - line_start + 1
        if m.lastgroup == "ws":
            nl = m.group().count("\n")
            if nl:
                line += nl
                line_start = m.start() + m.group().rfind("\n") + 1
            continue
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        kind = m.lastgroup if m.lastgroup != "op" else m.group()
        tokens.append(_Token(kind, m.group(), line, col))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


def _number(tok: _Token) -> Fraction:
    """The exact value of a number token, decimals included."""
    try:
        return Fraction(tok.text)
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise ParseError(f"number too long ({len(tok.text)} characters)", tok.line, tok.column) from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str):
        raise ParseError(message, self.here.line, self.here.column)

    def expect(self, kind: str) -> _Token:
        if self.here.kind != kind:
            self.error(f"expected {kind!r}, found {self.here.text!r}")
        return self.advance()

    def number(self, exponent: bool) -> Tuple[_Token, Fraction]:
        """The next number token and its value; in an exponent, more than
        MAX_EXPONENT_DIGITS digits are an error at the token."""
        tok = self.expect("number")
        value = _number(tok)
        if exponent and len(tok.text) - tok.text.count(".") > MAX_EXPONENT_DIGITS:
            raise ParseError(
                f"exponent number has more than {MAX_EXPONENT_DIGITS} digits", tok.line, tok.column
            )
        return tok, value

    # rational := ['-'] number ['/' number]
    def rational(self, exponent: bool = False) -> Fraction:
        negative = False
        if self.here.kind == "-":
            self.advance()
            negative = True
        num_tok, value = self.number(exponent)
        if self.here.kind == "/":
            self.advance()
            den_tok, den = self.number(exponent)
            if "." in num_tok.text or "." in den_tok.text:
                self.error("ratio parts must be integers")
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.column)
            value = value / den
        return -value if negative else value

    def exponent(self) -> Fraction:
        if self.here.kind == "(":
            self.advance()
            value = self.rational(exponent=True)
            self.expect(")")
            return value
        negative = False
        if self.here.kind == "-":
            self.advance()
            negative = True
        tok, value = self.number(exponent=True)
        if "." in tok.text:
            self.error("exponents must be integers or parenthesized rationals")
        return -value if negative else value

    def variable(self) -> int:
        tok = self.expect("name")
        name = tok.text
        if name in _ALIASES:
            return _ALIASES[name]
        m = re.fullmatch(r"x0*([1-9]\d*)", name)
        if m:
            # compare lengths first: int() refuses very long digit strings
            index = m.group(1)
            if len(index) > len(str(MAX_VARIABLE_INDEX)) or int(index) > MAX_VARIABLE_INDEX:
                raise ParseError(
                    f"variable {name!r} exceeds the largest index x{MAX_VARIABLE_INDEX}", tok.line, tok.column
                )
            return int(index)
        raise ParseError(f"unknown variable {name!r}", tok.line, tok.column)

    def sterm(self) -> Tuple[Fraction, dict]:
        start = self.here
        coeff = Fraction(1)
        exponents: dict[int, Fraction] = {}
        saw_coeff = False
        if self.here.kind == "number":
            coeff = self.rational()
            saw_coeff = True
        elif self.here.kind == "(":
            self.advance()
            coeff = self.rational()
            self.expect(")")
            saw_coeff = True
        if saw_coeff:
            if self.here.kind == "*":
                self.advance()
            elif self.here.kind != "name":
                return coeff, exponents
        if self.here.kind != "name":
            self.error("expected a variable or coefficient")
        while True:
            var = self.variable()
            power = Fraction(1)
            if self.here.kind == "^":
                self.advance()
                power = self.exponent()
            exponents[var] = exponents.get(var, Fraction(0)) + power
            if self.here.kind == "*" and self.tokens[self.pos + 1].kind == "name":
                self.advance()
                continue
            break
        bound = 10 ** MAX_EXPONENT_DIGITS
        for var, power in exponents.items():
            if abs(power.numerator) >= bound or power.denominator >= bound:
                raise ParseError(
                    f"merged exponent of x{var} has more than {MAX_EXPONENT_DIGITS} digits", start.line, start.column
                )
        return coeff, exponents

    def poly(self) -> List[Tuple[Fraction, dict]]:
        terms = []
        sign = Fraction(1)
        if self.here.kind == "-":
            self.advance()
            sign = Fraction(-1)
        elif self.here.kind == "+":
            self.advance()
        while True:
            if len(terms) == MAX_TERMS:
                self.error(f"more than {MAX_TERMS} terms")
            coeff, exponents = self.sterm()
            terms.append((sign * coeff, exponents))
            if self.here.kind == "eof":
                return terms
            if self.here.kind == "+":
                sign = Fraction(1)
            elif self.here.kind == "-":
                sign = Fraction(-1)
            else:
                self.error(f"expected '+' or '-', found {self.here.text!r}")
            self.advance()


def parse_signomial(text: str, dimension: Optional[int] = None) -> Signomial:
    """Parse the text format; the dimension is the largest variable index used
    unless given explicitly."""
    parser = _Parser(text)
    raw = parser.poly()
    max_var = max((max(e) for _, e in raw if e), default=1)
    n = dimension if dimension is not None else max_var
    if max_var > n:
        raise ParseError(f"variable x{max_var} exceeds dimension {n}", 1, 1)
    pairs = []
    for coeff, exponents in raw:
        vec = tuple(exponents.get(i, Fraction(0)) for i in range(1, n + 1))
        pairs.append((coeff, vec))
    return _from_terms(n, pairs)


def _from_terms(dimension: int, pairs) -> Signomial:
    acc = {}
    for coeff, exp in pairs:
        mu = vector(exp)
        acc[mu] = acc.get(mu, Fraction(0)) + Fraction(coeff)
    return Signomial.of_terms(dimension, tuple(Term(c, mu) for mu, c in sorted(acc.items()) if c != 0))
