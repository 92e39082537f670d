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

Tokens are plain (kind, text, offset) tuples from one regex; a ParseError
works out its line and column from the offset.  The parser works on ints,
and only decimals and ratios are Fractions.  ``Signomial.from_terms`` takes
each term's coefficient and exponent row as they are, merges and sorts
them on their lattice frame, and keeps that frame: a parse frames its
exponents once and makes no Fraction for an integral entry.
``format_signomial`` writes the ``terms`` view.  An explicit dimension is
held to MAX_VARIABLE_INDEX too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .signomial import EXPONENT_BOUND, MAX_EXPONENT_DIGITS, MAX_TERMS, MAX_VARIABLE_INDEX, Number, Signomial, exceeds_cap  # noqa: F401

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}

# whitespace, then one token: 1 a number, 2 a name, 3 an operator, 4 a bad character
_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:\.\d+)?)|([A-Za-z]\w*)|([-+*^()/])|(\S))")
_KINDS = (None, "number", "name", None)
# name -> index: the aliases, and each canonical xN (no leading zeros) once read
_VARIABLES = dict(_ALIASES)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# a token is (kind, text, offset): kind is "number", "name", the operator
# character or "eof"; the line and column are worked out from the offset
# only when an error is raised
_Token = Tuple[str, str, int]


def _position(text: str, offset: int) -> Tuple[int, int]:
    """Line and column (both from 1) of an offset into the text."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == 4:
            raise ParseError(f"unexpected character {m[4]!r}", *_position(text, m.start(4)))
        tok = m[group]
        tokens.append((_KINDS[group] or tok, tok, m.start(group)))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list; ``kind`` is the current
    token's kind.  Integral numbers stay ints and ratios become Fractions."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.kind = self.tokens[0][0]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        self.kind = self.tokens[self.pos][0]
        return tok

    def error(self, message: str, tok: Optional[_Token] = None) -> ParseError:
        """The error at tok (the current token by default), for the caller to raise."""
        offset = (tok or self.tokens[self.pos])[2]
        return ParseError(message, *_position(self.text, offset))

    def expect(self, kind: str) -> _Token:
        if self.kind != kind:
            raise self.error(f"expected {kind!r}, found {self.tokens[self.pos][1]!r}")
        return self.advance()

    def number(self, exponent: bool) -> Tuple[_Token, Number]:
        """The next number token and its exact value, decimals included; in
        an exponent, more than MAX_EXPONENT_DIGITS digits are an error at
        the token."""
        tok = self.expect("number")
        text = tok[1]
        try:
            value = Fraction(text) if "." in text else int(text)
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise self.error(f"number too long ({len(text)} characters)", tok) from None
        if exponent and len(text) - text.count(".") > MAX_EXPONENT_DIGITS:
            raise self.error(f"exponent number has more than {MAX_EXPONENT_DIGITS} digits", tok)
        return tok, value

    # rational := ['-'] number ['/' number]
    def rational(self, exponent: bool = False) -> Number:
        negative = self.kind == "-"
        if negative:
            self.advance()
        num_tok, value = self.number(exponent)
        if self.kind == "/":
            self.advance()
            den_tok, den = self.number(exponent)
            if "." in num_tok[1] or "." in den_tok[1]:
                raise self.error("ratio parts must be integers")
            if den == 0:
                raise self.error("zero denominator", den_tok)
            value = Fraction(value, den)
        return -value if negative else value

    def exponent(self) -> Number:
        if self.kind == "(":
            self.advance()
            value = self.rational(exponent=True)
            self.expect(")")
            return value
        negative = self.kind == "-"
        if negative:
            self.advance()
        tok, value = self.number(exponent=True)
        if "." in tok[1]:
            raise self.error("exponents must be integers or parenthesized rationals")
        return -value if negative else value

    def variable(self, tok: _Token) -> int:
        """The index of a name token that is not in ``_VARIABLES``."""
        name = tok[1]
        m = re.fullmatch(r"x0*([1-9]\d*)", name)
        if m:
            # compare lengths first: int() refuses very long digit strings
            index = m.group(1)
            if len(index) > len(str(MAX_VARIABLE_INDEX)) or int(index) > MAX_VARIABLE_INDEX:
                raise self.error(f"variable {name!r} exceeds the largest index x{MAX_VARIABLE_INDEX}", tok)
            if name == f"x{int(index)}":  # no leading zeros, ASCII digits
                _VARIABLES[name] = int(index)
            return int(index)
        raise self.error(f"unknown variable {name!r}", tok)

    def sterm(self) -> Tuple[Number, Dict[int, Number]]:
        start = self.tokens[self.pos]
        coeff: Number = 1
        exponents: Dict[int, Number] = {}
        saw_coeff = False
        if self.kind == "number":
            coeff = self.rational()
            saw_coeff = True
        elif self.kind == "(":
            self.advance()
            coeff = self.rational()
            self.expect(")")
            saw_coeff = True
        if saw_coeff:
            if self.kind == "*":
                self.advance()
            elif self.kind != "name":
                return coeff, exponents
        if self.kind != "name":
            raise self.error("expected a variable or coefficient")
        while True:  # at a name token
            tok = self.advance()
            var = _VARIABLES.get(tok[1]) or self.variable(tok)
            power: Number = 1
            if self.kind == "^":
                # at most MAX_EXPONENT_DIGITS ASCII digits are read here, any other power by ``exponent``
                text = self.tokens[self.pos + 1][1]
                self.advance()
                if len(text) <= MAX_EXPONENT_DIGITS and text.isascii() and text.isdigit():
                    power = int(text)
                    self.advance()
                else:
                    power = self.exponent()
            exponents[var] = exponents.get(var, 0) + power
            if self.kind == "*" and self.tokens[self.pos + 1][0] == "name":
                self.advance()
                continue
            break
        for var, power in exponents.items():
            if exceeds_cap(power):
                raise self.error(f"merged exponent of x{var} has more than {MAX_EXPONENT_DIGITS} digits", start)
        return coeff, exponents

    def poly(self) -> List[Tuple[Number, Dict[int, Number]]]:
        terms = []
        sign = 1
        if self.kind == "-":
            self.advance()
            sign = -1
        elif self.kind == "+":
            self.advance()
        while True:
            if len(terms) == MAX_TERMS:
                raise self.error(f"more than {MAX_TERMS} terms")
            coeff, exponents = self.sterm()
            terms.append((sign * coeff, exponents))
            if self.kind == "eof":
                return terms
            if self.kind == "+":
                sign = 1
            elif self.kind == "-":
                sign = -1
            else:
                raise self.error(f"expected '+' or '-', found {self.tokens[self.pos][1]!r}")
            self.advance()


def parse_signomial(text: str, dimension: Optional[int] = None) -> Signomial:
    """Parse the text format; the dimension is the largest variable index used
    unless given explicitly, and at most MAX_VARIABLE_INDEX either way."""
    if dimension is not None and dimension > MAX_VARIABLE_INDEX:
        raise ParseError(f"dimension {dimension} exceeds the largest index x{MAX_VARIABLE_INDEX}", 1, 1)
    raw = _Parser(text).poly()
    max_var = max((max(e) for _, e in raw if e), default=1)
    n = dimension if dimension is not None else max_var
    if max_var > n:
        raise ParseError(f"variable x{max_var} exceeds dimension {n}", 1, 1)
    pairs = [(coeff, [exponents.get(i, 0) for i in range(1, n + 1)]) for coeff, exponents in raw]
    return Signomial.from_terms(n, pairs)


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
