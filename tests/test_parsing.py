from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from descregions import parsing
from descregions.parsing import (
    MAX_EXPONENT_DIGITS,
    MAX_TERMS,
    MAX_VARIABLE_INDEX,
    ParseError,
    format_signomial,
    parse_signomial,
)
from descregions.signomial import Signomial
from descregions.tracedoc import signomial_from_json, signomial_to_json

import fixtures
import parse_oracle
from fixtures import vec

F = Fraction


def test_decimals_are_exact():
    f = parse_signomial("9.5*x")
    assert str(f.terms[0].coefficient) == "19/2"
    g = parse_signomial("30.5*y^2 - 0.25")
    assert g.coefficients[g.term_index(vec(0, 2))] == F(61, 2)
    assert g.coefficients[g.term_index(vec(0, 0))] == F(-1, 4)


def test_aliases_and_indexed_variables():
    f = parse_signomial("x + y^2 + z^3 + w^4")
    assert f.dimension == 4
    g = parse_signomial("x1*x7")
    assert g.dimension == 7
    assert g.terms[0].exponent == vec(1, 0, 0, 0, 0, 0, 1)
    assert parse_signomial("x*y") == parse_signomial("x1*x2")


def test_exponent_forms():
    f = parse_signomial("x^(7/3)*y^2 - x^(-1/2) + y^-1")
    assert f.coefficients[f.term_index(vec(F(7, 3), 2))] == 1
    assert f.coefficients[f.term_index(vec(F(-1, 2), 0))] == -1
    assert f.coefficients[f.term_index(vec(0, -1))] == 1


def test_parenthesized_and_ratio_coefficients():
    f = parse_signomial("(19/2)*y^3 + 1/2*y - (3/4)")
    assert f.coefficients[f.term_index(vec(0, 3))] == F(19, 2)
    assert f.coefficients[f.term_index(vec(0, 1))] == F(1, 2)
    assert f.coefficients[f.term_index(vec(0, 0))] == F(-3, 4)


def test_implicit_coefficient_and_merging():
    assert parse_signomial("x + x") == parse_signomial("2*x")
    f = parse_signomial("x - x")
    assert f.terms == ()
    assert parse_signomial("x*x*y") == parse_signomial("x^2*y")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_signomial("1 + $")
    assert err.value.line == 1 and err.value.column == 5
    with pytest.raises(ParseError):
        parse_signomial("x^^2")
    with pytest.raises(ParseError):
        parse_signomial("")
    with pytest.raises(ParseError):
        parse_signomial("q + 1")
    err = pytest.raises(ParseError, parse_signomial, "1 +\n+ 2")
    assert err.value.line == 2


def test_zero_denominators_are_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_signomial("x^(1/0) - 1")
    assert err.value.column == 6
    with pytest.raises(ParseError) as err:
        parse_signomial("3/0*x - 1")
    assert err.value.column == 3
    with pytest.raises(ParseError):
        parse_signomial("(2/00)*y + 1")


def test_variable_index_is_capped():
    assert parse_signomial(f"x{MAX_VARIABLE_INDEX} - 1").dimension == MAX_VARIABLE_INDEX
    for text, column in ((f"1 + x{MAX_VARIABLE_INDEX + 1}", 5), ("x200000 - 1 + y", 1), ("y*x" + "9" * 5000, 3)):
        with pytest.raises(ParseError) as err:
            parse_signomial(text)
        assert err.value.column == column and "largest index" in str(err.value)
    # an explicit dimension is held to the same cap
    assert parse_signomial("x1 - 1", dimension=MAX_VARIABLE_INDEX).dimension == MAX_VARIABLE_INDEX
    with pytest.raises(ParseError) as err:
        parse_signomial("x1 - 1", dimension=MAX_VARIABLE_INDEX + 1)
    assert "largest index" in str(err.value)


def test_only_canonical_variable_names_are_remembered():
    """Names resolve through one dict: the aliases, and x1..x1000 once read;
    zero-padded spellings resolve to the same index but are not kept."""
    padded = " + ".join(f"x{'0' * k}{i}" for k in (1, 3) for i in range(1, 200))
    assert parse_signomial(padded) == parse_signomial(" + ".join(f"2*x{i}" for i in range(1, 200)))
    every = " + ".join(f"x{i}" for i in range(1, MAX_VARIABLE_INDEX + 1))
    assert parse_signomial(every).dimension == MAX_VARIABLE_INDEX
    names = parsing._VARIABLES
    assert all(name == f"x{index}" or name in ("x", "y", "z", "w") for name, index in names.items())
    assert len(names) <= MAX_VARIABLE_INDEX + 4


def test_numbers_too_long_to_convert_are_parse_errors():
    digits = "9" * 5000
    for text, column in ((digits + "*x - 1", 1), ("x^" + digits + " - 1", 3), ("x^(1/" + digits + ") - 1", 6)):
        with pytest.raises(ParseError) as err:
            parse_signomial(text)
        assert err.value.column == column and "number too long" in str(err.value)


def test_term_count_is_capped():
    at_cap = " + ".join(f"x^{i}" for i in range(MAX_TERMS))
    assert len(parse_signomial(at_cap).terms) == MAX_TERMS
    # merged repeats count as written
    with pytest.raises(ParseError) as err:
        parse_signomial(at_cap + " - x")
    assert err.value.column == len(at_cap) + 4 and f"more than {MAX_TERMS} terms" in str(err.value)


def test_exponent_digits_are_capped():
    big = "9" * MAX_EXPONENT_DIGITS
    f = parse_signomial(f"x^{big} - x^(-{big}/{big}) + y^(0.{big[1:]}) + {big}9*y")
    assert f.coefficients[f.term_index(vec(int(big), 0))] == 1 and f.coefficients[f.term_index(vec(-1, 0))] == -1
    for text, column in (
        (f"x^{big}9 - 1", 3),
        (f"x^-{big}9 - 1", 4),
        (f"1 + x^(1/{big}9)", 10),
        (f"x^(-{big}9/2) - 1", 5),
        (f"y^(0.{big}) - 1", 4),
    ):
        with pytest.raises(ParseError) as err:
            parse_signomial(text)
        assert err.value.column == column and f"more than {MAX_EXPONENT_DIGITS} digits" in str(err.value)


def test_merged_exponents_are_capped():
    """Repeated variables of a term merge before the cap applies: each merged
    entry's reduced numerator and denominator stay below 10**MAX_EXPONENT_DIGITS,
    and the error is at the term."""
    big = "9" * MAX_EXPONENT_DIGITS
    f = parse_signomial(f"x^{big}*x^-{big}*x^5 + x^{big}*x1^-1*x - 1")
    assert f.coefficients[f.term_index(vec(5))] == 1 and f.coefficients[f.term_index(vec(int(big)))] == 1
    for text, column, var in (
        (f"x^{big}*x^{big} - 1", 1, 1),
        (f"1 - 2*y^{big} * y", 5, 2),
        (f"x^(1/{big})*x^(1/{big[1:]}8) - 1", 1, 1),
        (f"x - (3/2) x2^-{big}*x^2*x2^(-1)", 5, 2),
    ):
        with pytest.raises(ParseError) as err:
            parse_signomial(text)
        assert err.value.column == column
        assert f"merged exponent of x{var} has more than {MAX_EXPONENT_DIGITS} digits" in str(err.value)


def test_round_trip_all_fixtures():
    texts = [
        fixtures.TEN_TERM_TEXT,
        fixtures.TEN_TERM_UPPER_TEXT,
        fixtures.TEN_TERM_LOWER_TEXT,
        fixtures.SADDLE_TEXT,
        fixtures.ENCLOSED_TEXT,
        fixtures.BOX_TEXT,
        fixtures.SIMPLEX_CONNECTED_TEXT,
        fixtures.SIMPLEX_SPLIT_TEXT,
        fixtures.LADDER_TEXT,
        fixtures.STRIP_PAIR_TEXT,
        fixtures.CUBE3_TEXT,
        fixtures.CUBE4_TEXT,
        fixtures.NEG_QUADRATIC_TEXT,
        fixtures.PERFECT_SQUARE_TEXT,
        fixtures.WIDE16_TEXT,
    ]
    for text in texts:
        f = parse_signomial(text)
        assert parse_signomial(format_signomial(f), dimension=f.dimension) == f


def test_format_zero():
    assert format_signomial(Signomial.from_terms(1, [])) == "0"


def test_explicit_dimension():
    f = parse_signomial("x + 1", dimension=3)
    assert f.dimension == 3
    with pytest.raises(ParseError):
        parse_signomial("x3", dimension=2)
    # an explicit dimension runs from 1 to MAX_VARIABLE_INDEX, whether or not the text uses a variable
    assert parse_signomial("5", 1).dimension == 1
    assert parse_signomial("5", MAX_VARIABLE_INDEX).dimension == MAX_VARIABLE_INDEX
    for dimension, message in ((0, "dimension 0 is below 1"), (-3, "dimension -3 is below 1"),
                               (MAX_VARIABLE_INDEX + 1, "exceeds the largest index")):
        for text in ("5", "x - 1"):
            with pytest.raises(ParseError) as err:
                parse_signomial(text, dimension)
            assert (err.value.line, err.value.column) == (1, 1) and message in str(err.value)


def test_token_positions_are_worked_out_only_on_error(monkeypatch):
    """A valid parse never asks where a token is; each ParseError at a token
    asks once."""
    calls = []
    real = parsing._position
    monkeypatch.setattr(parsing, "_position", lambda text, index: calls.append(index) or real(text, index))
    for text in (fixtures.TEN_TERM_TEXT, fixtures.WIDE16_TEXT, "x^(7/3)*y^2 - (3/4)*x^(-1/2) + 9.5*y^-1"):
        parse_signomial(text)
    assert calls == []
    for text, index in (("1 + $", 2), ("x -", 2), ("x^", 2), ("(1/2", 4), ("", 0), ("x - q", 2), ("x^999999*x^999999", 0)):
        with pytest.raises(ParseError):
            parse_signomial(text)
        assert calls == [index]
        calls.clear()


# --- differential fuzzing against the previous parser (tests/parse_oracle.py) --

_WS = st.sampled_from(["", " ", "  ", "\n", " \n\t", "\r\n"])
_DIGITS = st.integers(0, 10 ** (MAX_EXPONENT_DIGITS + 1)).map(str)
_VARIABLES = st.sampled_from(["x", "y", "z", "w", "x1", "x2", "x3", "x5", "x12", "x007", f"x{MAX_VARIABLE_INDEX}"])
# fragments spliced into valid texts: stray characters, decimal exponents,
# zero denominators, indices past the cap and numbers past every limit
_SNIPPETS = st.sampled_from([
    "$", "@", "_", "é", "٣", ".", "^", "*", "**", "(", ")", "/", "-", "+", "+-", "\n", " \n ",
    "^1.5", "^-0.5", "^(0.5)", "/0", "(1/0)", "^(2/00)", "0.5/2", "3/0.5",
    f"x{MAX_VARIABLE_INDEX + 1}", "x0", "x01000", "q", "x_1", "xy",
    "9" * (MAX_EXPONENT_DIGITS + 1), "1" + "0" * MAX_EXPONENT_DIGITS, "9" * 5000, "1." + "5" * 5000,
])


# ratio parts may be decimals, which the grammar refuses
_PARTS = st.one_of(_DIGITS, _DIGITS, st.builds("{}.{}".format, _DIGITS, _DIGITS))


@st.composite
def _rationals(draw):
    num = draw(_PARTS)
    if draw(st.booleans()):
        return num
    return f"{num}/{draw(_PARTS)}"


@st.composite
def _coefficients(draw):
    form = draw(st.sampled_from(("int", "decimal", "ratio", "paren")))
    if form == "int":
        return draw(_DIGITS)
    if form == "decimal":
        return f"{draw(_DIGITS)}.{draw(_DIGITS)}"
    if form == "ratio":
        return f"{draw(_PARTS)}/{draw(_PARTS)}"
    return f"({draw(st.sampled_from(['', '-']))}{draw(_rationals())})"


@st.composite
def _monomials(draw):
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        exponent = draw(st.sampled_from(("", "int", "neg", "paren")))
        power = ""
        if exponent == "int":
            power = f"^{draw(_DIGITS)}"
        elif exponent == "neg":
            power = f"^-{draw(_DIGITS)}"
        elif exponent == "paren":
            power = f"^({draw(st.sampled_from(['', '-']))}{draw(_rationals())})"
        factors.append(draw(_VARIABLES) + power)
    return (draw(_WS) + "*" + draw(_WS)).join(factors)


@st.composite
def _terms(draw):
    form = draw(st.sampled_from(("coeff", "mono", "product", "juxtaposed")))
    if form == "coeff":
        return draw(_coefficients())
    if form == "mono":
        return draw(_monomials())
    joint = "*" if form == "product" else ""
    return f"{draw(_coefficients())}{draw(_WS)}{joint}{draw(_WS)}{draw(_monomials())}"


@st.composite
def polynomial_texts(draw):
    """Valid texts, then up to three splices or deletions at random places."""
    text = draw(st.sampled_from(["", "-", "+"])) + draw(_terms())
    for _ in range(draw(st.integers(0, 5))):
        text += f"{draw(_WS)}{draw(st.sampled_from(['+', '-']))}{draw(_WS)}{draw(_terms())}"
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(_SNIPPETS) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


def _outcome(parser, text, dimension):
    try:
        return parser.parse_signomial(text, dimension)
    except parser.ParseError as exc:
        return (str(exc), exc.line, exc.column)


@given(polynomial_texts(), st.sampled_from([None, None, None, 1, 2, 4, 13]))
@settings(deadline=None, max_examples=400)
@example(" + ".join(["x"] * (MAX_TERMS + 1)), None)
@example(" + ".join(f"x^{i}" for i in range(MAX_TERMS)) + " -\n x", None)
@example(" + ".join(f"x^{i}" for i in range(MAX_TERMS)), None)
@example("x^999999*x^999999 - 1", None)
@example("x^(1/999999)*x^(1/999998) - 1", None)
# the inline power: at the digit cap, one past it, non-ASCII digits, leading
# zeros, zero, and a power that cancels another
@example("x^999999 - 1", None)
@example("x^1000000 - 1", None)
@example("x^\u0663 - 1", None)
@example("x^007 - y", None)
@example("x^0 - y^0*x2^0 + z", None)
@example("x^-3*x^3 + 1", None)
# the variable dict: zero-padded names resolve without entering it
@example("x0001*x1 - x2", None)
@example(" + ".join(f"x{'0' * (i % 4)}{i}*x{i}^{i}" for i in range(1, 60)) + " - x0", None)
@example(" - ".join(f"x{'0' * (i % 5)}{i}" for i in range(1, 120)) + " + 1", None)
# positions worked out from a token's index: after a newline and a tab, after
# CRLF, at the end of the text, and after non-ASCII digits and letters
@example("x - 1\n\t$", None)
@example("x\r\n - 1 @", None)
@example("x -", None)
@example("x^", None)
@example("(1/2", None)
@example("", None)
@example("\u0663*x - 1", None)
@example("x\u00e9 - 1", None)
def test_parser_matches_the_previous_parser(text, dimension):
    """The parser returns an equal Signomial, or a ParseError with the same
    message, line and column, wherever the previous parser does; nothing
    else is raised by either.  Every accepted text gives trace input that
    passes the trace caps."""
    got = _outcome(parsing, text, dimension)
    want = _outcome(parse_oracle, text, dimension)
    assert got == want
    if isinstance(got, Signomial):
        assert all(type(t.coefficient) is Fraction for t in got.terms)
        assert all(type(e) is Fraction for t in got.terms for e in t.exponent)
        assert signomial_from_json(signomial_to_json(got)) == got
