from fractions import Fraction

import pytest

from descregions.parsing import (
    MAX_EXPONENT_DIGITS,
    MAX_TERMS,
    MAX_VARIABLE_INDEX,
    ParseError,
    format_signomial,
    parse_signomial,
)
from descregions.signomial import Signomial

import fixtures
from fixtures import vec

F = Fraction


def test_decimals_are_exact():
    f = parse_signomial("9.5*x")
    assert str(f.terms[0].coefficient) == "19/2"
    g = parse_signomial("30.5*y^2 - 0.25")
    assert g.coefficient(vec(0, 2)) == F(61, 2)
    assert g.coefficient(vec(0, 0)) == F(-1, 4)


def test_aliases_and_indexed_variables():
    f = parse_signomial("x + y^2 + z^3 + w^4")
    assert f.dimension == 4
    g = parse_signomial("x1*x7")
    assert g.dimension == 7
    assert g.terms[0].exponent == vec(1, 0, 0, 0, 0, 0, 1)
    assert parse_signomial("x*y") == parse_signomial("x1*x2")


def test_exponent_forms():
    f = parse_signomial("x^(7/3)*y^2 - x^(-1/2) + y^-1")
    assert f.coefficient(vec(F(7, 3), 2)) == 1
    assert f.coefficient(vec(F(-1, 2), 0)) == -1
    assert f.coefficient(vec(0, -1)) == 1


def test_parenthesized_and_ratio_coefficients():
    f = parse_signomial("(19/2)*y^3 + 1/2*y - (3/4)")
    assert f.coefficient(vec(0, 3)) == F(19, 2)
    assert f.coefficient(vec(0, 1)) == F(1, 2)
    assert f.coefficient(vec(0, 0)) == F(-3, 4)


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
    assert f.coefficient(vec(int(big), 0)) == 1 and f.coefficient(vec(-1, 0)) == -1
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
