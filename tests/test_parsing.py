"""Expression grammar, point/curve syntax, and the canonical printer."""

import random
import sys
from fractions import Fraction

import pytest

from germkit.algebra import Polynomial
from germkit.errors import DimensionMismatchError, ParseError, UnknownVariableError
from germkit.parsing import (
    MAX_EXPONENT,
    MAX_TERMS,
    format_poly,
    parse_curve,
    parse_point,
    parse_poly,
    parse_rationals,
)
from helpers import random_fraction, random_monomial

F = Fraction


# -- parse_poly -----------------------------------------------------------------


def test_parse_counterexample():
    f = parse_poly("z3^2 - z1*z2^2")
    assert f == Polynomial(3, {(0, 0, 2): 1, (1, 2, 0): -1})


def test_parse_rational_coefficients():
    assert parse_poly("1/2*z1 + z2") == Polynomial(2, {(1, 0): F(1, 2), (0, 1): 1})


def test_parse_expands_products_of_groups():
    f = parse_poly("z1*(z2+z3)^2")
    assert f == Polynomial(3, {(1, 2, 0): 1, (1, 1, 1): 2, (1, 0, 2): 1})


def test_parse_rejects_z0():
    with pytest.raises(UnknownVariableError) as exc:
        parse_poly("z0 + 1")
    assert exc.value.position == 0


def test_parse_rejects_bare_z():
    with pytest.raises(UnknownVariableError):
        parse_poly("z + 1")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError) as exc:
        parse_poly("z1z2")
    assert exc.value.position == 2


def test_parse_rejects_negative_exponent():
    with pytest.raises(ParseError) as exc:
        parse_poly("z1^-2")
    assert exc.value.position == 3


def test_parse_rejects_exponent_above_the_cap():
    assert parse_poly(f"z1^{MAX_EXPONENT}") == Polynomial(1, {(MAX_EXPONENT,): 1})
    with pytest.raises(ParseError) as exc:
        parse_poly(f"z1^{MAX_EXPONENT + 1}")
    assert exc.value.position == 3
    assert exc.value.expected == f"an exponent of at most {MAX_EXPONENT}"
    with pytest.raises(ParseError):
        parse_curve(f"t^{MAX_EXPONENT + 1},0", 2)


SUM8 = "(1+z1+z2+z3+z4+z5+z6+z7+z8)"


def test_parse_rejects_a_power_that_could_exceed_the_term_cap():
    # (1+z1+z2+z3)^32 has C(35, 3) = 6,545 terms; (1+z1+...+z8)^10 would have
    # C(18, 8) = 43,758 and ^32 about 77 million: rejected before expanding
    assert parse_poly("(1+z1+z2+z3)^32").term_count() == 6545 <= MAX_TERMS
    for k in (10, MAX_EXPONENT):
        with pytest.raises(ParseError) as exc:
            parse_poly(f"{SUM8}^{k}")
        assert exc.value.position == len(SUM8) + 1
        assert exc.value.expected == f"an expansion of at most {MAX_TERMS} terms"
    # a 10-term base: C(17, 8) = 24,310 bounds the terms of its 8th power,
    # but degree 24 in two variables bounds them by C(2 + 24, 2) = 325
    assert parse_poly("(1+z1+z2+z1*z2+z1^2+z2^2+z1^3+z2^3+z1^2*z2+z1*z2^2)^8").term_count() == 325
    # nested powers are bounded too: (1+z1+z2)^(32*32) in two variables has
    # C(2 + 1024, 2) = 525,825 terms
    with pytest.raises(ParseError):
        parse_poly("((1+z1+z2)^32)^32")


def test_parse_rejects_a_product_that_could_exceed_the_term_cap():
    # 1,287 x 1,287 term pairs of degree 10 in 8 variables: C(18, 8) > MAX_TERMS
    with pytest.raises(ParseError) as exc:
        parse_poly(f"{SUM8}^5*{SUM8}^5")
    assert exc.value.position == len(SUM8) + 2 and exc.value.found == "*"
    # 231 x 231 term pairs, but only C(2 + 40, 2) = 861 monomials of degree <= 40
    assert parse_poly("(1+z1+z2)^20*(1+z1+z2)^20").term_count() == 861


def test_parse_rejects_polynomial_division():
    with pytest.raises(ParseError):
        parse_poly("z1/2")


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_poly("1/0")


def test_parse_reports_unclosed_group():
    with pytest.raises(ParseError) as exc:
        parse_poly("(z2 + z3")
    assert exc.value.position == 8
    assert "')'" in exc.value.expected


def test_parse_rejects_empty_input():
    with pytest.raises(ParseError):
        parse_poly("")


def test_parse_unary_minus_binds_looser_than_powers():
    # as in Python, -z1^2 is -(z1^2) and only a parenthesised base is negated first
    assert parse_poly("-z1^2") == Polynomial(1, {(2,): -1})
    assert parse_poly("(-z1)^2") == Polynomial(1, {(2,): 1})
    assert parse_poly("-1*z1^2") == Polynomial(1, {(2,): -1})
    assert parse_poly("0 - z1^2") == Polynomial(1, {(2,): -1})
    assert parse_poly("-2^2") == Polynomial.constant(0, -4)
    assert parse_poly("--z1^2") == Polynomial(1, {(2,): 1})
    assert parse_poly("z1*-z2^3") == Polynomial(2, {(1, 3): -1})
    assert parse_poly("-z1^2+z2^2") == Polynomial(2, {(2, 0): -1, (0, 2): 1})


def test_parse_var_count_widens_and_bounds():
    assert parse_poly("z2").n == 2
    assert parse_poly("z2", var_count=4).n == 4
    assert parse_poly("7").n == 0
    with pytest.raises(UnknownVariableError) as exc:
        parse_poly("z1 + z5", var_count=3)
    assert exc.value.position == 5


# -- points, t-lists, curves -------------------------------------------------------


def test_parse_point():
    assert parse_point("0,0,0") == (0, 0, 0)
    assert parse_point("1,-1/2, 3/4", 3) == (1, F(-1, 2), F(3, 4))
    with pytest.raises(DimensionMismatchError, match=r"^point has 2 coordinates, expected 3$"):
        parse_point("1,2", 3)
    with pytest.raises(ParseError) as exc:
        parse_point("1,,2")
    assert exc.value.position == 2


def test_parse_rationals():
    assert parse_rationals("1,1/2,1/4,1/8") == (1, F(1, 2), F(1, 4), F(1, 8))


@pytest.mark.parametrize("text, position, found", [
    ("1.5", 1, "."),  # decimals, digit separators and exponents are not
    ("1_0", 1, "_"),  # literals of the grammar: '-'? int ('/' nat)?
    ("0,1e3", 3, "e"),
    ("+3", 0, "+"),
    ("--3", 1, "-"),
    ("1 2", 2, "2"),
    ("1/-2", 2, "-"),
    ("1,z1", 2, "z"),
])
def test_rationals_use_the_expression_literal(text, position, found):
    with pytest.raises(ParseError) as exc:
        parse_rationals(text)
    assert (exc.value.position, exc.value.found) == (position, found)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter sets no integer-string limit")
def test_numbers_over_the_integer_string_limit_are_parse_errors():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    for parse, text, position in [
        (parse_rationals, f"0,{digits}", 2),
        (parse_poly, f"z1 + {digits}", 5),
        (parse_poly, f"z{digits}", 1),
        (parse_curve, f"t^2,{digits}*t", 4),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.position == position
        assert exc.value.found == f"{len(digits)} digits"


def test_parse_curve():
    coords = parse_curve("t,0,0", 3)
    assert coords[0] == Polynomial(1, {(1,): 1})
    assert coords[1].is_zero() and coords[2].is_zero()
    twisted = parse_curve("t^2, 1 - t")
    assert twisted[0] == Polynomial(1, {(2,): 1})
    assert twisted[1] == Polynomial(1, {(0,): 1, (1,): -1})


def test_parse_curve_errors_name_the_parameter_as_written():
    for text in ("t^t", "t^t,0,0"):
        with pytest.raises(ParseError) as exc:
            parse_curve(text)
        assert (exc.value.position, exc.value.found) == (2, "t")


def test_parse_curve_rejects_z_variables():
    with pytest.raises(ParseError) as exc:
        parse_curve("z1,0")
    assert exc.value.position == 0
    assert "'t'" in exc.value.expected


# -- format_poly --------------------------------------------------------------------


def test_format_pinned_examples():
    assert format_poly(Polynomial(3, {(0, 0, 2): 1, (1, 2, 0): -1})) == "z3^2 - z1*z2^2"
    assert format_poly(Polynomial.zero(3)) == "0"
    assert format_poly(Polynomial(1, {(1,): F(1, 2)})) == "1/2*z1"


def test_format_is_ascending_graded_lex():
    f = Polynomial(2, {(0, 0): 3, (2, 0): 1, (0, 1): -2})
    assert format_poly(f) == "3 - 2*z2 + z1^2"


def test_format_guards_leading_negative_powers():
    # "-z1^2" re-parses as -(z1^2), so no coefficient 1 is needed
    assert format_poly(Polynomial(1, {(2,): -1})) == "-z1^2"
    assert format_poly(Polynomial(2, {(1, 1): -1})) == "-z1*z2"
    assert format_poly(Polynomial(1, {(3,): -4})) == "-4*z1^3"
    assert format_poly(Polynomial(2, {(0, 0): F(-5, 3)})) == "-5/3"


def test_parse_format_round_trip():
    rng = random.Random(601)
    for _ in range(100):
        n = rng.randint(0, 4)
        terms = {}
        for _ in range(rng.randint(0, 8)):
            terms[random_monomial(rng, n, 6)] = random_fraction(rng)
        p = Polynomial(n, terms)
        assert parse_poly(format_poly(p), var_count=n) == p


# input checks, each case with the exception it raises
BAD_INPUTS = {
    "curve of the wrong length": (lambda: parse_curve("t,0", 3), DimensionMismatchError),
}


@pytest.mark.parametrize("call, error", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_inputs_raise_their_error(call, error):
    with pytest.raises(error):
        call()
