"""Expression grammar, point/curve syntax, and the canonical printer."""

import random
from fractions import Fraction

import pytest

from germkit.algebra import Polynomial
from germkit.errors import DimensionMismatchError, ParseError, UnknownVariableError
from germkit.parsing import (
    MAX_EXPONENT,
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


def test_parse_unary_minus_binds_to_the_base():
    # per the grammar, -z1^2 is (-z1)^2
    assert parse_poly("-z1^2") == Polynomial(1, {(2,): 1})
    assert parse_poly("-1*z1^2") == Polynomial(1, {(2,): -1})
    assert parse_poly("0 - z1^2") == Polynomial(1, {(2,): -1})


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
    with pytest.raises(DimensionMismatchError):
        parse_point("1,2", 3)
    with pytest.raises(ParseError) as exc:
        parse_point("1,,2")
    assert exc.value.position == 2


def test_parse_rationals():
    assert parse_rationals("1,1/2,1/4,1/8") == (1, F(1, 2), F(1, 4), F(1, 8))


def test_parse_curve():
    coords = parse_curve("t,0,0", 3)
    assert coords[0] == Polynomial(1, {(1,): 1})
    assert coords[1].is_zero() and coords[2].is_zero()
    twisted = parse_curve("t^2, 1 - t")
    assert twisted[0] == Polynomial(1, {(2,): 1})
    assert twisted[1] == Polynomial(1, {(0,): 1, (1,): -1})


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
    # "-z1^2" would re-parse as (-z1)^2, so the coefficient is made explicit
    assert format_poly(Polynomial(1, {(2,): -1})) == "-1*z1^2"
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
