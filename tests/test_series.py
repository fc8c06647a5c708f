"""Truncated power series: product mod total degree, inverse, square root."""

import random
from fractions import Fraction

import pytest

from germkit.algebra import Polynomial, _truncated_product, rational_sqrt
from germkit.errors import NotAUnitError
from germkit.parsing import parse_poly
from germkit.series import MAX_ORDER, TruncatedSeries, ts_inverse, ts_sqrt
from helpers import big_denominator_poly, random_fraction, random_monomial, random_poly

F = Fraction


def series(terms, order=8, n=1):
    return TruncatedSeries(Polynomial(n, terms), order)


# -- reference arithmetic: full products truncated afterwards, full-order Newton


def ref_mul(a, b):
    order = min(a.order, b.order)
    return TruncatedSeries((a.body * b.body).truncate(order), order)


def ref_inverse(a):
    N = a.order
    r = Polynomial.constant(a.n, 1 / a.constant_term())
    for _ in range(N.bit_length()):
        r = (r * (2 - (a.body * r).truncate(N))).truncate(N)
    return TruncatedSeries(r, N)


def ref_sqrt(a):
    N = a.order
    r = Polynomial.constant(a.n, rational_sqrt(a.constant_term()))
    for _ in range(N.bit_length()):
        quotient = (a.body * ref_inverse(TruncatedSeries(r, N)).body).truncate(N)
        r = (r + quotient) * F(1, 2)
    return TruncatedSeries(r, N)


# -- reference unit series: Newton iteration with precision doubling, each
# step taking k correct degrees to min(2k+1, N) on truncated products


def _doubling(order):
    k = 0
    while k < order:
        k = min(2 * k + 1, order)
        yield k


def newton_inverse(a):
    """r <- r + r*(1 - a*r) from the inverse of the constant term."""
    r = Polynomial.constant(a.n, 1 / a.constant_term())
    for k in _doubling(a.order):
        r = r + _truncated_product(r, 1 - _truncated_product(a.body, r, k), k)
    return TruncatedSeries(r, a.order)


def newton_sqrt(a):
    """a * y for the inverse square root y <- y + y*(1 - a*y^2)/2."""
    y = Polynomial.constant(a.n, 1 / rational_sqrt(a.constant_term()))
    for k in _doubling(a.order):
        e = 1 - _truncated_product(a.body, _truncated_product(y, y, k), k)
        y = y + _truncated_product(y, e, k) * F(1, 2)
    return a * TruncatedSeries(y, a.order)


def random_unit(rng, n, order, constant):
    """constant + every variable + a few random terms of degree 2-4."""
    terms = {(0,) * n: constant}
    for i in range(n):
        terms[tuple(int(i == k) for k in range(n))] = random_fraction(rng)
    for _ in range(3):
        mono = tuple(rng.randint(0, 2) for _ in range(n))
        if 2 <= sum(mono) <= 4:
            terms[mono] = random_fraction(rng)
    return TruncatedSeries(Polynomial(n, terms), order)


# orders 1-12 in 1-4 variables; the full-order reference bounds the order
# it can reach in more variables within a test's time
EXACTNESS_CASES = [(n, order) for n, top in ((1, 12), (2, 12), (3, 7), (4, 4))
                   for order in range(1, top + 1)]


def test_constructor_truncates_body():
    s = TruncatedSeries(Polynomial(1, {(0,): 1, (9,): 5}), 8)
    assert s.body == Polynomial(1, {(0,): 1})
    assert s.order == 8


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        TruncatedSeries(Polynomial.zero(1), 0)


def test_equality_needs_same_order():
    one = Polynomial.constant(1, 1)
    assert TruncatedSeries(one, 4) != TruncatedSeries(one, 5)
    assert TruncatedSeries(one, 4) == TruncatedSeries(one, 4)


@pytest.mark.parametrize("n, order", EXACTNESS_CASES)
def test_product_equals_full_product_truncated(n, order):
    rng = random.Random(1000 * n + order)
    for _ in range(4):
        a = TruncatedSeries(random_poly(rng, n, order + 3, 8), order)
        b = TruncatedSeries(random_poly(rng, n, order + 3, 8), rng.randint(1, 12))
        assert a * b == ref_mul(a, b)
        assert b * a == ref_mul(a, b)


def test_product_with_large_coprime_denominators_equals_full_product_truncated():
    rng = random.Random(204)
    for _ in range(40):
        n = rng.randint(1, 3)
        order = rng.randint(1, 8)
        a = TruncatedSeries(big_denominator_poly(rng, n, order + 2, 6), order)
        b = TruncatedSeries(big_denominator_poly(rng, n, order + 2, 6), order)
        assert a * b == ref_mul(a, b)
        unit = TruncatedSeries(a.body + (1 - a.constant_term()), order)
        assert ts_inverse(unit) == ref_inverse(unit)


def test_products_that_cancel():
    one_plus = series({(0,): 1, (1,): 1}, order=6)
    geometric = series({(k,): (-1) ** k for k in range(7)}, order=6)
    assert (one_plus * geometric).body == Polynomial.constant(1, 1)
    high = series({(4, 1): 3}, order=8, n=2)
    assert (high * high).body.is_zero()  # degree 10 > 8: nothing survives
    zero = TruncatedSeries(Polynomial.zero(2), 5)
    assert high * zero == TruncatedSeries(Polynomial.zero(2), 5)
    assert (high * TruncatedSeries(Polynomial.zero(2), 8)).body.is_zero()


@pytest.mark.parametrize("n, order", EXACTNESS_CASES)
def test_inverse_and_sqrt_equal_full_order_newton(n, order):
    rng = random.Random(2000 * n + order)
    a = random_unit(rng, n, order, random_fraction(rng, 1, 9))
    assert ts_inverse(a) == ref_inverse(a)
    c = random_fraction(rng, 1, 9)
    square = random_unit(rng, n, order, c * c)
    assert ts_sqrt(square) == ref_sqrt(square)


def _power_recurrence_unit(rng, n, order, constant, dense, max_den):
    """constant + random terms through degree min(order, 3) when dense, else
    constant + up to three random monomials of degree 1..order."""
    if dense:
        monos = {random_monomial(rng, n, min(order, 3)) for _ in range(12)}
    else:
        monos = {random_monomial(rng, n, order) for _ in range(3)}
    terms = {m: F(rng.randint(-9, 9), rng.randint(1, max_den)) for m in monos if sum(m)}
    terms[(0,) * n] = constant
    return TruncatedSeries(Polynomial(n, terms), order)


# orders 1..MAX_ORDER in 1-2 variables and 1..8 in 3-4 variables
POWER_RECURRENCE_CASES = [(n, order) for n, top in ((1, MAX_ORDER), (2, MAX_ORDER), (3, 8), (4, 8))
                          for order in range(1, top + 1)]


@pytest.mark.parametrize("n, order", POWER_RECURRENCE_CASES)
def test_inverse_and_sqrt_equal_doubling_newton(n, order):
    # two units per case, one sparse and one dense; every third case has
    # denominators up to 2^31 - 1, and every other inverse a negative constant
    rng = random.Random(3000 * n + order)
    max_den = 2**31 - 1 if order % 3 == 0 else 9
    for dense in (False, True):
        c = F(rng.randint(1, 9), rng.randint(1, max_den))
        a = _power_recurrence_unit(rng, n, order, -c if (order + dense) % 2 else c, dense, max_den)
        assert repr(ts_inverse(a)) == repr(newton_inverse(a))
        square = _power_recurrence_unit(rng, n, order, c * c, dense, max_den)
        assert repr(ts_sqrt(square)) == repr(newton_sqrt(square))


def test_inverse_and_sqrt_identities_at_max_order_in_four_variables():
    # the powers of z1*z2 + z3^2*z4 - z1*z3*z4^2 through degree MAX_ORDER stay few
    a = TruncatedSeries(parse_poly("9/4 + z1*z2 + 3*z3^2*z4 - 1/7*z1*z3*z4^2", 4), MAX_ORDER)
    root = ts_sqrt(a)
    assert root.constant_term() == F(3, 2)
    assert root * root == a
    assert (a * ts_inverse(a)).body == Polynomial.constant(4, 1)
    minus_a = TruncatedSeries(-a.body, MAX_ORDER)
    assert (minus_a * ts_inverse(minus_a)).body == Polynomial.constant(4, 1)


def test_mixed_order_takes_minimum():
    a = series({(1,): 1}, order=6)
    b = series({(1,): 1}, order=3)
    assert (a * b).order == 3


def test_inverse_of_geometric_series():
    # 1/(1 - z1) = 1 + z1 + z1^2 + ... truncated
    a = series({(0,): 1, (1,): -1}, order=6)
    inv = ts_inverse(a)
    assert inv.body == Polynomial(1, {(k,): 1 for k in range(7)})


def test_inverse_identity_on_random_units():
    rng = random.Random(202)
    one = F(1)
    for _ in range(50):
        n = rng.randint(1, 3)
        order = rng.randint(2, 8)
        body = random_poly(rng, n, order, 6)
        body = body - Polynomial.constant(n, body.constant_term()) + Polynomial.constant(
            n, random_fraction(rng, 1, 9)
        )
        a = TruncatedSeries(body, order)
        assert a.constant_term() != 0
        prod = a * ts_inverse(a)
        assert prod.body == Polynomial.constant(n, one)


def test_inverse_requires_unit():
    with pytest.raises(NotAUnitError):
        ts_inverse(series({(1,): 1}, order=4))


def test_sqrt_of_one_plus_z_has_binomial_coefficients():
    a = series({(0,): 1, (1,): 1}, order=4)
    r = ts_sqrt(a)
    assert r.body == Polynomial(
        1, {(0,): 1, (1,): F(1, 2), (2,): F(-1, 8), (3,): F(1, 16), (4,): F(-5, 128)}
    )


def test_sqrt_square_identity_on_random_units():
    rng = random.Random(203)
    for _ in range(50):
        n = rng.randint(1, 3)
        order = rng.randint(2, 8)
        body = random_poly(rng, n, order, 6)
        c = random_fraction(rng, 1, 9)
        body = body - Polynomial.constant(n, body.constant_term()) + Polynomial.constant(
            n, c * c
        )
        a = TruncatedSeries(body, order)
        r = ts_sqrt(a)
        assert r is not None
        assert r * r == a
        assert r.constant_term() == c  # positive branch


def test_sqrt_requires_unit():
    with pytest.raises(NotAUnitError):
        ts_sqrt(series({(1,): 1}, order=4))


def test_sqrt_signals_non_rational_square_constant():
    assert ts_sqrt(series({(0,): 2, (1,): 1}, order=4)) is None
    assert ts_sqrt(series({(0,): -4, (1,): 1}, order=MAX_ORDER)) is None  # negative
    assert ts_sqrt(series({(0,): F(4, 3), (1,): 1}, order=MAX_ORDER)) is None
