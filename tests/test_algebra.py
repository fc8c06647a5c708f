"""Sparse exact-rational polynomials: representation, arithmetic, local ops."""

import math
import random
import re
import time
from fractions import Fraction

import pytest

from germkit.algebra import (
    Polynomial,
    _linear_factors,
    _monomial_multiple,
    _mul_add,
    _pack,
    _truncated_product,
    _unpack,
    as_point,
    as_rational,
    rational_sqrt,
)
from germkit.errors import DimensionMismatchError, VariableIndexError, ZeroPolynomialError
from germkit.parsing import parse_poly
from germkit.series import TruncatedSeries, ts_inverse, ts_sqrt
from helpers import (
    big_denominator_poly,
    random_fraction,
    random_monomial,
    random_point,
    random_poly,
)

F = Fraction


# -- construction and canonical form ------------------------------------------


def test_constructor_drops_zero_coefficients():
    p = Polynomial(2, {(1, 0): F(1, 2), (0, 1): 0})
    assert p.term_count() == 1
    assert p.coefficient((0, 1)) == 0


def test_constructor_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Polynomial(1, {(-1,): 1})
    # exponents are ints: (2.0, 0) would print as z1^2.0 and fail later
    for expo in ((2.0, 0), (0, 1.5), (True, 0), (F(2), 0)):
        with pytest.raises(ValueError):
            Polynomial(2, {expo: 1})


def test_constructor_rejects_wrong_arity_monomials():
    with pytest.raises(DimensionMismatchError):
        Polynomial(2, {(1,): 1})


def test_coefficient_checks_its_monomial():
    p = Polynomial(2, {(1, 0): F(1, 2), (0, 3): -4})
    assert p.coefficient((1, 0)) == F(1, 2) and p.coefficient([0, 3]) == -4
    assert p.coefficient((2, 2)) == 0
    for expo in ((0,), (0, 2, 0)):
        with pytest.raises(DimensionMismatchError):
            p.coefficient(expo)
    for expo in ((-1, 0), (0, 1.0)):
        with pytest.raises(ValueError):
            p.coefficient(expo)


def test_polynomials_are_immutable():
    p = Polynomial.variable(2, 1)
    with pytest.raises(AttributeError):
        p.n = 5


def test_equality_is_structural():
    a = Polynomial(2, {(1, 1): F(2, 4)})
    b = Polynomial(2, {(1, 1): F(1, 2)})
    assert a == b
    assert a != Polynomial(3, {(1, 1, 0): F(1, 2)})  # different ambient dimension
    assert (Polynomial.variable(2, 1) == "z1") is False


def test_terms_are_in_ascending_graded_lex_order():
    p = Polynomial(3, {(0, 0, 2): 1, (1, 2, 0): -1, (0, 0, 0): 5, (1, 0, 0): 2})
    monos = [m for m, _ in p.terms()]
    assert monos == [(0, 0, 0), (1, 0, 0), (0, 0, 2), (1, 2, 0)]


def test_leading_term_and_zero_error():
    p = Polynomial(2, {(1, 1): 3, (0, 2): 1})
    mono, coeff = p.leading_term()
    assert mono == (1, 1) and coeff == 3
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(2).leading_term()


# -- degrees and orders --------------------------------------------------------


def test_degree_and_order_conventions():
    f = Polynomial(3, {(0, 0, 2): 1, (1, 2, 0): -1})
    assert f.total_degree() == 3
    assert f.order() == 2
    assert f.degree_in(3) == 2
    z = Polynomial.zero(2)
    assert z.total_degree() == -math.inf
    assert z.order() == math.inf
    assert z.variable_order(1) == math.inf


def test_variable_order_counts_minimal_exponent():
    m = Polynomial(3, {(1, 2, 0): 1})
    assert m.variable_order(1) == 1
    assert m.variable_order(2) == 2
    assert m.variable_order(3) == 0
    f = Polynomial(3, {(0, 0, 2): 1, (1, 2, 0): -1})
    assert f.variable_order(1) == 0  # the z3^2 term has no z1


# -- ring arithmetic -----------------------------------------------------------


def test_ring_laws_on_random_triples():
    rng = random.Random(101)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = random_poly(rng, n, 4, 5)
        b = random_poly(rng, n, 4, 5)
        c = random_poly(rng, n, 4, 5)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial.zero(n)


def test_scalar_coercion_and_pow():
    z1 = Polynomial.variable(2, 1)
    p = 2 * z1 + F(1, 2)
    assert p == Polynomial(2, {(1, 0): 2, (0, 0): F(1, 2)})
    q = (z1 + 1) ** 4
    manual = (z1 + 1) * (z1 + 1) * (z1 + 1) * (z1 + 1)
    assert q == manual
    assert (z1 ** 0) == Polynomial.constant(2, 1)


@pytest.mark.parametrize("value", [3, -7, F(-3, 4), F(-6, 8), 0, F(0)])
def test_one_term_constructors_equal_their_constructor_built_twins(value):
    for n in (0, 1, 3):
        assert Polynomial.constant(n, value) == Polynomial(n, {(0,) * n: value})
        assert Polynomial.zero(n) == Polynomial(n, {})
    expo = (2, 0, 1)
    assert Polynomial.monomial(3, expo, value) == Polynomial(3, {expo: value})
    assert Polynomial.monomial(3, [2, 0, 1]) == Polynomial(3, {expo: 1})
    assert Polynomial.variable(3, 2) == Polynomial(3, {(0, 1, 0): 1})


def test_one_term_constructors_reject_what_the_constructor_rejects():
    with pytest.raises(TypeError):
        Polynomial.constant(2, 0.5)
    with pytest.raises(TypeError):
        Polynomial.monomial(2, (1, 0), 0.5)
    with pytest.raises(ValueError):
        Polynomial.monomial(2, (1, -1))
    with pytest.raises(DimensionMismatchError):
        Polynomial.monomial(2, (1, 0, 0))
    with pytest.raises(ValueError):
        Polynomial.zero(-1)


def test_dimension_mismatch_in_arithmetic():
    with pytest.raises(DimensionMismatchError):
        Polynomial.variable(2, 1) + Polynomial.variable(3, 1)


# -- evaluation, shift, substitution -------------------------------------------


def test_evaluate_matches_naive_sum():
    rng = random.Random(102)
    for _ in range(50):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, 4, 6)
        x = random_point(rng, n)
        naive = sum(
            (c * math.prod(xi**e for xi, e in zip(x, mono)) for mono, c in p.terms()),
            start=F(0),
        )
        assert p.evaluate(x) == naive


def test_shift_evaluate_identity():
    # f.shift(p)(x) = f(x + p): the defining property of recentering.
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 4, 6)
        p = random_point(rng, n)
        x = random_point(rng, n)
        shifted = f.shift(p)
        assert shifted.evaluate(x) == f.evaluate(tuple(a + b for a, b in zip(x, p)))


def test_shift_at_zero_is_identity_and_shifts_compose():
    rng = random.Random(104)
    for _ in range(20):
        f = random_poly(rng, 2, 4, 5)
        assert f.shift((0, 0)) == f
        p, q = random_point(rng, 2), random_point(rng, 2)
        both = tuple(a + b for a, b in zip(p, q))
        assert f.shift(p).shift(q) == f.shift(both)


def test_substitute_matches_evaluation():
    rng = random.Random(105)
    for _ in range(30):
        f = random_poly(rng, 2, 4, 5)
        g = random_poly(rng, 2, 3, 4)
        h = f.substitute(1, g)
        x = random_point(rng, 2)
        assert h.evaluate(x) == f.evaluate((g.evaluate(x), x[1]))


def test_derivative_product_rule():
    rng = random.Random(106)
    for _ in range(30):
        n = rng.randint(1, 3)
        j = rng.randint(1, n)
        a = random_poly(rng, n, 4, 5)
        b = random_poly(rng, n, 4, 5)
        assert (a * b).derivative(j) == a.derivative(j) * b + a * b.derivative(j)


def test_gradient_at_point():
    f = Polynomial(3, {(0, 0, 2): 1, (1, 2, 0): -1})
    assert f.gradient_at((1, 1, 1)) == (-1, -2, 2)
    assert f.gradient_at((0, 0, 0)) == (0, 0, 0)


# -- exact division ------------------------------------------------------------


def test_exact_div_inverts_multiplication():
    rng = random.Random(107)
    for _ in range(50):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 3, 4)
        g = random_poly(rng, n, 3, 4, nonzero=True)
        assert (f * g).exact_div(g) == f


def test_exact_div_rejects_inexact_quotient():
    f = Polynomial(2, {(2, 0): 1, (0, 1): 1})  # z1^2 + z2
    with pytest.raises(ValueError):
        f.exact_div(Polynomial.variable(2, 1))


def test_exact_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Polynomial.variable(2, 1).exact_div(Polynomial.zero(2))


# -- canonical form ----------------------------------------------------------------
#
# A polynomial is stored as an integer table over one positive denominator
# coprime to the table's content; every result must be stored exactly as
# the constructor stores its terms, or `==` would compare representations.


def assert_canonical(p):
    rebuilt = Polynomial(p.n, dict(p.terms()))
    assert p == rebuilt and repr(p) == repr(rebuilt)


def test_every_operation_returns_the_canonical_form():
    rng = random.Random(117)
    for _ in range(40):
        n = rng.randint(1, 3)
        var = rng.randint(1, n)
        a, b = big_denominator_poly(rng, n, 3, 4), big_denominator_poly(rng, n, 3, 4)
        point = tuple(rng.choice(COORDINATES) for _ in range(n))
        # unit bodies with negative, positive and large-denominator constants
        unit = a - a.constant_term() + rng.choice((-1, F(-7, 3), F(1, 2**61 - 1), 3**20))
        root = rng.choice((1, F(2, 3), F(-1, 2**61 - 1)))
        square = a - a.constant_term() + root * root
        order = rng.randint(1, 4)
        # down to the largest monomial factor, or up by up to 2 per variable
        offsets = (tuple(-a.variable_order(i) for i in range(1, n + 1)),
                   tuple(rng.randint(0, 2) for _ in range(n)))
        results = [
            a + b, a - b, a * b, -a, a.derivative(var), a.truncate(2),
            a.lowest_homogeneous_form()[0], a.shift(point), a.shift((0,) * n),
            a.substitute(var, b), a.insert_variable(var), a.insert_variable(var).drop_variable(var),
            *(row.drop_variable(var) for row in a.coefficients_in(var)),
            *(a * k for k in (0, -1, 1, F(-3, 2**61 - 1), 3**40)),
            *(k * a for k in (0, -2, F(5, 7))),
            *(_monomial_multiple(a, offset) for offset in offsets),
            *_linear_factors(a, b, order),
            ts_inverse(TruncatedSeries(unit, order)).body,
            ts_sqrt(TruncatedSeries(square, order)).body,
        ]
        if not b.is_zero():
            results.append((a * b).exact_div(b))
        for p in results:
            assert_canonical(p)
        # nothing to drop and nothing to move: the polynomial itself comes back
        assert a.truncate(a.total_degree()) is a
        assert a.shift((0,) * n) is a
        assert a - a == Polynomial.zero(n)
        assert repr(a - a) == repr(Polynomial.zero(n))


def test_inverse_of_a_unit_with_negative_constant_term_is_canonical():
    z1 = Polynomial.variable(1, 1)
    inverse = ts_inverse(TruncatedSeries(z1 - 1, 3)).body
    assert inverse == -1 - z1 - z1**2 - z1**3
    assert_canonical(inverse)


# -- Fraction references for the integer kernels --------------------------------
#
# Products, substitutions, shifts and exact divisions run on integer term
# tables; these are the direct Fraction algorithms they replaced.


def ref_mul(a, b):
    """Double loop over the terms in Fraction arithmetic."""
    out = {}
    for ma, ca in a.terms():
        for mb, cb in b.terms():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, F(0)) + ca * cb
    return Polynomial(a.n, out)


def ref_rows(f, i):
    """{k: coefficient of z_(i+1)^k as a term table}, for a 0-based i."""
    rows = {}
    for mono, c in f.terms():
        rows.setdefault(mono[i], {})[mono[:i] + (0,) + mono[i + 1 :]] = c
    return rows


def ref_taylor_shift_one(f, i, c):
    """z_(i+1) <- z_(i+1) + c by synthetic division along one variable."""
    rows = ref_rows(f, i)
    top = max(rows, default=0)
    coeffs = [dict(rows.get(k, {})) for k in range(top + 1)]
    for j in range(top):
        for k in range(top - 1, j - 1, -1):
            for mono, coeff in coeffs[k + 1].items():
                coeffs[k][mono] = coeffs[k].get(mono, F(0)) + c * coeff
    return Polynomial(f.n, {
        mono[:i] + (k,) + mono[i + 1 :]: coeff
        for k, row in enumerate(coeffs)
        for mono, coeff in row.items()
    })


def ref_shift(f, point):
    for i, c in enumerate(point):
        if c != 0:
            f = ref_taylor_shift_one(f, i, F(c))
    return f


def ref_substitute(f, var, replacement):
    """Horner evaluation in Fraction arithmetic."""
    rows = ref_rows(f, var - 1)
    if not rows:
        return Polynomial.zero(f.n)
    top = max(rows)
    acc = Polynomial(f.n, rows[top])
    for k in range(top - 1, -1, -1):
        acc = ref_mul(acc, replacement) + Polynomial(f.n, rows.get(k, {}))
    return acc


def ref_exact_div(f, divisor):
    """Division with grlex leading terms in Fraction arithmetic."""
    quotient = {}
    rem = f
    lead_mono, lead_coeff = divisor.leading_term()
    while not rem.is_zero():
        rmono, rcoeff = rem.leading_term()
        qmono = tuple(a - b for a, b in zip(rmono, lead_mono))
        if any(e < 0 for e in qmono):
            raise ValueError("division is not exact")
        qcoeff = rcoeff / lead_coeff
        quotient[qmono] = quotient.get(qmono, F(0)) + qcoeff
        rem = rem - ref_mul(Polynomial.monomial(f.n, qmono, qcoeff), divisor)
    return Polynomial(f.n, quotient)


def assert_equal_with_fraction_coefficients(got, want):
    assert got == want
    assert all(type(c) is Fraction for _, c in got.terms())


def operand(rng, n):
    """A zero, constant, small-rational or large-denominator polynomial."""
    kind = rng.randrange(6)
    if kind == 0:
        return Polynomial.zero(n)
    if kind == 1:
        return Polynomial.constant(n, rng.choice((F(-7, 3), F(1, 2**61 - 1), 3**40)))
    if kind == 2:
        return random_poly(rng, n, 4, 5)
    return big_denominator_poly(rng, n, 4, 5)


# zero, negative, non-integer and large coordinates
COORDINATES = (0, 0, -3, 2, F(5, 7), F(-1, 2**61 - 1), F(3**40, 7), F(-2**61 + 1, 3**40))


def test_product_matches_the_fraction_double_loop():
    rng = random.Random(110)
    for _ in range(80):
        n = rng.randint(1, 4)
        a, b = operand(rng, n), operand(rng, n)
        assert_equal_with_fraction_coefficients(a * b, ref_mul(a, b))


def naive_table_product(ta, tb, n):
    """The product of two packed term tables, its exponents summed as tuples."""
    out = {}
    for ma, ca in zip(_unpack(ta, n), ta.values()):
        for mb, cb in zip(_unpack(tb, n), tb.values()):
            mono = _pack(tuple(x + y for x, y in zip(ma, mb)))
            out[mono] = out.get(mono, 0) + ca * cb
    return out


def without_zeros(table):
    return {m: c for m, c in table.items() if c}


def test_mul_add_equals_the_naive_product():
    rng = random.Random(116)
    for case in range(120):
        n = rng.randint(1, 4)
        ta, tb, start = (operand(rng, n)._terms for _ in range(3))
        scale = (1, -1, 7)[case % 3]
        acc = dict(start)
        want = dict(start)
        for mono, c in naive_table_product(ta, tb, n).items():
            want[mono] = want.get(mono, 0) + scale * c
        assert _mul_add(acc, ta, tb, scale) is acc
        assert acc == without_zeros(want)
        assert 0 not in acc.values()


def test_mul_add_deletes_what_cancels():
    rng = random.Random(117)
    for _ in range(60):
        n = rng.randint(1, 4)
        ta, tb = random_poly(rng, n, 3, 5)._terms, big_denominator_poly(rng, n, 3, 5)._terms
        acc = _mul_add({}, ta, tb, 7)
        assert 0 not in acc.values()
        assert _mul_add(acc, tb, ta, -7) == {}
        # cancel every other product term through the accumulator's start value
        product = naive_table_product(ta, tb, n)
        start = {m: -c for i, (m, c) in enumerate(product.items()) if c and i % 2}
        acc = _mul_add(dict(start), ta, tb)
        assert acc == without_zeros({m: c + start.get(m, 0) for m, c in product.items()})
        assert 0 not in acc.values()


def test_truncated_product_equals_the_truncated_full_product():
    rng = random.Random(118)
    for _ in range(60):
        n = rng.randint(1, 4)
        a, b = operand(rng, n), operand(rng, n)
        top = max(a.total_degree() + b.total_degree(), 0)
        for k in range(-1, top + 2):
            assert _truncated_product(a, b, k) == (a * b).truncate(k)


def test_power_equals_repeated_products():
    # base**k must equal k plain products of Polynomials, whatever the
    # constant term
    rng = random.Random(115)
    for case in range(40):
        n = rng.randint(1, 3)
        base = operand(rng, n)
        if case % 2:  # a nonzero constant term: negative, fractional or large
            base = base - base.constant_term() + rng.choice((-1, F(-7, 3), F(1, 2**61 - 1), 3**40))
        k = rng.randint(0, 5)
        want = Polynomial.constant(n, 1)
        for _ in range(k):
            want = want * base
        got = base**k
        assert_equal_with_fraction_coefficients(got, want)
        assert repr(got) == repr(want)


def test_one_term_powers_equal_repeated_products():
    # a constant or monomial base is raised by one key multiply and one
    # coefficient power; it must equal k plain products all the same
    rng = random.Random(2901)
    for case in range(40):
        n = rng.randint(0, 4)
        c = rng.choice((-1, F(-7, 3), F(1, 2**61 - 1), 3**40, random_fraction(rng, 1, 9)))
        base = (Polynomial.constant(n, c) if case % 2 else
                Polynomial.monomial(n, random_monomial(rng, n, 4), c))
        k = rng.randint(0, 6)
        want = Polynomial.constant(n, 1)
        for _ in range(k):
            want = want * base
        got = base**k
        assert_equal_with_fraction_coefficients(got, want)
        assert repr(got) == repr(want)


def test_a_huge_power_of_one_term_or_zero_answers_at_once():
    started = time.perf_counter()
    assert Polynomial.constant(1, 3) ** 10**5 == Polynomial.constant(1, 3 ** 10**5)
    assert Polynomial.constant(3, F(-1, 2)) ** 10**5 == Polynomial.constant(3, F(1, 2**10**5))
    z = Polynomial.monomial(2, (1, 2), -1) ** (10**5 + 1)
    assert z == Polynomial.monomial(2, (10**5 + 1, 2 * 10**5 + 2), -1)
    assert Polynomial.zero(2) ** 10**9 == Polynomial.zero(2)
    assert time.perf_counter() - started < 1.0


def test_powers_of_zero():
    for n in (0, 1, 3):
        zero = Polynomial.zero(n)
        assert zero**0 == Polynomial.constant(n, 1)
        for k in (1, 2, 5):
            assert zero**k == zero


def test_largest_dense_power_the_parser_accepts_matches_the_multinomial_formula():
    # (1+z1+z2+z3)^32 has every monomial of degree <= 32 in three variables;
    # the coefficient of z1^a z2^b z3^c is 32! / (a! b! c! (32-a-b-c)!)
    got = parse_poly("(1+z1+z2+z3)^32")
    f = math.factorial
    want = {(a, b, c): f(32) // (f(a) * f(b) * f(c) * f(32 - a - b - c))
            for a in range(33) for b in range(33 - a) for c in range(33 - a - b)}
    assert len(want) == got.term_count() == 6545
    assert got == Polynomial(3, want)


def test_sparse_power_of_high_degree_is_fast():
    # 33 terms of degree up to 3072: a recurrence over every degree would
    # take seconds here, while 31 products of at most 33 terms by the 2-term
    # base take about a millisecond
    m = {(32, 32, 32): 1}
    started = time.perf_counter()
    got = (Polynomial.constant(3, 1) + Polynomial(3, m)) ** 32
    assert time.perf_counter() - started < 1.0
    assert got == Polynomial(3, {(32 * i,) * 3: math.comb(32, i) for i in range(33)})


def test_shift_matches_synthetic_division():
    rng = random.Random(111)
    for _ in range(60):
        n = rng.randint(1, 4)
        f = operand(rng, n)
        p = tuple(rng.choice(COORDINATES) for _ in range(n))
        assert_equal_with_fraction_coefficients(f.shift(p), ref_shift(f, p))
    # rows the operands above do not reach.  z1^9 + z1^2*z2: in z1 a row of
    # one top entry and a row with a gap; rows of uneven degree in one table,
    # each lifted to the one denominator; degree 12 to 16 in one variable
    cases = [(parse_poly("z1^9 + z1^2*z2"), (a, b)) for a in COORDINATES[2:] for b in COORDINATES]
    for _ in range(20):
        n = rng.randint(2, 4)
        terms = {(e,) + rest: random_fraction(rng)
                 for rest in (random_monomial(rng, n - 1, 3) for _ in range(rng.randint(2, 5)))
                 for e in rng.sample(range(9), rng.randint(1, 3))}
        p = (rng.choice(COORDINATES[2:]),) + tuple(rng.choice(COORDINATES) for _ in range(n - 1))
        cases.append((Polynomial(n, terms), p))
    for _ in range(12):
        n = rng.randint(1, 3)
        f = big_denominator_poly(rng, n, 3, 4)
        var = rng.randrange(n)
        for _ in range(3):
            mono = list(random_monomial(rng, n, 3))
            mono[var] = rng.randint(12, 16)
            f = f + Polynomial.monomial(n, mono, random_fraction(rng))
        cases.append((f, tuple(rng.choice(COORDINATES[4:]) for _ in range(n))))
    # the Horner loop of `substitute` runs every shift: one dense row of degree 40
    # to 64 at a non-integer coordinate, and rows of degree 17 to 40 with gaps
    # below their top entries, of uneven degree in one table
    for _ in range(4):
        n = rng.randint(1, 3)
        var = rng.randrange(n)
        dense = {tuple(k if j == var else 0 for j in range(n)):
                 F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                 for k in range(rng.randint(40, 64) + 1)}
        p = tuple(rng.choice(COORDINATES[4:] if j == var else COORDINATES) for j in range(n))
        cases.append((Polynomial(n, dense), p))
    for _ in range(6):
        n, top = rng.randint(1, 3), rng.randint(17, 40)
        terms = {(e,) + rest: random_fraction(rng)
                 for rest in (random_monomial(rng, n - 1, 2) for _ in range(rng.randint(1, 3)))
                 for e in [top - 1, *rng.sample(range(top - 2), 3)]}
        terms[(top,) + (0,) * (n - 1)] = F(-3, 5)
        p = (rng.choice(COORDINATES[4:]),) + tuple(rng.choice(COORDINATES) for _ in range(n - 1))
        cases.append((Polynomial(n, terms), p))
    for f, p in cases:
        assert_equal_with_fraction_coefficients(f.shift(p), ref_shift(f, p))


def test_dense_shift_is_fast():
    # 2925 terms of degree 24 in three variables with three non-integer
    # coordinates: one dense row shift per exponent pair of the other two
    # variables takes tens of milliseconds, so only integer growth inside
    # the rows could reach the bound
    f = parse_poly("(1+z1+z2+z3)^24")
    p = (F(1, 3), F(-2, 5), F(7, 11))
    started = time.perf_counter()
    got = f.shift(p)
    assert time.perf_counter() - started < 1.0
    assert got == parse_poly(f"({1 + sum(p)}+z1+z2+z3)^24")


def test_substitute_matches_fraction_horner():
    rng = random.Random(112)
    for _ in range(60):
        n = rng.randint(1, 4)
        var = rng.randint(1, n)
        f = operand(rng, n)
        # zero, constant and multi-term replacements, z_var itself included
        replacement = operand(rng, n) + rng.choice((0, Polynomial.variable(n, var)))
        got = f.substitute(var, replacement)
        assert_equal_with_fraction_coefficients(got, ref_substitute(f, var, replacement))


def integer_divisor(rng, n):
    """Nonconstant, integer coefficients, content > 1, all coefficients negative."""
    content = rng.choice((2, 6, 3**40))
    while True:
        terms = {random_monomial(rng, n, 3): -content * rng.randint(1, 9)
                 for _ in range(rng.randint(1, 4))}
        if any(map(sum, terms)):
            return Polynomial(n, terms)


def test_exact_div_matches_grlex_division():
    rng = random.Random(113)
    for _ in range(60):
        n = rng.randint(1, 4)
        divisor = integer_divisor(rng, n) if rng.random() < 0.5 else operand(rng, n)
        while divisor.total_degree() < 1:
            divisor = divisor + Polynomial.variable(n, rng.randint(1, n))
        q = operand(rng, n)  # zero included: a zero dividend
        f = ref_mul(q, divisor)
        assert_equal_with_fraction_coefficients(f.exact_div(divisor), q)
        assert ref_exact_div(f, divisor) == q
        # a nonconstant divisor never divides f + c for a constant c != 0
        inexact = f + rng.choice(COORDINATES[2:])
        with pytest.raises(ValueError, match="division is not exact"):
            inexact.exact_div(divisor)
        with pytest.raises(ValueError, match="division is not exact"):
            ref_exact_div(inexact, divisor)


# -- local-structure helpers ---------------------------------------------------


def test_truncate_drops_high_total_degree():
    f = Polynomial(2, {(0, 0): 1, (2, 1): 2, (4, 1): 3})
    assert f.truncate(3) == Polynomial(2, {(0, 0): 1, (2, 1): 2})
    assert f.truncate(0) == Polynomial.constant(2, 1)


def test_lowest_homogeneous_form():
    f = Polynomial(2, {(1, 1): 1, (0, 2): 2, (3, 0): 7})
    form, degree = f.lowest_homogeneous_form()
    assert degree == 2
    assert form == Polynomial(2, {(1, 1): 1, (0, 2): 2})
    rng = random.Random(108)
    for _ in range(30):
        p = random_poly(rng, 2, 5, 6, nonzero=True)
        form, degree = p.lowest_homogeneous_form()
        assert degree == p.order()
        assert all(sum(m) == degree for m, _ in form.terms())


def test_coefficients_in_rejects_variables_outside_the_space():
    f = Polynomial(3, {(1, 2, 0): 1, (0, 0, 2): -1})
    for var in (0, 4):
        with pytest.raises(VariableIndexError, match=f"variable index {var} outside 1..3"):
            f.coefficients_in(var)
    with pytest.raises(VariableIndexError):
        Polynomial.zero(2).coefficients_in(3)


def test_coefficients_in_reconstructs():
    rng = random.Random(109)
    for _ in range(20):
        f = random_poly(rng, 2, 4, 6)
        coeffs = f.coefficients_in(2)
        z2 = Polynomial.variable(2, 2)
        rebuilt = Polynomial.zero(2)
        for k, c in enumerate(coeffs):
            rebuilt = rebuilt + c * z2**k
        assert rebuilt == f


@pytest.mark.parametrize("value", [True, 2.0, F(2)])
def test_a_non_int_exponent_or_insert_position_is_a_type_error(value):
    # True passed as 1, and 2.0 failed with a bare "cannot be interpreted as an integer"
    f = Polynomial(3, {(1, 0, 2): 1, (0, 0, 1): -2})
    got = re.escape(f" must be an int, got {value!r}") + "$"
    with pytest.raises(TypeError, match="polynomial exponent" + got):
        f ** value
    with pytest.raises(TypeError, match="insert position" + got):
        f.insert_variable(value)


def test_drop_and_insert_variable_are_inverse():
    f = Polynomial(3, {(1, 0, 2): 1, (0, 0, 1): -2})
    dropped = f.drop_variable(2)
    assert dropped.n == 2
    assert dropped.insert_variable(2) == f
    with pytest.raises(ValueError):
        f.drop_variable(1)  # z1 occurs


# -- scalar helpers -------------------------------------------------------------


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-1)) is None
    rng = random.Random(110)
    for _ in range(50):
        q = random_fraction(rng, 0, 30, 30)
        r = rational_sqrt(q * q)
        assert r == abs(q)


def test_as_point_and_as_rational():
    assert as_rational(3) == F(3)
    assert isinstance(as_rational(3), F)
    pt = as_point([1, F(1, 2)])
    assert pt == (F(1), F(1, 2))
    with pytest.raises(DimensionMismatchError):
        as_point((1, 2), 3)
    # a float is refused, not read as its binary value 3602879701896397/2^55
    for inexact in (lambda: as_rational(0.1), lambda: as_point((1, 0.1)),
                    lambda: Polynomial(1, {(1,): 0.1})):
        with pytest.raises(TypeError, match="0.1"):
            inexact()


# input checks, each case with the exception it raises
Z1 = Polynomial.variable(2, 1)
BAD_INPUTS = {
    "negative variable count": (lambda: Polynomial(-1), ValueError),
    "negative power": (lambda: Z1 ** -1, ValueError),
    "lowest form of zero": (lambda: Polynomial.zero(2).lowest_homogeneous_form(),
                            ZeroPolynomialError),
    "insert below 1": (lambda: Z1.insert_variable(0), VariableIndexError),
    "insert past n + 1": (lambda: Z1.insert_variable(4), VariableIndexError),
    "sum with a string": (lambda: Z1 + "z1", TypeError),
    "difference with a string": (lambda: Z1 - "z1", TypeError),
    "product with a string": (lambda: Z1 * "z1", TypeError),
}


@pytest.mark.parametrize("call, error", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_inputs_raise_their_error(call, error):
    with pytest.raises(error):
        call()
