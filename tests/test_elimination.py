"""Fraction-free determinants, resultants against their Sylvester-matrix
reference, discriminants, coprimality and discreteness."""

import random
from fractions import Fraction

import pytest

from germkit.algebra import Polynomial, _exact_quotient
from germkit.elimination import (
    coprime_at,
    discriminant,
    matrix_det,
    resultant,
    zero_set_discrete,
)
from germkit.errors import (
    DegreeTooSmallError,
    DegreeZeroError,
    DimensionMismatchError,
    NonConstantLeadingCoefficientError,
    VariableIndexError,
)
from helpers import (
    big_denominator_poly,
    random_fraction,
    random_monomial,
    random_point,
    random_poly,
)

F = Fraction

CUSP = Polynomial(2, {(0, 2): 1, (3, 0): -1})  # z2^2 - z1^3
COUNTEREXAMPLE = Polynomial(3, {(0, 0, 2): 1, (1, 2, 0): -1})  # z3^2 - z1*z2^2


# -- Sylvester matrix and determinants -------------------------------------------


def sylvester_matrix(f, g, j):
    """Reference (df+dg) x (df+dg) Sylvester matrix of f and g in variable j:
    dg rows of f's coefficients in z_j and df rows of g's, highest first."""
    fdesc, gdesc = f.coefficients_in(j)[::-1], g.coefficients_in(j)[::-1]
    df, dg = len(fdesc) - 1, len(gdesc) - 1
    if df < 1:
        raise DegreeZeroError(f"first polynomial has degree {max(df, 0)} in z{j}")
    if dg < 1:
        raise DegreeZeroError(f"second polynomial has degree {max(dg, 0)} in z{j}")
    zero, size = Polynomial.zero(f.n), df + dg
    return ([[zero] * s + fdesc + [zero] * (size - df - 1 - s) for s in range(dg)]
            + [[zero] * s + gdesc + [zero] * (size - dg - 1 - s) for s in range(df)])


def test_sylvester_matrix_shape_and_content():
    g = Polynomial(2, {(0, 1): 2})  # 2*z2
    m = sylvester_matrix(CUSP, g, 2)
    # deg 2 + deg 1 in z2 -> 3x3: one row of cusp coefficients, two of g's
    assert len(m) == 3 and all(len(row) == 3 for row in m)
    one = Polynomial(2, {(0, 0): 1})
    zero = Polynomial.zero(2)
    two = Polynomial(2, {(0, 0): 2})
    cube = Polynomial(2, {(3, 0): -1})
    assert m[0] == [one, zero, cube]
    assert m[1] == [two, zero, zero]
    assert m[2] == [zero, two, zero]


def test_sylvester_requires_positive_degree():
    with pytest.raises(DegreeZeroError):
        sylvester_matrix(CUSP, Polynomial.constant(2, 3), 2)


def test_matrix_det_known_values():
    c = Polynomial.constant
    m = [
        [c(1, 2), c(1, 3), c(1, 0)],
        [c(1, 0), c(1, 1), c(1, 4)],
        [c(1, 1), c(1, 0), c(1, 6)],
    ]
    # det [[2,3,0],[0,1,4],[1,0,6]] = 2*6 - 3*(-4) + 0 = 24
    assert matrix_det(m) == c(1, 24)
    with pytest.raises(ValueError):
        matrix_det([[c(1, 1), c(1, 2)]])


def laplace_det(m):
    """Reference determinant: Laplace expansion along the first remaining row,
    memoised on the set of columns left, over Fraction polynomials."""
    n, size = m[0][0].n, len(m)
    memo = {}

    def minor(cols):
        if not cols:
            return Polynomial.constant(n, 1)
        if cols not in memo:
            row = m[size - len(cols)]
            total = Polynomial.zero(n)
            for k, col in enumerate(sorted(cols)):
                if not row[col].is_zero():
                    term = row[col] * minor(cols - {col})
                    total = total + (term if k % 2 == 0 else -term)
            memo[cols] = total
        return memo[cols]

    return minor(frozenset(range(size)))


def test_bareiss_agrees_with_cofactor_expansion():
    # one Bareiss path serves every size; cross-check it on polynomial
    # matrices against the Laplace expansion
    rng = random.Random(401)
    for size in (5, 6):
        m = [
            [
                Polynomial(1, {(rng.randint(0, 2),): random_fraction(rng, -3, 3, 3)})
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        assert matrix_det(m) == laplace_det(m)


def _row_entries(rng, n, size, den):
    """A row of sparse polynomials whose coefficients have denominator den.

    Exponents stay below 2 in 3 variables, which keeps the size-7 minors
    (and the reference expansion) small enough for a unit test.
    """
    top = 2 if n < 3 else 1
    row = []
    for _ in range(size):
        terms = {}
        for _ in range(rng.randint(0, 3)):  # no terms at all gives a zero entry
            mono = tuple(rng.randint(0, top) for _ in range(n))
            terms[mono] = F(rng.choice([-7, -5, -3, -1, 1, 3, 5, 7]), den)
        row.append(Polynomial(n, terms))
    return row


def _assert_det_matches_laplace(m):
    det = matrix_det(m)
    assert det == laplace_det(m)
    # the integer kernel converts back once: no int coefficient leaks out
    assert all(isinstance(c, Fraction) for _, c in det.terms())
    return det


def test_matrix_det_matches_laplace_expansion_on_rational_matrices():
    rng = random.Random(406)
    dens = [2, 3, 4, 5, 6, 7, 8]  # a different non-integer denominator per row
    for n in (1, 2, 3):
        for size in range(1, 8):
            rng.shuffle(dens)
            m = [_row_entries(rng, n, size, dens[i]) for i in range(size)]
            _assert_det_matches_laplace(m)
            if size == 1:
                continue
            # a zero first pivot forces a row swap
            swapped = [row[:] for row in m]
            swapped[0][0] = Polynomial.zero(n)
            if all(row[0].is_zero() for row in swapped[1:]):
                swapped[1][0] = Polynomial.constant(n, F(1, 3))
            _assert_det_matches_laplace(swapped)
            # a zero row, and a last row that combines earlier ones, are singular
            zero_row = [row[:] for row in m]
            zero_row[size - 1] = [Polynomial.zero(n)] * size
            assert _assert_det_matches_laplace(zero_row).is_zero()
            a, b = rng.choice(m[0]), Polynomial.constant(n, F(-2, 9))
            combined = [row[:] for row in m]
            combined[size - 1] = [a * x + b * y for x, y in zip(m[0], m[size - 2])]
            assert _assert_det_matches_laplace(combined).is_zero()


def test_exact_quotient_rejects_an_inexact_division():
    x2_plus_1, x = {(2,): 1, (0,): 1}, {(1,): 1}
    with pytest.raises(ValueError):
        _exact_quotient(x2_plus_1, x)  # leaves the remainder 1
    with pytest.raises(ValueError):
        _exact_quotient({(1,): 3}, {(1,): 2})  # 3/2 is not an integer
    assert _exact_quotient({(2,): 1, (0,): -1}, {(1,): 1, (0,): -1}) == {(1,): 1, (0,): 1}


def test_det_of_singular_matrix_is_zero():
    c = Polynomial.constant
    row = [c(2, 1), c(2, 2), c(2, 3), c(2, 4), c(2, 5)]
    m = [row, row] + [
        [c(2, F(k * j + 1, 2)) for j in range(5)] for k in range(3)
    ]
    assert matrix_det(m) == Polynomial.zero(2)


# -- resultants -------------------------------------------------------------------


def test_resultant_pinned_values():
    g = Polynomial(2, {(0, 1): 2})
    r = resultant(CUSP, g, 2)
    assert r == Polynomial(2, {(3, 0): -4})  # -4*z1^3
    r3 = resultant(COUNTEREXAMPLE, COUNTEREXAMPLE.derivative(3), 3)
    assert r3 == Polynomial(3, {(1, 2, 0): -4})  # -4*z1*z2^2


def test_resultant_antisymmetry_sign():
    rng = random.Random(402)
    for _ in range(20):
        f = random_poly(rng, 2, 3, 4, nonzero=True)
        g = random_poly(rng, 2, 3, 4, nonzero=True)
        if f.degree_in(2) < 1 or g.degree_in(2) < 1:
            continue
        df, dg = f.degree_in(2), g.degree_in(2)
        sign = -1 if (df * dg) % 2 else 1
        assert resultant(f, g, 2) == sign * resultant(g, f, 2)


def test_resultant_specializes_at_rational_points():
    # Res commutes with substituting rational values for the other variables,
    # provided the leading coefficients survive specialization (monic here).
    rng = random.Random(403)

    def univariate_sylvester_det(fc, gc):
        df, dg = len(fc) - 1, len(gc) - 1
        size = df + dg
        rows = []
        for i in range(dg):
            row = [F(0)] * size
            for k, c in enumerate(reversed(fc)):
                row[i + k] = c
            rows.append(row)
        for i in range(df):
            row = [F(0)] * size
            for k, c in enumerate(reversed(gc)):
                row[i + k] = c
            rows.append(row)
        m = [[Polynomial.constant(1, c) for c in row] for row in rows]
        return matrix_det(m).constant_term()

    instances = 0
    while instances < 5:
        df = rng.randint(1, 3)
        dg = rng.randint(1, 3)
        z2 = Polynomial.variable(2, 2)
        f = z2**df
        g = z2**dg
        for k in range(df):
            f = f + random_poly(rng, 2, 2, 3).substitute(2, Polynomial.zero(2)) * z2**k
        for k in range(dg):
            g = g + random_poly(rng, 2, 2, 3).substitute(2, Polynomial.zero(2)) * z2**k
        r = resultant(f, g, 2)
        instances += 1
        for _ in range(20):
            a = random_fraction(rng, -5, 5, 5)
            fc = [c.evaluate((a, F(0))) for c in f.coefficients_in(2)]
            gc = [c.evaluate((a, F(0))) for c in g.coefficients_in(2)]
            expected = univariate_sylvester_det(fc, gc)
            assert r.evaluate((a, F(0))) == expected


def test_planted_common_factor_kills_resultant():
    rng = random.Random(404)
    z2 = Polynomial.variable(2, 2)
    for _ in range(20):
        h = z2 - random_poly(rng, 2, 2, 2).substitute(2, Polynomial.zero(2))
        a = random_poly(rng, 2, 2, 3, nonzero=True)
        b = random_poly(rng, 2, 2, 3, nonzero=True)
        f, g = h * a, h * b
        if f.degree_in(2) < 1 or g.degree_in(2) < 1:
            continue
        assert resultant(f, g, 2) == Polynomial.zero(2)


def _poly_in(rng, n, j, degree, lead_degree, max_den=9):
    """A polynomial of the given degree in z_j whose coefficients are random in
    all variables: the top one of total degree up to lead_degree (so it is not
    constant when lead_degree > 0 and n > 1), some lower ones zero (so steps of
    the remainder sequence drop the degree by two or more)."""
    terms = {}
    for k in range(degree + 1):
        if k < degree and rng.random() < 0.3:
            continue
        for _ in range(rng.randint(1, 3)):
            mono = list(random_monomial(rng, n, lead_degree if k == degree else 2))
            mono[j - 1] = k
            terms[tuple(mono)] = random_fraction(rng, -5, 5, max_den) or F(1)
    return Polynomial(n, terms)


def _with_lead(rng, n, j, d):
    """The eliminate benchmark's shape: a constant times z_j^d plus, for each
    k < d and base variable x, z_j^k times x^(d-k) and x^(d-1-k)."""
    def mono(k, x=None, m=0):
        e = [0] * n
        if x is not None:
            e[x - 1] = m
        e[j - 1] = k
        return tuple(e)

    terms = {mono(d): F(rng.choice((1, -1, 2, -2, 3, -3)))}
    for k in range(d):
        for m in (d - k, d - 1 - k):
            for x in (x for x in range(1, n + 1) if x != j):
                terms[mono(k, x, m)] = F(rng.choice((1, -1, 2, -2, 3, -3)))
    return Polynomial(n, terms)


def _assert_resultant_matches_bareiss(f, g, j):
    r = resultant(f, g, j)
    assert r == matrix_det(sylvester_matrix(f, g, j)), (f, g, j)
    return r


def test_resultant_matches_bareiss_on_seeded_pairs():
    rng = random.Random(407)
    zeros = smaller_first = 0
    for case in range(72):
        n = rng.randint(1, 3)
        j = rng.randint(1, n)
        df, dg = rng.randint(1, 4), rng.randint(1, 4)
        f = _poly_in(rng, n, j, df, rng.randint(0, 1))
        g = _poly_in(rng, n, j, dg, rng.randint(0, 1))
        if case % 4 == 1:  # a common factor of positive degree: a zero resultant
            c = _poly_in(rng, n, j, 1, 1)
            f, g = f * c, g * c
        if case % 4 == 2:  # large denominators on both sides
            f = f + big_denominator_poly(rng, n, 2, 3)
            g = g * F(1, 2**61 - 1) + big_denominator_poly(rng, n, 2, 3)
        if f.degree_in(j) < 1 or g.degree_in(j) < 1:
            continue
        smaller_first += f.degree_in(j) < g.degree_in(j)
        zeros += _assert_resultant_matches_bareiss(f, g, j).is_zero()
    assert zeros >= 15 and smaller_first >= 15


def test_resultant_matches_bareiss_on_hand_picked_sequences():
    x, z = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    # z^5 + (x+1)z + 1 mod z^4 + x leaves z + 1: the next step has delta = 3
    _assert_resultant_matches_bareiss(z**5 + (x + 1) * z + 1, z**4 + x, 2)
    # the same with non-constant leading coefficients, so h^delta divides
    _assert_resultant_matches_bareiss(x * z**5 + (x + 1) * z + 1, (x - 1) * z**4 + x, 2)
    _assert_resultant_matches_bareiss(z**4 + x, x * z**5 + z + 1, 2)  # deg f < deg g
    _assert_resultant_matches_bareiss(z**6 + x, F(2, 3) * z + x**2, 2)  # first delta = 5
    # an exact divisor: the sequence ends at g itself
    assert _assert_resultant_matches_bareiss((z**2 + x) * (z - x), z**2 + x, 2).is_zero()


def test_resultant_matches_bareiss_on_the_benchmark_shapes():
    rng = random.Random(408)
    for n, df, dg in ((2, 2, 1), (2, 3, 3), (2, 5, 4), (3, 2, 2), (3, 3, 2)):
        f, g = _with_lead(rng, n, n, df), _with_lead(rng, n, n, dg)
        _assert_resultant_matches_bareiss(f, g, n)
        _assert_resultant_matches_bareiss(g, f, n)
        if df >= 2:
            assert discriminant(f, n) * f.coefficients_in(n)[df] == (
                (-1) ** (df * (df - 1) // 2) * matrix_det(sylvester_matrix(f, f.derivative(n), n)))


def test_resultant_degree_zero_errors_keep_their_messages():
    z1 = Polynomial.variable(2, 1)
    for first, second, which, degree in ((z1, CUSP, "first", 0), (CUSP, z1, "second", 0),
                                         (Polynomial.zero(2), CUSP, "first", 0)):
        with pytest.raises(DegreeZeroError) as err:
            resultant(first, second, 2)
        assert str(err.value) == f"{which} polynomial has degree {degree} in z2"


def test_resultant_rejects_mismatched_spaces_and_variables():
    z2_of_3 = Polynomial.variable(3, 2) + Polynomial.variable(3, 3)
    message = "polynomials live in 2 and 3 variables"
    with pytest.raises(DimensionMismatchError, match=message):
        resultant(CUSP, z2_of_3, 2)
    with pytest.raises(DimensionMismatchError, match=message):
        coprime_at(CUSP, z2_of_3, (0, 0), 2)
    for j in (0, 3):
        with pytest.raises(VariableIndexError):
            resultant(CUSP, CUSP.derivative(2), j)
        with pytest.raises(VariableIndexError):
            discriminant(CUSP, j)


# -- discriminants ----------------------------------------------------------------


def test_discriminant_of_monic_quadratic_is_a2_minus_4b():
    rng = random.Random(405)
    z2 = Polynomial.variable(2, 2)
    for _ in range(50):
        a = random_poly(rng, 2, 3, 4).substitute(2, Polynomial.zero(2))
        b = random_poly(rng, 2, 3, 4).substitute(2, Polynomial.zero(2))
        f = z2 * z2 + a * z2 + b
        assert discriminant(f, 2) == a * a - 4 * b


def test_discriminant_pinned_values():
    assert discriminant(CUSP, 2) == Polynomial(2, {(3, 0): 4})  # 4*z1^3
    f = Polynomial(2, {(0, 2): 1, (1, 1): 1, (1, 0): 1})  # z2^2 + z1*z2 + z1
    assert discriminant(f, 2) == Polynomial(2, {(2, 0): 1, (1, 0): -4})


def test_discriminant_errors():
    with pytest.raises(DegreeTooSmallError):
        discriminant(Polynomial(2, {(1, 1): 1}), 2)  # degree 1 in z2
    with pytest.raises(NonConstantLeadingCoefficientError):
        discriminant(Polynomial(2, {(1, 2): 1, (0, 0): 1}), 2)  # lc = z1


# -- coprimality and discreteness ---------------------------------------------------


def test_coprime_at_breakdown_witness():
    # f and its z3-derivative are coprime at 0, but the resultant's zero set
    # is a whole plane through the base point: discreteness fails in dim 3.
    rep = coprime_at(COUNTEREXAMPLE, COUNTEREXAMPLE.derivative(3), (0, 0, 0), 3)
    assert rep.coprime_germ_at_point
    assert rep.vanishing_at_point
    assert rep.resultant_poly == Polynomial(2, {(1, 2): -4})  # -4*z1*z2^2
    assert zero_set_discrete(rep.resultant_poly, (0, 0)) is False


def test_coprime_at_dimension_two_is_discrete():
    rep = coprime_at(CUSP, CUSP.derivative(2), (0, 0), 2)
    assert rep.coprime_germ_at_point
    assert rep.resultant_poly == Polynomial(1, {(3,): -4})  # -4*z1^3
    assert zero_set_discrete(rep.resultant_poly, (0,)) is True


def test_coprime_at_detects_shared_factor():
    shared = Polynomial(2, {(0, 1): 1, (1, 0): -1})  # z2 - z1
    g = shared * Polynomial(2, {(0, 1): 1, (1, 0): 1})
    h = shared * Polynomial(2, {(0, 1): 1, (2, 0): 1})
    rep = coprime_at(g, h, (0, 0), 2)
    assert not rep.coprime_germ_at_point
    assert rep.resultant_poly.is_zero()


def test_common_factor_that_is_a_unit_at_the_point_leaves_the_germs_coprime():
    # z2 - 1 is a unit at the origin, so the germs there are those of z1 and z2
    unit = Polynomial(2, {(0, 1): 1, (0, 0): -1})  # z2 - 1
    g = unit * Polynomial.variable(2, 1)
    h = unit * Polynomial.variable(2, 2)
    assert coprime_at(g, h, (0, 0), 2).coprime_germ_at_point


def test_coprime_with_a_common_factor_exactly_when_it_is_a_unit_at_the_point():
    # a and b monic in z_n and coprime, so the germs of c*a and c*b at p are
    # coprime exactly when c(p) != 0; the resultant is zero whenever c, after
    # the regularizing shear, has positive degree in z_n
    rng = random.Random(409)
    zero_resultants = 0
    for case in range(48):
        n = rng.randint(1, 3)
        p = random_point(rng, n, -2, 2, 2)
        zn, zero = Polynomial.variable(n, n), Polynomial.zero(n)
        while True:
            a = zn ** rng.randint(1, 2) + random_poly(rng, n, 1, 3).substitute(n, zero)
            b = zn ** rng.randint(1, 2) + random_poly(rng, n, 1, 3).substitute(n, zero)
            if not resultant(a, b, n).is_zero():
                break
        c = random_poly(rng, n, 2, 3, nonzero=True)
        if case % 2 and c.total_degree() > 0:
            c = c - c.evaluate(p)  # a common factor through p
        rep = coprime_at(c * a, c * b, p, n)
        zero_resultants += rep.resultant_poly.is_zero()
        assert rep.coprime_germ_at_point == (c.evaluate(p) != 0), (a, b, c, p)
    assert zero_resultants >= 16


def test_zero_set_discrete_conventions():
    r = Polynomial(1, {(3,): -4})
    assert zero_set_discrete(r, (0,)) is True  # univariate, finitely many roots
    assert zero_set_discrete(Polynomial.zero(1), (0,)) is False
    nonvanishing = Polynomial(2, {(0, 0): 1, (1, 0): 1})
    assert zero_set_discrete(nonvanishing, (0, 0)) is True  # no zeros nearby at all
    plane = Polynomial(2, {(1, 0): 1})
    assert zero_set_discrete(plane, (0, 0)) is False
