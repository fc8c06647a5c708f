"""Every public Polynomial operation, and resultants, against plain tuple dicts.

A Polynomial stores packed monomial keys; the reference here is the plain
representation, a dict from exponent tuples to nonzero Fractions, with the
textbook algorithm for each operation.  Seeded operands in 0-4 variables.
The last tests pin the degree cap: a result exactly at MAX_DEGREE is built,
and one past it is refused before any product is formed; and so is a degree
past MAX_VARIABLE_DEGREE in the variable a dense kernel splits by.
"""

import math
import random
import re
import time
from fractions import Fraction

import pytest

from germkit import algebra
from germkit.algebra import (
    MAX_DEGREE,
    MAX_VARIABLE_DEGREE,
    Polynomial,
    _axis_order,
    _linear_factors,
    _lift_levels,
    _linear_part,
    _monomial_multiple,
    _quadratic_parts,
    _truncated_product,
)
from germkit.elimination import discriminant, resultant
from germkit.series import TruncatedSeries, ts_inverse
from germkit.weierstrass import (
    WeierstrassData,
    apply_shear,
    make_regular,
    regular_order,
    weierstrass_prepare,
)
from helpers import BIG_DENOMINATORS, random_monomial

F = Fraction


# -- the reference: {exponent tuple: Fraction}, zeros dropped ---------------------


def clean(d):
    return {m: F(c) for m, c in d.items() if c}


def d_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return clean(out)


def d_scale(a, s):
    return clean({m: c * s for m, c in a.items()})


def d_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return clean(out)


def d_one(n):
    return {(0,) * n: F(1)}


def d_pow(a, k, n):
    out = d_one(n)
    for _ in range(k):
        out = d_mul(out, a)
    return out


def d_var(n, i, c=0):
    """z_(i+1) + c, for a 0-based i."""
    return clean({tuple(int(k == i) for k in range(n)): F(1), (0,) * n: c})


def d_evaluate(a, point):
    return sum((c * math.prod(v**e for v, e in zip(point, m)) for m, c in a.items()), F(0))


def d_derivative(a, i):
    return clean({m[:i] + (m[i] - 1,) + m[i + 1 :]: c * m[i] for m, c in a.items() if m[i]})


def d_substitute(a, i, rep, n):
    """z_(i+1) <- rep, term by term."""
    out = {}
    for m, c in a.items():
        rest = {m[:i] + (0,) + m[i + 1 :]: c}
        out = d_add(out, d_mul(rest, d_pow(rep, m[i], n)))
    return out


def d_shift(a, point, n):
    out = a
    for i, c in enumerate(point):
        out = d_substitute(out, i, d_var(n, i, c), n)
    return out


def d_degree(a):
    return max((sum(m) for m in a), default=-math.inf)


def d_coefficients_in(a, i):
    rows = {}
    for m, c in a.items():
        rows.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1 :]] = c
    return [rows.get(k, {}) for k in range(max(rows, default=-1) + 1)]


def grlex_order(a):
    """Ascending total degree, then z1-heaviest first."""
    return sorted(a, key=lambda m: (sum(m), tuple(-e for e in m)))


def d_det(rows, n):
    """Laplace expansion along the first remaining row, memoised on the columns left."""
    size, memo = len(rows), {}

    def minor(cols):
        if not cols:
            return d_one(n)
        if cols not in memo:
            row, total = rows[size - len(cols)], {}
            for k, col in enumerate(sorted(cols)):
                if row[col]:
                    total = d_add(total, d_scale(d_mul(row[col], minor(cols - {col})), (-1) ** k))
            memo[cols] = total
        return memo[cols]

    return minor(frozenset(range(size)))


def d_resultant(f, g, i, n):
    """det of the Sylvester matrix in z_(i+1): dg rows of f's coefficients, df of g's."""
    fdesc, gdesc = d_coefficients_in(f, i)[::-1], d_coefficients_in(g, i)[::-1]
    df, dg = len(fdesc) - 1, len(gdesc) - 1
    size = df + dg
    rows = ([[{}] * s + fdesc + [{}] * (size - df - 1 - s) for s in range(dg)]
            + [[{}] * s + gdesc + [{}] * (size - dg - 1 - s) for s in range(df)])
    return d_det(rows, n)


# -- operands --------------------------------------------------------------------


def coefficient(rng):
    if rng.random() < 0.2:
        return F(rng.randint(-10**12, 10**12), rng.choice(BIG_DENOMINATORS))
    return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))


def operand(rng, n, max_degree=3, max_terms=5):
    return clean({random_monomial(rng, n, max_degree): coefficient(rng)
                  for _ in range(rng.randint(0, max_terms))})


def assert_matches(p, want, n):
    """p holds exactly the reference terms, in canonical graded order."""
    assert p.n == n
    assert list(p.terms()) == [(m, want[m]) for m in grlex_order(want)]
    assert p == Polynomial(n, want)


# -- the differential tests --------------------------------------------------------


def test_every_polynomial_operation_matches_the_tuple_dict_reference():
    rng = random.Random(2801)
    prng = random.Random(2802)  # the mixed points, apart from the operands' stream
    for case in range(150):
        n = case % 5
        a, b = operand(rng, n), operand(rng, n)
        pa, pb = Polynomial(n, a), Polynomial(n, b)
        s = coefficient(rng)

        # constructors and inspection
        assert_matches(pa, a, n)
        assert_matches(Polynomial.zero(n), {}, n)
        assert_matches(Polynomial.constant(n, s), {(0,) * n: s}, n)
        mono = random_monomial(rng, n, 4)
        assert_matches(Polynomial.monomial(n, mono, s), {mono: s}, n)
        assert set(pa.support()) == set(a)
        assert pa.term_count() == len(a) and pa.is_zero() == (not a)
        assert pa.constant_term() == a.get((0,) * n, 0)
        for m in list(a) + [mono]:
            assert pa.coefficient(m) == a.get(m, 0)
        assert pa.total_degree() == d_degree(a)
        assert pa.order() == min((sum(m) for m in a), default=math.inf)
        if a:
            lead = max(a, key=lambda m: (sum(m), m))
            assert pa.leading_term() == (lead, a[lead])
            low = min(sum(m) for m in a)
            form, degree = pa.lowest_homogeneous_form()
            assert degree == low
            assert_matches(form, {m: c for m, c in a.items() if sum(m) == low}, n)
        exps = ", ".join(f"{m}: {a[m]}" for m in grlex_order(a))
        assert repr(pa) == f"Polynomial({n}, {{{exps}}})"
        assert (pa == pb) == (a == b)

        # ring arithmetic
        assert_matches(pa + pb, d_add(a, b), n)
        assert_matches(pa - pb, d_add(a, d_scale(b, -1)), n)
        assert_matches(-pa, d_scale(a, -1), n)
        assert_matches(pa * pb, d_mul(a, b), n)
        assert_matches(pa * s, d_scale(a, s), n)
        assert_matches(3 - pa, d_add({(0,) * n: F(3)}, d_scale(a, -1)), n)
        k = rng.randint(0, 3)
        assert_matches(pa**k, d_pow(a, k, n), n)
        for top in (-1, 0, 2, 5):
            assert_matches(pa.truncate(top), {m: c for m, c in a.items() if sum(m) <= top}, n)
            assert_matches(_truncated_product(pa, pb, top),
                           {m: c for m, c in d_mul(a, b).items() if sum(m) <= top}, n)

        # exact division: a*b / b is a, and (a*b + z^m) / b with m outside is not exact
        if b:
            assert_matches((pa * pb).exact_div(pb), a, n)

        # point operations, at a random point and at one that mixes 0, 1, -1, ints and
        # fractions; every value is a Fraction, and so is the zero polynomial's
        point = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        mixed = tuple(prng.choice((0, 1, -1, prng.randint(-9, 9),
                                   F(prng.randint(-9, 9), prng.randint(2, 9)))) for _ in range(n))
        for at in (point, mixed):
            for p, d in ((pa, a), (Polynomial.zero(n), {})):
                value = p.evaluate(at)
                assert type(value) is Fraction and value == d_evaluate(d, at)
                gradient = p.gradient_at(at)
                assert all(type(g) is Fraction for g in gradient)
                assert gradient == tuple(d_evaluate(d_derivative(d, i), at) for i in range(n))
        assert_matches(pa.shift(point), d_shift(a, point, n), n)

        # one variable at a time
        for i in range(n):
            var = i + 1
            assert pa.degree_in(var) == max((m[i] for m in a), default=-math.inf)
            assert pa.variable_order(var) == min((m[i] for m in a), default=math.inf)
            assert_matches(pa.derivative(var), d_derivative(a, i), n)
            rows = pa.coefficients_in(var)
            want_rows = d_coefficients_in(a, i)
            assert len(rows) == len(want_rows)
            for row, want in zip(rows, want_rows):
                assert_matches(row, want, n)
            assert_matches(pa.substitute(var, pb), d_substitute(a, i, b, n), n)
            free = {m[:i] + m[i + 1 :]: c for m, c in a.items() if not m[i]}
            assert_matches(pa.substitute(var, Polynomial.zero(n)).drop_variable(var), free, n - 1)
            if any(m[i] for m in a):
                with pytest.raises(ValueError, match=f"variable z{var} occurs"):
                    pa.drop_variable(var)
        for position in range(1, n + 2):
            i = position - 1
            assert_matches(pa.insert_variable(position),
                           {m[:i] + (0,) + m[i:]: c for m, c in a.items()}, n + 1)


@pytest.mark.parametrize("at", [F(1, 3), F(-2, 5)])
def test_evaluate_at_the_one_variable_budget_matches_the_reference(at):
    # Horner lifts the row of z1^k by b^(top - k); here top is 1024 and the low rows are lifted most
    a = {(MAX_VARIABLE_DEGREE,): F(-5, 7), (3,): F(2, 9), (1,): F(1), (0,): F(-1, 2)}
    p = Polynomial(1, a)
    value = p.evaluate((at,))
    assert type(value) is Fraction and value == d_evaluate(a, (at,))
    gradient = p.gradient_at((at,))
    assert type(gradient[0]) is Fraction and gradient == (d_evaluate(d_derivative(a, 0), (at,)),)


def test_inexact_divisions_are_refused_like_the_reference_says():
    rng = random.Random(2802)
    refused = 0
    for case in range(120):
        n = 1 + case % 4
        a, b = operand(rng, n), operand(rng, n)
        if not b or d_degree(b) < 1:
            continue
        extra = {random_monomial(rng, n, 5): F(1)}
        dividend = d_add(d_mul(a, b), extra)
        # b divides a*b + x^m exactly only if it divides x^m: b = c*x^e, e <= m
        divides = len(b) == 1 and all(x <= y for x, y in zip(next(iter(b)), next(iter(extra))))
        got = Polynomial(n, dividend)
        if divides:
            assert got.exact_div(Polynomial(n, b)) * Polynomial(n, b) == got
        else:
            refused += 1
            with pytest.raises(ValueError, match="division is not exact"):
                got.exact_div(Polynomial(n, b))
    assert refused >= 50


def test_monomial_multiple_shifts_by_signed_offsets_the_support_allows():
    rng = random.Random(2803)
    for case in range(150):
        n = case % 5
        a = operand(rng, n, 5)
        floor = tuple(min((m[i] for m in a), default=0) for i in range(n))
        # from -floor (divide out the largest monomial factor) to +3 per variable
        offset = tuple(rng.randint(-f, 3) for f in floor)
        want = {tuple(x + y for x, y in zip(m, offset)): c for m, c in a.items()}
        assert_matches(_monomial_multiple(Polynomial(n, a), offset), want, n)
    z = Polynomial.monomial(3, (2, 0, 5), F(-3, 7))
    assert _monomial_multiple(z, (-2, 1, -5)) == Polynomial.monomial(3, (0, 1, 0), F(-3, 7))


def test_resultants_and_discriminants_match_the_sylvester_determinant():
    rng = random.Random(2804)
    for case in range(80):
        n = 1 + case % 4
        j = rng.randint(1, n)
        f, g = operand(rng, n, 3, 4), operand(rng, n, 3, 4)
        if d_degree(f) < 1 or d_degree(g) < 1:
            continue
        pf, pg = Polynomial(n, f), Polynomial(n, g)
        df, dg = len(d_coefficients_in(f, j - 1)) - 1, len(d_coefficients_in(g, j - 1)) - 1
        if df >= 1 and dg >= 1:
            assert_matches(resultant(pf, pg, j), d_resultant(f, g, j - 1, n), n)
        lead = d_coefficients_in(f, j - 1)[-1] if f else {}
        if df >= 2 and set(lead) == {(0,) * n}:
            want = d_scale(d_resultant(f, d_derivative(f, j - 1), j - 1, n),
                           F((-1) ** (df * (df - 1) // 2)) / lead[(0,) * n])
            assert_matches(discriminant(pf, j), want, n)


# -- the quadratic-stage helpers against the Polynomial-level chains they replace ---------


def chained_quadratic_parts(f):
    """(e1, D) by coefficients_in, drop_variable, and e1*e1 - 4*e2 for e_i scaled by 1/a when a
    is a constant, or (None, b*b - 4*a*c) when it is not; None off the shape."""
    rows = f.coefficients_in(f.n)
    if len(rows) != 3 or rows[2].constant_term() == 0 or any(
            r.constant_term() for r in rows[:2]):
        return None
    c, b, a = (r.drop_variable(f.n) for r in rows)
    if a.total_degree() > 0:
        return None, b * b - 4 * a * c
    e2, e1 = (r * (1 / a.constant_term()) for r in (c, b))
    return e1, e1 * e1 - 4 * e2


def test_quadratic_parts_match_the_polynomial_chain():
    rng = random.Random(2901)
    decided = unit_lc = 0
    for case in range(200):
        n = 1 + case % 4
        zn = Polynomial.variable(n, n)
        # b(0) = c(0) = 0, as the shape asks
        b, c = (p - p.constant_term() for p in (
            Polynomial(n - 1, operand(rng, n - 1)).insert_variable(n) for _ in range(2)))
        # a negative, a rational or a large-denominator leading coefficient, so f's
        # own denominator is rarely 1; every other f has a shape that gives None
        a = rng.choice((-1, -3, F(2, 7), F(-5, 3), coefficient(rng)))
        f = a * zn * zn + b * zn + c
        shape, z1 = case % 8, Polynomial.variable(n, 1)
        if shape == 1:  # a leading coefficient that is not constant, a(0) != 0 (n = 2)
            f = f + z1 * zn * zn * coefficient(rng)
        elif shape == 3:  # z_n-degree at most 1, or a(0) = 0
            f = (b + 1) * zn + c if case % 16 == 3 else z1 * zn * zn + b * zn + c
        elif shape == 5:  # z_n-degree 3, b(0) != 0 or c(0) != 0
            f = (f + zn * zn * zn * coefficient(rng), f + zn, f + 1)[case // 8 % 3]
        elif shape == 7:  # z_n-degree 0, or the zero polynomial
            f = c if case % 16 == 7 else Polynomial.zero(n)
        got, want = _quadratic_parts(f), chained_quadratic_parts(f)
        if shape % 4 == 3 or shape == 5:
            assert got is None and want is None
            continue
        decided += 1
        unit_lc += got[0] is None
        assert [repr(p) for p in got] == [repr(p) for p in want]
    assert (decided, unit_lc) == (125, 25)


def test_quadratic_parts_cancel_the_denominator_of_f():
    # f = (z2^2 - 3/2*z1*z2 + z1^2/4) * 2/3: a = 2/3, b = -z1, c = z1^2/6
    z1, z2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    f = (z2 * z2 - F(3, 2) * z1 * z2 + F(1, 4) * z1 * z1) * F(2, 3)
    x = Polynomial.variable(1, 1)
    want = (F(-3, 2) * x, F(5, 4) * x * x)  # D = 9/4*x^2 - x^2
    assert _quadratic_parts(f) == want
    assert _quadratic_parts(f * F(-1, 5)) == want
    # a = 2/3*(1 + z1) is not constant: D = b*b - 4*a*c keeps f's denominator
    g = f * (1 + z1)
    assert _quadratic_parts(g) == (None, F(5, 9) * x * x * (1 + x) ** 2)


def test_axis_order_and_linear_part_match_their_tuple_readings():
    rng = random.Random(2902)
    linear = 0
    for case in range(200):
        n = 1 + case % 4
        p = Polynomial(n, operand(rng, n, 3, 6))
        if case % 3 == 0:  # a pure power of every variable, or the constant term
            for i in range(n):
                e = rng.randint(0, 4)
                p = p + Polynomial.monomial(n, tuple(e * (k == i) for k in range(n)),
                                            coefficient(rng))
        for j in range(1, n + 1):
            want = min((e[j - 1] for e in p.support() if sum(e) == e[j - 1]), default=math.inf)
            assert _axis_order(p, j) == want
        units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        want = tuple(p.coefficient(u) for u in units)
        # None, not n zeros, when p has no degree-1 term
        assert _linear_part(p) == (want if any(want) else None)
        linear += any(want)
    assert 0 < linear < 200


def test_linear_factors_match_the_polynomial_arithmetic():
    # t + (e1 -+ r)/2 built with public arithmetic and cut at N; e1 keeps terms above N
    rng = random.Random(3001)
    for case in range(200):
        n = 1 + case % 3
        N = rng.randint(1, 4)
        e1 = Polynomial(n, operand(rng, n, N + 3, 6))
        r = Polynomial(n, operand(rng, n, N, 5))
        if case % 4 == 0:  # e1 = r cancels in one factor, and e1 = -r in the other
            e1 = rng.choice((r, -r))
        t = Polynomial.variable(n + 1, n + 1)
        mid, step = (e1 * F(1, 2)).insert_variable(n + 1), (r * F(1, 2)).insert_variable(n + 1)
        want = ((t + mid - step).truncate(N), (t + mid + step).truncate(N))
        assert [repr(p) for p in _linear_factors(e1, r, N)] == [repr(p) for p in want]


# -- the Weierstrass layer against the Polynomial-level chains it replaced ----------------


def level_loop_prepare(f, j, N):
    """`weierstrass_prepare` as a loop over Polynomial levels: each level of w is a
    truncated product with u0's inverse, and each level of u an exact division by t^d."""
    n, d = f.n, regular_order(f, j).order
    t_d = Polynomial.monomial(n, (0,) * (j - 1) + (d,) + (0,) * (n - j))
    level_terms = [{} for _ in range(N + 1)]
    for mono, c in f.terms():
        if sum(mono) - mono[j - 1] <= N:
            level_terms[sum(mono) - mono[j - 1]][mono] = c
    f_levels = [Polynomial(n, terms) for terms in level_terms]
    u0 = f_levels[0].exact_div(t_d)
    u0_inv = ts_inverse(TruncatedSeries(u0, d)).body
    u_levels, w_levels = {0: u0}, {}
    for level in range(1, N + 1):
        rest = f_levels[level]
        for a, u_a in u_levels.items():
            if level - a in w_levels:
                rest = rest - u_a * w_levels[level - a]
        if rest.is_zero():
            continue
        w_level = _truncated_product(rest, u0_inv, level + d - 1)
        u_level = (rest - u0 * w_level).exact_div(t_d)
        if not w_level.is_zero():
            w_levels[level] = w_level
        if not u_level.is_zero():
            u_levels[level] = u_level
    rows = sum(w_levels.values(), Polynomial.zero(n)).coefficients_in(j)
    rows += [Polynomial.zero(n)] * (d - len(rows))
    coefficients = [TruncatedSeries(rows[d - i].drop_variable(j), N) for i in range(1, d + 1)]
    t = Polynomial.variable(n, j)
    w = t ** d  # t^d + sum of e_i * t^(d-i)
    for i, e in enumerate(coefficients, start=1):
        w = w + e.body.insert_variable(j) * t ** (d - i)
    return WeierstrassData(
        degree=d,
        weierstrass_polynomial=w,
        unit=TruncatedSeries(sum(u_levels.values(), Polynomial.zero(n)), N),
        distinguished_var=j,
        truncation_order=N,
    )


def substitute_shear(f, j, coeffs):
    """`apply_shear` as a chain of substitutions z_i <- z_i + c_i * z_j, checks included."""
    n = f.n
    coeffs = tuple(F(c) for c in coeffs)
    if len(coeffs) != n:
        raise ValueError(f"expected {n} shear coefficients, got {len(coeffs)}")
    zj = Polynomial.variable(n, j)  # checks j
    if coeffs[j - 1] != 0:
        raise ValueError(f"shear coefficient {j}, on z{j} itself, must be 0, got {coeffs[j - 1]}")
    for i, c in enumerate(coeffs, start=1):
        if c != 0:
            f = f.substitute(i, Polynomial.variable(n, i) + c * zj)
    return f


def substitute_search(f, j):
    """`make_regular`'s shear search by substituting constants into the lowest form."""
    n = f.n
    form, m = f.lowest_homogeneous_form()
    rest = form.substitute(j, Polynomial.constant(n, 1))
    coeffs = [F(0)] * n
    for i in range(1, n + 1):
        if i != j:
            for c in range(m + 1):
                candidate = rest.substitute(i, Polynomial.constant(n, c))
                if not candidate.is_zero():
                    rest, coeffs[i - 1] = candidate, F(c)
                    break
    return tuple(coeffs), m


def shifted_germ(rng, n, j):
    """A seeded polynomial shifted to a point with denominators up to 11^2, its value taken
    off and, at random, its terms below degree 2 or 3 too, or its pure powers of z_j, so
    that `make_regular` must shear."""
    point = tuple(F(rng.randint(-12, 12), rng.choice((1, 2, 3, 7, 11, 49, 121)))
                  for _ in range(n))
    while True:
        f = Polynomial(n, operand(rng, n, 4 if n < 4 else 3, 6)).shift(point)
        low = rng.choice((1, 1, 2, 3))
        axis = rng.random() < 0.3
        terms = {m: c for m, c in f.terms()
                 if sum(m) >= low and not (axis and sum(m) == m[j - 1])}
        if terms:
            return Polynomial(n, terms)


def test_weierstrass_prepare_matches_the_polynomial_level_loop():
    # 240 germs in 2-4 variables; the orders run through d..16 over the germs, and the
    # two-variable germs of every eighth case go to order 32 as well
    rng = random.Random(3701)
    sheared = 0
    for case in range(240):
        n = 2 + case % 3
        j = rng.randint(1, n)
        f, report = make_regular(shifted_germ(rng, n, j), j)
        d = report.order
        sheared += report.applied_change is not None
        orders = [d + case % (17 - d)] + ([32] if n == 2 and case % 8 == 0 else [])
        for N in orders:
            got = weierstrass_prepare(f, j, N)
            assert got == level_loop_prepare(f, j, N), (case, N)
        # the kernel's own outputs: w in full, and u cut at the order
        w, u = _lift_levels(f, j, d, N)
        assert (w, u) == (got.weierstrass_polynomial, got.unit.body)
    assert sheared >= 30


def test_shears_match_the_substitution_chain():
    rng = random.Random(3702)
    searched = 0
    for case in range(120):
        n = 2 + case % 3
        for j in range(1, n + 1):
            f = shifted_germ(rng, n, j)
            coeffs = [rng.choice((0, -3, F(-2, 11), F(5, 121), 1)) for _ in range(n)]
            coeffs[j - 1] = 0
            assert apply_shear(f, j, coeffs) == substitute_shear(f, j, coeffs)
            g, report = make_regular(f, j)
            if report.applied_change is None:
                continue
            searched += 1
            change, m = substitute_search(f, j)
            assert (report.applied_change, report.order) == (change, m)
            assert g == substitute_shear(f, j, change)
    assert searched >= 50
    # the same errors, with the same messages
    f = shifted_germ(rng, 3, 2)
    for j, coeffs in ((2, (1, 0)), (2, (0, 0, 1, 0)), (2, (1, 3, 0)), (3, (0, 0, F(1, 2))),
                      (0, (0, 0, 0)), (4, (0, 0, 0)), (True, (0, 0, 0))):
        with pytest.raises(Exception) as want:
            substitute_shear(f, j, coeffs)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            apply_shear(f, j, coeffs)


# -- the degree cap --------------------------------------------------------------------


# operands, built at import: `nothing_computed` disarms `_raw` and `_canonical`, which
# build every result
Z1, Z2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
ONE_PLUS_Z1, Z1_Z2 = 1 + Z1, Z1 * Z2
HALF = Polynomial.monomial(2, (MAX_DEGREE // 2 + 1, 0))  # its square is past the cap
HALF_PLUS_Z2_SQUARED, HALF_Z2_PLUS_Z1 = HALF + Z2 * Z2, HALF * Z2 + Z1
HALF_Z2_PLUS_Z2_SQUARED = HALF * Z2 + Z2 * Z2


@pytest.fixture
def nothing_computed(monkeypatch):
    """Any product or canonical-form step from here on fails the test."""
    def refuse(*args):
        raise AssertionError("a kernel ran past the degree cap check")
    monkeypatch.setattr(algebra, "_mul_add", refuse)
    monkeypatch.setattr(algebra, "_raw", refuse)
    monkeypatch.setattr(algebra, "_canonical", refuse)


def past_the_cap(call):
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"above {MAX_DEGREE}, the largest a polynomial holds"):
        call()
    assert time.perf_counter() - started < 1.0


def test_results_exactly_at_the_degree_cap_are_built():
    top = Polynomial.monomial(2, (MAX_DEGREE, 0), 3)
    below = Polynomial.monomial(2, (MAX_DEGREE // 2, 0))
    assert Polynomial(2, {(MAX_DEGREE - 5, 5): 1}).total_degree() == MAX_DEGREE
    assert top.leading_term() == ((MAX_DEGREE, 0), 3)
    assert top.coefficient((MAX_DEGREE, 0)) == 3
    assert list((below * (below * Z2)).terms()) == [((MAX_DEGREE - 1, 1), 1)]
    assert top**1 == top
    # z2 <- z2 + 1 in z1^(cap-1)*z2: substitute splits by z2, whose degree is 1
    corner = Polynomial.monomial(2, (MAX_DEGREE - 1, 1))
    assert corner.substitute(2, Z2 + 1) == corner + Polynomial.monomial(2, (MAX_DEGREE - 1, 0))
    assert _monomial_multiple(below, (MAX_DEGREE - MAX_DEGREE // 2, 0)) == top * F(1, 3)
    assert _monomial_multiple(top, (-MAX_DEGREE, 0)) == Polynomial.constant(2, 3)
    assert (top + Z1).derivative(1) == Polynomial.monomial(
        2, (MAX_DEGREE - 1, 0), 3 * MAX_DEGREE) + 1
    # a key past the cap is above every stored key: no coefficient, no error
    assert top.coefficient((MAX_DEGREE + 1, 0)) == 0


# each call would hold a term of total degree past the cap
PAST_THE_CAP = {
    "constructor": lambda: Polynomial(2, {(MAX_DEGREE + 1, 0): 1}),
    "monomial": lambda: Polynomial.monomial(2, (MAX_DEGREE, 1)),
    "product": lambda: HALF * HALF,
    "truncated product": lambda: _truncated_product(HALF, HALF, MAX_DEGREE + 5),
    "power": lambda: ONE_PLUS_Z1 ** (MAX_DEGREE + 1),
    "monomial power": lambda: Z1_Z2 ** (MAX_DEGREE // 2 + 1),
    # b*b is past the cap for f = z2^2 + HALF*z2, so D is refused before it is formed
    "quadratic parts": lambda: _quadratic_parts(HALF_Z2_PLUS_Z2_SQUARED),
    "substitute": lambda: HALF.substitute(1, Z1_Z2),
    "monomial multiple": lambda: _monomial_multiple(HALF, (MAX_DEGREE // 2 + 1, 0)),
    # Res's degree bound 1 * deg f + 2 * deg g is past the cap for f = HALF + z2^2,
    # g = HALF*z2 + z1, so it is refused before any packing
    "resultant": lambda: resultant(HALF_PLUS_Z2_SQUARED, HALF_Z2_PLUS_Z1, 2),
    # 1 * deg f + 2 * deg df/dz2 for f = z2^2 + HALF*z2, whose z2-derivative is 2*z2 + HALF
    "discriminant": lambda: discriminant(HALF_Z2_PLUS_Z2_SQUARED, 2),
}


@pytest.mark.parametrize("call", PAST_THE_CAP.values(), ids=PAST_THE_CAP.keys())
def test_results_past_the_degree_cap_are_refused_before_any_product(call, nothing_computed):
    past_the_cap(call)


# -- the budget on the degree in one variable -------------------------------------------


# the dense kernels take a degree of at most MAX_VARIABLE_DEGREE in the variable they
# split by; operands are built at import, as above
AT_BUDGET = Polynomial.monomial(2, (MAX_VARIABLE_DEGREE, 0))
PAST_BUDGET = Polynomial.monomial(2, (MAX_VARIABLE_DEGREE + 1, 0))
AT_BUDGET_PLUS_Z2, PAST_BUDGET_PLUS_Z2 = AT_BUDGET + Z2, PAST_BUDGET + Z2
Z1_MINUS_Z2 = Z1 - Z2
TOP = Polynomial.monomial(2, (MAX_DEGREE, 0), 3)  # degree MAX_DEGREE in z1, under the cap

AT_THE_BUDGET = {
    "shift": (lambda: AT_BUDGET.shift((1, 0)), lambda: Polynomial(2, {
        (k, 0): math.comb(MAX_VARIABLE_DEGREE, k) for k in range(MAX_VARIABLE_DEGREE + 1)})),
    "substitute": (lambda: AT_BUDGET.substitute(1, Z2),
                   lambda: Polynomial.monomial(2, (0, MAX_VARIABLE_DEGREE))),
    "coefficients_in": (lambda: AT_BUDGET.coefficients_in(1), lambda: [
        Polynomial.zero(2)] * MAX_VARIABLE_DEGREE + [Polynomial.constant(2, 1)]),
    # Res(f, z1 - z2) = f(z2) for f of even degree in z1
    "resultant": (lambda: resultant(AT_BUDGET_PLUS_Z2, Z1_MINUS_Z2, 1),
                  lambda: Polynomial.monomial(2, (0, MAX_VARIABLE_DEGREE)) + Z2),
    "evaluate": (lambda: AT_BUDGET.evaluate((F(1, 3), 5)), lambda: F(1, 3**MAX_VARIABLE_DEGREE)),
    # evaluate skips a zero coordinate, as shift does, so z1 = 0 splits no rows
    "evaluate past the budget at zero": (lambda: (PAST_BUDGET + 3).evaluate((0, 5)), lambda: 3),
}

PAST_THE_BUDGET = {
    "shift": lambda: PAST_BUDGET.shift((1, 0)),
    "substitute": lambda: PAST_BUDGET.substitute(1, Z2),
    # z1^MAX_DEGREE is under the total-degree cap, but one dense row per exponent of z1
    # once got the process killed for memory
    "substitute at the degree cap": lambda: TOP.substitute(1, Z2),
    "coefficients_in": lambda: PAST_BUDGET.coefficients_in(1),
    "resultant": lambda: resultant(PAST_BUDGET_PLUS_Z2, Z1_MINUS_Z2, 1),
    "evaluate": lambda: PAST_BUDGET.evaluate((F(1, 3), 0)),
    "evaluate at the degree cap": lambda: TOP.evaluate((F(1, 3), 0)),
}


@pytest.mark.parametrize("call, want", AT_THE_BUDGET.values(), ids=AT_THE_BUDGET.keys())
def test_degrees_at_the_one_variable_budget_are_computed(call, want):
    started = time.perf_counter()
    got = call()
    assert time.perf_counter() - started < 1.0
    assert got == want()


@pytest.mark.parametrize("call", PAST_THE_BUDGET.values(), ids=PAST_THE_BUDGET.keys())
def test_degrees_past_the_one_variable_budget_are_refused_before_any_row(call, nothing_computed):
    started = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^degree \d+ in z1 is above {MAX_VARIABLE_DEGREE}, "):
        call()
    assert time.perf_counter() - started < 1.0


def test_the_quadratic_stage_reads_the_degree_before_it_splits():
    # z2^(budget+1) + z1^2 is no quadratic in z2: the stage passes it on, and the
    # budget is never reached
    assert _quadratic_parts(Polynomial.monomial(2, (0, MAX_VARIABLE_DEGREE + 1)) + Z1 * Z1) is None
