"""Germ classification: square tests, quadratic split, polygons, scanning."""

import math
import random
import re
import time
from fractions import Fraction

import pytest

from germkit.algebra import Polynomial
from germkit import germs
from germkit.errors import (
    DimensionMismatchError,
    DistinguishedVarDividesError,
    NotRegularError,
    ZeroPolynomialError,
)
from germkit.germs import (
    BinomialCoprimeEdge,
    DistinguishedVarDivides,
    EdgePolynomialSplits,
    GermQuery,
    GermStatus,
    IsolatedCriticalPoint,
    LowestFormNotASquare,
    MonomialUnitSquare,
    OddVariableOrder,
    PolynomialSquare,
    analyze_germ,
    is_local_square,
    newton_polygon,
    polygon_verdict,
    quadratic_germ_test,
    scan_stability,
)
from germkit.parsing import parse_poly
from germkit.series import MAX_ORDER, TruncatedSeries, ts_inverse, ts_sqrt
from germkit.elimination import resultant
from germkit.weierstrass import apply_shear, make_regular, weierstrass_prepare
from helpers import random_fraction, random_monomial, random_point, random_poly

F = Fraction

COUNTEREXAMPLE = Polynomial(3, {(0, 0, 2): 1, (1, 2, 0): -1})  # z3^2 - z1*z2^2
CUSP = Polynomial(2, {(0, 2): 1, (3, 0): -1})  # z2^2 - z1^3
ONE_PLUS_Z1 = Polynomial(1, {(0,): 1, (1,): 1})
MONOMIAL_TIMES_UNIT = Polynomial(2, {(2, 0): 1, (2, 1): 1})  # z1^2*(1 + z2)


# -- is_local_square --------------------------------------------------------------


def test_square_test_odd_variable_order():
    d = Polynomial(2, {(1, 2): 1})  # z1*z2^2
    cert = is_local_square(d, 8)
    assert cert.kind == "OddVariableOrder"
    assert cert.variable == 1 and cert.order == 1


def test_square_test_monomial_unit_split_with_rational_root():
    d = Polynomial(2, {(0, 2): 4, (1, 2): 4})  # 4(1+z1)*z2^2
    cert = is_local_square(d, 8)
    assert isinstance(cert, MonomialUnitSquare) and not cert.symbolic
    # root = 2*z2*(1 + z1/2 - z1^2/8 + ...)
    expected_head = Polynomial(2, {(0, 1): 2, (1, 1): 1, (2, 1): F(-1, 4)})
    assert cert.root.body.truncate(3) == expected_head
    # certificate re-verification: root^2 = D mod N
    assert cert.root * cert.root == TruncatedSeries(d, 8)


def test_square_test_squarefree_lowest_form():
    d = Polynomial(2, {(2, 0): 1, (0, 2): 1})  # z1^2 + z2^2
    cert = is_local_square(d, 8)
    assert cert.kind == "LowestFormNotASquare"
    assert cert.degree == 2


def test_square_test_certifies_zero_and_constant_times_squares():
    # 0 = 0^2 with lc = root = 0; and D = lc * R^2 for R = a line in two or more
    # variables plus higher terms: D(0) = 0 and no variable order is positive,
    # so only the square lowest form and the exact root decide it
    assert is_local_square(Polynomial.zero(2), 8) == PolynomialSquare(
        lc=0, root=Polynomial.zero(2))
    rng = random.Random(3201)
    seen = {True: 0, False: 0}
    for _ in range(60):
        n = rng.randint(2, 4)
        r = sum((Polynomial.variable(n, k) * _nonzero_fraction(rng) for k in range(2, n + 1)),
                Polynomial.variable(n, 1))
        r = _monic(r + Polynomial.monomial(n, random_monomial(rng, n, 3), 1)
                   * Polynomial.variable(n, rng.randint(1, n)) * Polynomial.variable(n, 1))
        lc = rng.choice((1, F(9, 4), _nonzero_fraction(rng)))
        cert = is_local_square(r * r * lc, 8)
        assert cert == PolynomialSquare(lc=lc, root=r), (r, lc)
        seen[cert.symbolic] += 1
    assert min(seen.values()) >= 15


def test_square_test_symbolic_when_constant_is_not_a_rational_square():
    d = Polynomial(2, {(0, 2): 2, (1, 2): 2})  # 2(1+z1)*z2^2: square over C only
    cert = is_local_square(d, 8)
    assert isinstance(cert, MonomialUnitSquare)
    assert cert.symbolic and cert.root is None


def test_square_certificate_reads_the_unit_constant_before_any_series(monkeypatch):
    # D = x^(2*half) * U: when U(0) is not a rational square the certificate is
    # symbolic and no series is built; when it is, root and unit_root are the
    # series that sqrt(U) at order N gives, as before the shortcut
    def refuse(*args):
        raise AssertionError("a series was built for a symbolic certificate")

    rng = random.Random(2903)
    seen = {True: 0, False: 0}
    for case in range(60):
        n = 1 + case % 3
        half = tuple(rng.randint(0, 2) for _ in range(n))
        u0 = rng.choice((1, 4, F(9, 25), 2, -1, F(-4, 9), F(5, 7)))
        U = Polynomial.constant(n, u0) + _vanishing(rng, n, 1, 4, 4)
        D = Polynomial.monomial(n, tuple(2 * h for h in half)) * U
        N = rng.choice((1, 4, 8))
        unit_root = ts_sqrt(TruncatedSeries(U, N))
        if unit_root is None:
            want = MonomialUnitSquare(root=None, half_exponents=half)
        else:
            root = TruncatedSeries(Polynomial.monomial(n, half) * unit_root.body, N)
            want = MonomialUnitSquare(root=root, half_exponents=half, unit_root=unit_root)
        with monkeypatch.context() as m:
            if unit_root is None:
                m.setattr(germs, "ts_sqrt", refuse)
                m.setattr(germs, "TruncatedSeries", refuse)
            got = is_local_square(D, N)
        assert got == want and repr(got) == repr(want)
        seen[got.symbolic] += 1
    assert min(seen.values()) >= 15


def test_square_test_odd_lowest_degree():
    d = Polynomial(2, {(1, 1): 1, (0, 3): 1})  # order 2 but z1-order 1
    cert = is_local_square(d, 8)
    assert cert is not None and not isinstance(cert, MonomialUnitSquare)


def test_square_test_decides_forms_in_three_variables():
    d = Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    cert = is_local_square(d, 8)
    assert cert.kind == "LowestFormNotASquare"
    assert cert.form == d and cert.degree == 2
    # -3*(z1 + z2 - z3)^2 + z1^5: a square lowest form does not decide
    r = Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1})
    assert is_local_square(r * r * -3 + Polynomial(3, {(5, 0, 0): 1}), 8) is None


def test_square_test_decides_a_lowest_form_above_the_order():
    # z1^4*z2^4*(z1^2 + z2^2): even variable orders, no monomial-unit split,
    # and a non-square lowest form of degree 10; D is exact, so N, the
    # precision of a root, does not matter
    d = Polynomial(2, {(6, 4): 1, (4, 6): 1})
    for N in (2, 8, 10):
        assert is_local_square(d, N) == LowestFormNotASquare(form=d, degree=10)


def _random_form(rng, n, degree):
    """A nonzero homogeneous form of the given degree in n variables."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = random_monomial(rng, n, degree)
            if sum(mono) == degree:
                terms[mono] = random_fraction(rng, -3, 3, 3)
        form = Polynomial(n, terms)
        if not form.is_zero():
            return form


def _nonzero_fraction(rng):
    return random_fraction(rng, 1, 9, 9) * rng.choice((1, -1))


def test_square_test_on_forms_of_known_factorization():
    # truth by construction: c * prod l_i^(m_i) with pairwise non-proportional
    # linear forms l_i is a square over C exactly when every m_i is even, and
    # c * r^2 always is
    rng = random.Random(707)
    seen = {True: 0, False: 0}
    for _ in range(200):
        n = rng.randint(2, 4)
        if rng.random() < 0.3:
            r = _random_form(rng, n, rng.randint(1, 3))
            d, square = r * r * _nonzero_fraction(rng), True
        else:
            count, lines = rng.randint(1, 3), []
            while len(lines) < count:  # lines z1 + ... are proportional only if equal
                line = Polynomial.variable(n, 1)
                for k in range(2, n + 1):
                    line = line + Polynomial.variable(n, k) * _nonzero_fraction(rng)
                if line not in lines:
                    lines.append(line)
            multiplicities = [rng.randint(1, 3) for _ in lines]
            d = Polynomial.constant(n, _nonzero_fraction(rng))
            for line, m in zip(lines, multiplicities):
                d = d * (line * _nonzero_fraction(rng)) ** m
            square = all(m % 2 == 0 for m in multiplicities)
        # a form is its own lowest form, so the test always decides
        cert = is_local_square(d, d.total_degree())
        assert cert.verdict == ("SingularReducible" if square else "SingularIrreducible"), d
        seen[square] += 1
    assert min(seen.values()) >= 30


# -- _exact_root ----------------------------------------------------------------------


def _monic(p):
    """p divided by its graded-lex leading coefficient."""
    return p * (1 / p.leading_term()[1])


def test_exact_root_recovers_seeded_powers():
    # F = a * R^k, k >= 2, for R in 1-4 variables, not only forms: the root
    # with leading coefficient 1 is R / lc(R), and lc(F) * root^k is F again
    rng = random.Random(1301)
    for _ in range(150):
        n, k = rng.randint(1, 4), rng.randint(2, 4)
        r = _monic(random_poly(rng, n, 3, 4, nonzero=True))
        f = r ** k * _nonzero_fraction(rng)
        root = germs._exact_root(f, k)
        assert root == r, (f, k)
        assert root ** k * f.leading_term()[1] == f


def test_exact_root_rejects_one_perturbed_term():
    # if R^k + b*x^m = a*S^k over C with k >= 2 and b != 0, then, for s^k = a,
    # the product of s*S - zeta*R over the k-th roots of unity zeta is the one
    # term b*x^m, so each factor is one term, and (zeta - 1)*R, the difference
    # of the factors for 1 and zeta, has at most two: R of three terms is no root
    rng = random.Random(1302)
    checked = 0
    for _ in range(150):
        n, k = rng.randint(1, 4), rng.randint(2, 4)
        r = random_poly(rng, n, 3, 5, nonzero=True)
        if r.term_count() < 3:
            continue
        mono = rng.choice([m for m, _ in (r ** k).terms()] + [random_monomial(rng, n, 3 * k)])
        f = r ** k + Polynomial.monomial(n, mono, _nonzero_fraction(rng))
        assert germs._exact_root(f, k) is None, (f, k)
        checked += 1
    assert checked >= 50


def test_exact_root_decides_edge_polynomials_by_their_closed_form():
    # E of degree g with E(0) != 0 has a single complex root exactly when
    # E = lc * (x - c)^g with c = -E_(g-1) / (g * lc), the only candidate
    rng = random.Random(1303)
    x = Polynomial.variable(1, 1)
    seen = {True: 0, False: 0}
    for _ in range(300):
        g = rng.randint(2, 6)
        c = _nonzero_fraction(rng)
        edge = (x - c) ** g * _nonzero_fraction(rng)
        if rng.random() < 0.6:
            k = rng.randint(0, g - 1)
            edge = edge + Polynomial.monomial(1, (k,), random_fraction(rng, -2, 2, 2))
        if edge.constant_term() == 0:
            continue
        lc = edge.coefficient((g,))
        closed = lc * (x + edge.coefficient((g - 1,)) / (g * lc)) ** g
        power = germs._exact_root(edge, g) is not None
        assert power == (edge == closed), edge
        seen[power] += 1
    assert min(seen.values()) >= 50


# -- quadratic_germ_test ------------------------------------------------------------


def test_quadratic_counterexample_at_origin_is_irreducible():
    status = quadratic_germ_test(COUNTEREXAMPLE, 8)
    assert status.kind == "SingularIrreducible"
    assert status.certificate.kind == "OddVariableOrder"
    assert status.certificate.variable == 1 and status.certificate.order == 1


def test_quadratic_shifted_counterexample_splits():
    shifted = COUNTEREXAMPLE.shift((1, 0, 0))
    status = quadratic_germ_test(shifted, 8)
    assert status.kind == "SingularReducible"
    a, b = status.factors
    # factors z3 -/+ z2*(1 + z1/2 - z1^2/8 + ...)
    for fac in (a, b):
        assert fac.body.coefficient((0, 0, 1)) == 1
        assert fac.body.constant_term() == 0  # both factors are non-units
    assert a.body.coefficient((0, 1, 0)) == -b.body.coefficient((0, 1, 0))
    # multiply-back: a*b = w mod N, and w is the shifted germ itself (a = 1)
    assert a * b == TruncatedSeries(shifted, 8)


def test_quadratic_factors_multiply_back_through_max_order():
    # at (1, 0, 0): D = z2^2 * ((1 + z2^4)^2 + 8*(1 + z1)*(1 + z2)), U(0) = 9
    f = parse_poly("3*(z3^2 + (z2 + z2^5)*z3 - 2*z1*z2^2*(1 + z2))")
    monic = f.shift((1, 0, 0)) * F(1, 3)
    for N in range(2, MAX_ORDER + 1):
        status = analyze_germ(GermQuery(f, (1, 0, 0), N))
        assert status.applied_change is None
        assert status.certificate.kind == "MonomialUnitSquare"
        lo, hi = status.factors
        assert lo * hi == TruncatedSeries(monic, N)
        assert lo.body.constant_term() == hi.body.constant_term() == 0


def test_quadratic_double_root():
    # z2^2: e1 = e2 = 0, so D = 0 and z2^2 is the square of z2
    # (analyze_germ certifies this germ by DistinguishedVarDivides first)
    w = Polynomial(2, {(0, 2): 1})
    status = quadratic_germ_test(w, 8)
    assert status.certificate == PolynomialSquare(lc=0, root=Polynomial.zero(1))
    t = TruncatedSeries(Polynomial.variable(2, 2), 8)
    assert status.factors == (t, t)


def test_quadratic_discriminant_is_exact():
    # (z3 + z1^4 + z2^5)^2 is a square: D = 0 exactly, at every order.  The
    # discriminant of an order-8 preparation would keep 8*z1^4*z2^5 + 4*z2^10
    r = Polynomial(3, {(0, 0, 1): 1, (4, 0, 0): 1, (0, 5, 0): 1})
    for N in (2, 8, MAX_ORDER):
        status = quadratic_germ_test(r * r, N)
        assert status.kind == "SingularReducible"
        assert status.certificate == PolynomialSquare(lc=0, root=Polynomial.zero(2))
        assert status.factors == (TruncatedSeries(r, N),) * 2


def test_analyze_discriminant_above_the_order_is_decided():
    # (z2 + z1^2)^2 - z1^9: D = 4*z1^9 has no term through degree 8
    f = Polynomial(2, {(0, 2): 1, (2, 1): 2, (4, 0): 1, (9, 0): -1})
    for N in (2, 8, 12):
        status = analyze_germ(GermQuery(f, (0, 0), N))
        assert status.kind == "SingularIrreducible"
        assert status.certificate == OddVariableOrder(variable=1, order=9)


def test_quadratic_symbolic_split_omits_factors():
    # shifted to (1/2, 0, 0): discriminant constant 4*(1/2) has no rational root
    shifted = COUNTEREXAMPLE.shift((F(1, 2), 0, 0))
    status = quadratic_germ_test(shifted, 8)
    assert status.kind == "SingularReducible"
    assert status.factors is None
    assert status.certificate.kind == "MonomialUnitSquare"
    assert status.certificate.symbolic


def test_quadratic_requires_degree_two():
    for poly in (
        "z2 + z1^2",  # degree 1 in z2
        "z2^2 + z2^3 - z1^3",  # degree 3 in z2
        "z1*z2^2 - z1^3",  # the coefficient a of z2^2 has a(0) = 0
        "z2^2 + z2 - z1^3",  # b(0) != 0: regular of order 1, not 2
        "z2^2 + 1",  # c(0) != 0: a unit
    ):
        assert quadratic_germ_test(parse_poly(poly), 8) is None


def test_quadratic_with_a_unit_leading_coefficient():
    # a = 1 + z1 is a unit: D = b*b - 4*a*c = 4*(1 + z1)*z1*z2^2 has z1-order 1
    status = quadratic_germ_test(parse_poly("(1 + z1)*z3^2 - z1*z2^2"), 8)
    assert status.certificate == OddVariableOrder(variable=1, order=1)
    assert status.kind == "SingularIrreducible"
    # a = 1 - z1: D = (1 - z1)^2 * z1^2 is a square; its factors are not attached
    status = quadratic_germ_test(parse_poly("(1 - z1)*(z2^2 - z1^2)"), 8)
    assert status.kind == "SingularReducible" and status.factors is None


def test_quadratic_unit_lc_fuzz_never_errs():
    # u * (t + A) * (t + B) is reducible, and u * ((t + e)^2 - z1*s^2*w) with
    # s(0) = 0 != w(0) is irreducible unless s = 0 (z1 has odd order in z1*s^2*w);
    # u is a unit free of t = z_n, constant or not, and A(0) = B(0) = e(0) = 0
    rng = random.Random(3202)
    decided = 0
    for case in range(200):
        n = rng.randint(2, 4)
        m, t = n - 1, Polynomial.variable(n, n)
        u = (Polynomial.constant(m, _nonzero_fraction(rng))
             + (_vanishing(rng, m, 1, 2, 3) if case % 4 else 0)).insert_variable(n)
        if case % 2:
            A, B = (_vanishing(rng, m, 1, 3, 3).insert_variable(n) for _ in range(2))
            f, truth = u * (t + A) * (t + B), "SingularReducible"
        else:
            e, s = (_vanishing(rng, m, 1, 3, 3).insert_variable(n) for _ in range(2))
            w = (Polynomial.constant(m, _nonzero_fraction(rng))
                 + _vanishing(rng, m, 1, 2, 2)).insert_variable(n)
            f = u * ((t + e) ** 2 - Polynomial.variable(n, 1) * s * s * w)
            truth = "SingularReducible" if s.is_zero() else "SingularIrreducible"
        status = analyze_germ(GermQuery(f, (0,) * n, 8))
        assert status.kind in (truth, "Undetermined"), (f, status)
        decided += status.kind == truth
        if status.factors is not None and not isinstance(
                status.certificate, DistinguishedVarDivides):
            assert u.total_degree() == 0  # factors only for a constant a
            lo, hi = status.factors
            assert lo * hi == TruncatedSeries(f * (1 / u.constant_term()), 8), f
    assert decided == 200


# -- Newton polygon ------------------------------------------------------------------


def test_polygon_of_cusp():
    (edge,) = newton_polygon(CUSP)
    assert edge.start == (0, 2) and edge.end == (3, 0)
    assert edge.lattice_gcd == 1


def test_polygon_of_even_binomial():
    w = Polynomial(2, {(0, 2): 1, (2, 0): -1})  # z2^2 - z1^2
    (edge,) = newton_polygon(w)
    assert edge.start == (0, 2) and edge.end == (2, 0)
    assert edge.lattice_gcd == 2


def test_polygon_with_two_edges():
    # (z2^2 - z1^3)(z2 - z1) expanded
    w = Polynomial(2, {(0, 3): 1, (1, 2): -1, (3, 1): -1, (4, 0): 1})
    edges = newton_polygon(w)
    assert [(e.start, e.end) for e in edges] == [((0, 3), (1, 2)), ((1, 2), (4, 0))]


def test_polygon_requires_bivariate_and_nonzero_tail():
    with pytest.raises(DimensionMismatchError):
        newton_polygon(COUNTEREXAMPLE)
    w = Polynomial(2, {(0, 2): 1, (1, 1): 1})  # z2^2 + z1*z2: z2 divides it
    with pytest.raises(DistinguishedVarDividesError):
        newton_polygon(w)
    with pytest.raises(NotRegularError):
        newton_polygon(Polynomial(2, {(1, 1): 1, (3, 0): 1}))  # z1*z2 + z1^3


def test_polygon_edges_are_those_of_the_weierstrass_polynomial():
    # f = u * w with a unit u, u(0) = 3: the hull and the edge polynomials
    # read from f equal those read from w, whose (0, d) coefficient is 1
    w = Polynomial(2, {(0, 3): 1, (1, 2): -1, (3, 1): -1, (4, 0): 1})
    u = Polynomial(2, {(0, 0): 3, (1, 0): 1, (0, 1): -2, (2, 1): 5})
    from_f, from_w = newton_polygon(u * w), newton_polygon(w)
    assert from_f == from_w and from_w[0].start == (0, 3)


def test_polygon_verdicts():
    cusp_status = polygon_verdict(newton_polygon(CUSP))
    assert cusp_status.kind == "SingularIrreducible"
    assert cusp_status.certificate.kind == "BinomialCoprimeEdge"
    assert (cusp_status.certificate.d, cusp_status.certificate.m) == (2, 3)

    even = Polynomial(2, {(0, 2): 1, (2, 0): -1})  # a binomial edge of lattice length 2
    even_status = polygon_verdict(newton_polygon(even))
    assert even_status.kind == "SingularReducible"
    assert even_status.certificate == EdgePolynomialSplits(
        edge_polynomial=Polynomial(1, {(0,): 1, (2,): -1}))

    two_edge = Polynomial(2, {(0, 3): 1, (1, 2): -1, (3, 1): -1, (4, 0): 1})
    te_status = polygon_verdict(newton_polygon(two_edge))
    assert te_status.kind == "SingularReducible"
    assert te_status.certificate.kind == "MultiEdgePolygon"
    assert te_status.certificate.edge_count == 2
    assert te_status.factors is None  # polygon verdicts carry no explicit factors

    splits = Polynomial(2, {(0, 2): 1, (1, 1): -3, (2, 0): 2})  # (z2-z1)(z2-2z1)
    sp_status = polygon_verdict(newton_polygon(splits))
    assert sp_status.kind == "SingularReducible"
    assert sp_status.certificate.kind == "EdgePolynomialSplits"
    # edge polynomial 1 - 3*z1 + 2*z1^2 = (1 - z1)(1 - 2*z1)
    assert sp_status.certificate.edge_polynomial == Polynomial(1, {(0,): 1, (1,): -3, (2,): 2})

    power = Polynomial(2, {(0, 2): 1, (1, 1): -2, (2, 0): 1})  # (z2 - z1)^2
    pw_status = polygon_verdict(newton_polygon(power))
    assert pw_status.kind == "Undetermined"


def test_binomial_edges_of_lattice_length_above_one_split():
    # c0 + c_g*x^g with g > 1 has g distinct roots, so it is never a g-th power
    rng = random.Random(3203)
    for _ in range(60):
        g, p, q = rng.randint(2, 5), rng.randint(1, 4), rng.randint(1, 4)
        while math.gcd(p, q) != 1:
            q += 1
        c0, cg = _nonzero_fraction(rng), _nonzero_fraction(rng)
        f = Polynomial(2, {(0, g * p): c0, (g * q, 0): cg})  # d = g*p, m = g*q
        status = polygon_verdict(newton_polygon(f))
        assert status.certificate == EdgePolynomialSplits(
            edge_polynomial=Polynomial(1, {(0,): 1, (g,): cg / c0})), f


def test_polygon_verdict_on_edge_polynomials_of_known_roots():
    # E = lc * prod (x - c_i)^(m_i) with distinct nonzero c_i is, divided by
    # E(0) (the coefficient at (0, g)), the edge polynomial of the germ
    # sum_k E_k z1^k z2^(g-k); one distinct root leaves the germ
    # Undetermined, several split it
    rng = random.Random(808)
    x = Polynomial.variable(1, 1)
    seen = {1: 0, 2: 0}
    for _ in range(120):
        count, roots = rng.randint(1, 3), set()
        while len(roots) < count:
            roots.add(random_fraction(rng, -4, 4, 3) or Fraction(1))
        edge = Polynomial.constant(1, _nonzero_fraction(rng))
        for root in roots:
            edge = edge * (x - root) ** rng.randint(1, 3)
        g = edge.degree_in(1)
        if g == 1:
            continue  # an edge of lattice length 1 is BinomialCoprimeEdge
        f = Polynomial(2, {(m[0], g - m[0]): c for m, c in edge.terms()})
        status = polygon_verdict(newton_polygon(f))
        if len(roots) == 1:
            assert status.kind == "Undetermined", edge
        else:
            assert status.kind == "SingularReducible", edge
            assert status.certificate.edge_polynomial * edge.constant_term() == edge
        seen[min(len(roots), 2)] += 1
    assert min(seen.values()) >= 20


# -- GermStatus -----------------------------------------------------------------------


@pytest.mark.parametrize("poly, point, certificate, kind", [
    ("z1 + 1", (0,), "NonzeroValue", "Unit"),
    ("z1", (0,), "SmoothPoint", "SmoothIrreducible"),
    ("z3^2 - z1*z2^2", (0, 0, 0), "OddVariableOrder", "SingularIrreducible"),
    ("z3^2 - z1*z2^2", (1, 0, 0), "MonomialUnitSquare", "SingularReducible"),
    ("z3^2 - z1^2 - z2^2", (0, 0, 0), "LowestFormNotASquare", "SingularIrreducible"),
    ("z2*(z2 - z1^2)", (0, 0), "DistinguishedVarDivides", "SingularReducible"),
    ("(z2 - z1)*(z2^2 - z1^3)", (0, 0), "MultiEdgePolygon", "SingularReducible"),
    ("z2^3 - z1^2", (0, 0), "BinomialCoprimeEdge", "SingularIrreducible"),
    ("z2^4 - z1^2", (0, 0), "EdgePolynomialSplits", "SingularReducible"),
    ("(z2 - z1)*(z2 - 2*z1)*(z2 - 3*z1)", (0, 0), "EdgePolynomialSplits", "SingularReducible"),
])
def test_the_verdict_is_read_from_the_certificate(poly, point, certificate, kind):
    cert = analyze_germ(GermQuery(parse_poly(poly), point, 8)).certificate
    assert cert.kind == certificate
    assert type(cert).__name__ == cert.kind
    assert germs.GermStatus(cert).kind == cert.verdict == kind
    # class attributes, so the JSON certificate {"kind", **fields} names neither twice
    assert not {"kind", "verdict"} & set(cert._fields)


def test_a_certificate_without_a_verdict_is_not_declared():
    with pytest.raises(TypeError):
        class NoVerdict(germs._Certificate):
            pass


def test_a_status_without_certificate_is_undetermined():
    assert germs.GermStatus(reason="no test applies").kind == "Undetermined"
    assert germs.GermStatus().kind == "Undetermined"


# -- analyze_germ ---------------------------------------------------------------------


def test_analyze_unit_iff_nonvanishing():
    status = analyze_germ(GermQuery(COUNTEREXAMPLE, (2, 1, 1), 8))
    assert status.kind == "Unit"
    assert status.certificate.value == -1


def test_analyze_smooth_point():
    status = analyze_germ(GermQuery(COUNTEREXAMPLE, (1, 1, 1), 8))
    assert status.kind == "SmoothIrreducible"
    assert status.certificate.gradient == (-1, -2, 2)


def test_smooth_point_gradient_equals_gradient_at():
    rng = random.Random(503)
    smooth = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        p = random_point(rng, n)
        f = random_poly(rng, n, 4, 6, nonzero=True)
        f = f - f.evaluate(p)  # vanish at p, so the smooth-point test runs
        if f.is_zero():
            continue
        status = analyze_germ(GermQuery(f, p, 8))
        gradient = f.gradient_at(p)
        if any(c != 0 for c in gradient):
            assert status.kind == "SmoothIrreducible"
            assert status.certificate.gradient == gradient
            smooth += 1
        else:
            assert status.kind != "SmoothIrreducible"
    assert smooth >= 40


def test_analyze_counterexample_origin():
    status = analyze_germ(GermQuery(COUNTEREXAMPLE, (0, 0, 0), 8))
    assert status.kind == "SingularIrreducible"
    assert status.certificate.kind == "OddVariableOrder"
    assert status.certificate.variable == 1 and status.certificate.order == 1


def test_analyze_counterexample_shifted():
    status = analyze_germ(GermQuery(COUNTEREXAMPLE, (1, 0, 0), 8))
    assert status.kind == "SingularReducible"
    a, b = status.factors
    shifted = COUNTEREXAMPLE.shift((1, 0, 0))
    assert a * b == TruncatedSeries(shifted, 8)
    # r = factor head series: z3 -/+ z2*(1 + z1/2 - ...) in shifted coordinates
    assert a.body.coefficient((0, 1, 0)) in (F(1), F(-1))


def test_analyze_smoothness_shortcut_precedes_preparation():
    # d = 1 forces a nonzero partial derivative, so every degree-one germ is
    # already caught by the smooth-point check.
    f = Polynomial(2, {(0, 1): 1, (2, 0): 1})  # z2 + z1^2, smooth at 0
    status = analyze_germ(GermQuery(f, (0, 0), 8))
    assert status.kind == "SmoothIrreducible"


def test_analyze_distinguished_var_divides():
    f = Polynomial(2, {(1, 2): 1, (0, 3): 1})  # z2^2*(z1 + z2)
    status = analyze_germ(GermQuery(f, (0, 0), 8))
    assert status.kind == "SingularReducible"
    assert status.certificate.kind == "DistinguishedVarDivides"
    assert status.certificate.variable == 2
    assert status.certificate.multiplicity == 2
    a, b = status.factors
    assert a.body == Polynomial.variable(2, 2)
    prod = a * b
    assert prod == TruncatedSeries(f, 8)


def test_distinguished_var_multiplicity_is_read_from_the_exact_germ():
    # z2*(z2^2 + z1^9): e_2 = z1^9 truncates to zero at order 8, yet z2
    # divides the germ only once
    f = Polynomial(2, {(0, 3): 1, (9, 1): 1})
    status = analyze_germ(GermQuery(f, (0, 0), 8))
    assert status.certificate.kind == "DistinguishedVarDivides"
    assert status.certificate.multiplicity == 1
    # z2*(z2^9 + z1^10): regularity order 10 > 8, so no factors are prepared
    f = Polynomial(2, {(0, 10): 1, (10, 1): 1})
    status = analyze_germ(GermQuery(f, (0, 0), 8))
    assert status.kind == "SingularReducible" and status.factors is None
    assert status.certificate.multiplicity == 1


@pytest.mark.parametrize(
    "f, point, certificate",
    [
        # z2^2 - z1^9
        (Polynomial(2, {(0, 2): 1, (9, 0): -1}), (0, 0), OddVariableOrder(variable=1, order=9)),
        # z3^2 - z1^9 - z2^9
        (
            Polynomial(3, {(0, 0, 2): 1, (9, 0, 0): -1, (0, 9, 0): -1}),
            (0, 0, 0),
            LowestFormNotASquare(form=Polynomial(2, {(9, 0): 4, (0, 9): 4}), degree=9),
        ),
    ],
)
def test_analyze_e_d_above_the_order_is_decided(f, point, certificate):
    # e_2 is nonzero of order 9 > 8; the discriminant is read from the exact
    # germ, so the irreducible verdict is the same at every order
    for N in (2, 8, 16):
        status = analyze_germ(GermQuery(f, point, N))
        assert status.kind == "SingularIrreducible"
        assert status.certificate == certificate


@pytest.mark.parametrize(
    "f, change",
    [
        (Polynomial(3, {(0, 0, 9): 1, (9, 0, 0): 1, (0, 9, 0): 1}), None),
        # z1^9 + z1^4*z3^5 + z1*z2^8 vanishes on the z3 axis; z1 <- z1 + z3
        # gives order 9
        (Polynomial(3, {(9, 0, 0): 1, (4, 0, 5): 1, (1, 8, 0): 1}), (F(1), F(0), F(0))),
    ],
)
def test_analyze_regularity_order_above_truncation_is_undetermined(f, change, monkeypatch):
    # in three variables a degree above 2 is outside the fragment, whatever
    # the order; nothing is prepared
    monkeypatch.setattr(germs, "weierstrass_prepare", _no_preparation)
    status = analyze_germ(GermQuery(f, (0, 0, 0), 8))
    assert status.kind == "Undetermined"
    assert status.reason.startswith("Weierstrass degree >= 3 in dimension >= 3")
    assert status.applied_change == change


def test_analyze_names_a_quadratic_weierstrass_degree_with_a_higher_zn_degree():
    # regular of order 2 in z3, but of z3-degree 3: not a*z3^2 + b*z3 + c
    status = analyze_germ(GermQuery(parse_poly("z3^2 + z3^3 - z1*z2^2"), (0, 0, 0), 8))
    assert status.reason == ("Weierstrass degree 2 (but z3-degree above 2) in dimension >= 3 "
                             "is outside the decidable fragment")


def _no_preparation(*args):
    raise AssertionError("weierstrass_prepare was called")


@pytest.mark.parametrize(
    "f, certificate",
    [
        # z2^3 - z1^10 and z2^9 + z1^9: edges that reach past the order 8
        (Polynomial(2, {(0, 3): 1, (10, 0): -1}), BinomialCoprimeEdge(d=3, m=10)),
        (Polynomial(2, {(0, 9): 1, (9, 0): 1}),
         EdgePolynomialSplits(edge_polynomial=Polynomial(1, {(0,): 1, (9,): 1}))),
    ],
)
def test_analyze_plane_germs_by_the_exact_polygon(f, certificate, monkeypatch):
    monkeypatch.setattr(germs, "weierstrass_prepare", _no_preparation)
    status = analyze_germ(GermQuery(f, (0, 0), 8))
    assert status.certificate == certificate


def test_analyze_shear_search_splits_off_the_distinguished_variable():
    # z1^2*z3 - z2*z3^2: every shear (s, s^2) keeps the z3-axis restriction
    # identically zero; z2 <- z2 + z3 gives order 3, and z3 still divides
    f = Polynomial(3, {(2, 0, 1): 1, (0, 1, 2): -1})
    status = analyze_germ(GermQuery(f, (0, 0, 0), 8))
    assert status.kind == "SingularReducible"
    assert status.certificate == DistinguishedVarDivides(variable=3, multiplicity=1)
    assert status.applied_change == (F(0), F(1), F(0))
    a, b = status.factors  # their product is w = -f (sheared); the unit is -1
    assert a * b == TruncatedSeries(-apply_shear(f, 3, status.applied_change), 8)
    # scan: the base germ is reducible, so the scan is inconclusive
    report = scan_stability(f, (0, 0, 0), T_LINE, (1, 2), 8)
    assert report.base_status == status
    assert all(s.status.kind == "SmoothIrreducible" for s in report.samples)
    assert report.verdict == "Inconclusive"
    assert report.reason == "the base germ is not irreducible (SingularReducible)"


def test_coprime_binomials_are_never_reducible():
    # z2^a - z1^b with gcd(a, b) = 1 is irreducible, whatever the order
    for order in range(4, 13):
        for a in range(2, min(order, 7) + 1):
            for b in range(2, 20):
                if math.gcd(a, b) != 1:
                    continue
                f = Polynomial(2, {(0, a): 1, (b, 0): -1})
                status = analyze_germ(GermQuery(f, (0, 0), order))
                assert status.kind != "SingularReducible", (order, a, b)


def test_analyze_bivariate_cusp_via_polygon():
    # d = 2 routes to the quadratic test, which certifies irreducibility by
    # odd order; the polygon route is exercised by a degree-3 bivariate germ.
    status = analyze_germ(GermQuery(CUSP, (0, 0), 8))
    assert status.kind == "SingularIrreducible"

    tri = Polynomial(2, {(0, 3): 1, (4, 0): -1})  # z2^3 - z1^4: gcd(3,4) = 1
    status3 = analyze_germ(GermQuery(tri, (0, 0), 8))
    assert status3.kind == "SingularIrreducible"
    assert status3.certificate.kind == "BinomialCoprimeEdge"
    assert (status3.certificate.d, status3.certificate.m) == (3, 4)


def test_analyze_undetermined_in_high_dimension():
    f = Polynomial(3, {(0, 0, 3): 1, (3, 0, 0): 1, (0, 3, 0): 1})  # Fermat cubic
    status = analyze_germ(GermQuery(f, (0, 0, 0), 8))
    assert status.certificate == IsolatedCriticalPoint(level=4, milnor=8)
    # z3^3 - z1*z2^3 is singular along the z1-axis: no isolated point, no certificate
    f = Polynomial(3, {(0, 0, 3): 1, (1, 3, 0): -1})
    status = analyze_germ(GermQuery(f, (0, 0, 0), 8))
    assert status.kind == "Undetermined"
    assert status.reason


def test_analyze_zero_polynomial_is_rejected():
    with pytest.raises(Exception):
        analyze_germ(GermQuery(Polynomial.zero(2), (0, 0), 8))


def test_analyze_order_robustness_on_golden_suite():
    cases = [
        (COUNTEREXAMPLE, (0, 0, 0)),
        (COUNTEREXAMPLE, (1, 0, 0)),
        (COUNTEREXAMPLE, (1, 1, 1)),
        (COUNTEREXAMPLE, (2, 1, 1)),
        (CUSP, (0, 0)),
        (Polynomial(2, {(1, 2): 1, (0, 3): 1}), (0, 0)),
        (Polynomial(2, {(0, 3): 1, (4, 0): -1}), (0, 0)),
    ]
    for f, p in cases:
        low = analyze_germ(GermQuery(f, p, 8))
        high = analyze_germ(GermQuery(f, p, 16))
        assert low.kind == high.kind
        if low.certificate is not None:
            assert low.certificate.kind == high.certificate.kind


def test_quadratic_and_polygon_verdicts_agree_when_both_decide():
    # bivariate monic quadratics: both oracles are applicable; where both are
    # decisive they must agree on ir/reducibility.
    rng = random.Random(501)
    decided = 0
    for _ in range(200):
        e1 = random_poly(rng, 1, 3, 2)
        e2 = random_poly(rng, 1, 4, 2)
        if e1.constant_term() != 0:
            e1 = e1 - Polynomial.constant(1, e1.constant_term())
        if e2.constant_term() != 0:
            e2 = e2 - Polynomial.constant(1, e2.constant_term())
        z2 = Polynomial.variable(2, 2)
        w = z2 * z2 + e1.insert_variable(2) * z2 + e2.insert_variable(2)
        if w.evaluate((F(0), F(0))) != 0 or w.gradient_at((F(0), F(0))) != (0, 0):
            continue  # not singular at the origin; analyzers disagree by design
        quad = quadratic_germ_test(w, 8)
        try:
            poly_status = polygon_verdict(newton_polygon(w))
        except DistinguishedVarDividesError:
            continue
        if "Undetermined" in (quad.kind, poly_status.kind):
            continue
        assert quad.is_irreducible_verdict() == poly_status.is_irreducible_verdict()
        decided += 1
    assert decided >= 50


# -- exact quadratic verdicts ----------------------------------------------------------


def _vanishing(rng, m, low, max_degree, max_terms):
    """A random polynomial in m variables with no term of degree below `low`."""
    p = random_poly(rng, m, max_degree, max_terms)
    return p - p.truncate(low - 1)


def _monomial_times_unit(rng, m, max_degree, odd=False):
    """x^beta * U with |beta| >= 1 and U(0) != 0; with `odd`, |beta| >= 2 and
    some exponent of beta is odd."""
    mono = random_monomial(rng, m, max_degree)
    if odd and (sum(mono) < 2 or all(e % 2 == 0 for e in mono)):
        mono = (mono[0] // 2 * 2 + 3,) + mono[1:]
    elif sum(mono) == 0:
        mono = (1,) + mono[1:]
    unit = Polynomial.constant(m, _nonzero_fraction(rng)) + _vanishing(rng, m, 1, 3, 2)
    return Polynomial.monomial(m, mono) * unit


def _random_monic_quadratic(rng, m):
    """(e1, e2) in m variables, e1(0) = 0 and e2 of order >= 2, with D = e1^2 - 4*e2
    random, k * (x^beta * U)^2 (a square, over Q when k is 1 or 4) or x^gamma * U
    with an odd exponent (not a square); U(0) != 0, and terms reach degree 12."""
    e1 = _vanishing(rng, m, 1, 6, 3)
    shape = rng.randrange(3)
    if shape == 0:
        return e1, _vanishing(rng, m, 2, 12, 4)
    if shape == 1:
        root = _monomial_times_unit(rng, m, 6)
        return e1, (e1 * e1 - root * root * rng.randint(1, 4)) * F(1, 4)
    return e1, (e1 * e1 - _monomial_times_unit(rng, m, 6, odd=True)) * F(1, 4)


def _cut_roots(status, N):
    """The status with the root of a MonomialUnitSquare cut back to order N."""
    cert = status.certificate
    if isinstance(cert, MonomialUnitSquare) and not cert.symbolic:
        cert = cert._replace(root=TruncatedSeries(cert.root.body, N),
                             unit_root=TruncatedSeries(cert.unit_root.body, N))
    return status._replace(certificate=cert, factors=None)


def test_quadratic_verdicts_do_not_depend_on_the_order(monkeypatch):
    # a*(t^2 + e1*t + e2), t = z_n: singular, regular of order 2 in t, and of
    # the exact quadratic form, so nothing is prepared; the verdict and the
    # certificate are the same at every order, and the factors multiply back
    # to f/a through the order
    monkeypatch.setattr(germs, "weierstrass_prepare", _no_preparation)
    rng = random.Random(909)
    kinds, above = {}, 0
    for _ in range(150):
        n = rng.randint(2, 4)
        e1, e2 = _random_monic_quadratic(rng, n - 1)
        if e2.is_zero():
            continue  # t divides the germ
        t = Polynomial.variable(n, n)
        w = t * t + e1.insert_variable(n) * t + e2.insert_variable(n)
        a = _nonzero_fraction(rng)
        statuses = {N: analyze_germ(GermQuery(w * a, (0,) * n, N)) for N in (2, 8, 16)}
        for N, status in statuses.items():
            assert status.applied_change is None
            assert _cut_roots(status, 2) == _cut_roots(statuses[2], 2), (w, N)
            if status.factors is not None:
                f1, f2 = status.factors
                assert f1 * f2 == TruncatedSeries(w, N)
        kind = statuses[8].certificate.kind if statuses[8].certificate else "Undetermined"
        kinds[kind] = kinds.get(kind, 0) + 1
        above += (e1 * e1 - 4 * e2).total_degree() > 8
    assert above >= 40
    assert min(kinds.get(k, 0) for k in ("OddVariableOrder", "MonomialUnitSquare")) >= 20
    assert kinds.get("LowestFormNotASquare", 0) >= 5


def test_planted_split_quadratic_is_never_irreducible():
    # (t - r1)*(t - r2) with r1(0) = r2(0) = 0 and r1 != r2 is a product of
    # two non-units at every order; D = (r1 - r2)^2 is a square
    rng = random.Random(910)
    kinds = {}
    for _ in range(100):
        n = rng.randint(2, 4)
        r1, r2 = (_vanishing(rng, n - 1, 1, 8, 3) for _ in range(2))
        if rng.random() < 0.5:  # r1 - r2 = monomial * unit: a certified split
            r2 = r1 - _monomial_times_unit(rng, n - 1, 5)
        if r1 == r2 or (r1 * r2).is_zero():
            continue  # a double root, or t divides the germ
        t = Polynomial.variable(n, n)
        g = (t - r1.insert_variable(n)) * (t - r2.insert_variable(n)) * _nonzero_fraction(rng)
        p = random_point(rng, n)
        f = g.shift(tuple(-c for c in p))  # f(p + x) = g(x)
        for N in (2, 8, 16):
            status = analyze_germ(GermQuery(f, p, N))
            assert status.kind == "SingularReducible", (g, N, status)
            kinds[status.certificate.kind] = kinds.get(status.certificate.kind, 0) + 1
    assert min(kinds.get(k, 0) for k in ("MonomialUnitSquare", "PolynomialSquare")) >= 20


@pytest.mark.parametrize("poly, point, kind", [
    ("z3^2 - z1*z2^2", (0, 0, 0), "SingularIrreducible"),
    ("z3^2 - z1*z2^2", (1, 0, 0), "SingularReducible"),
    ("z3^2 - z1*z2^2", (F(1, 2), 0, 0), "SingularReducible"),
    ("z2^2 - z1^3", (0, 0), "SingularIrreducible"),
    ("z2^2 - z1^9", (0, 0), "SingularIrreducible"),
    ("-3*z3^2 + z1^9 + z2^9", (0, 0, 0), "SingularIrreducible"),
    ("z4^2 - z1^2 - z2^2 - z3^2", (0, 0, 0, 0), "SingularIrreducible"),
    ("(z2 - z1)*(z2 + z1 + z1^5)", (0, 0), "SingularReducible"),
])
def test_quadratic_germs_are_decided_without_preparation(poly, point, kind, monkeypatch):
    monkeypatch.setattr(germs, "weierstrass_prepare", _no_preparation)
    status = analyze_germ(GermQuery(parse_poly(poly), point, 8))
    assert status.kind == kind


# -- scan_stability -------------------------------------------------------------------


def curve(*coords):
    return tuple(Polynomial(1, c) for c in coords)


T_LINE = curve({(1,): 1}, {}, {})  # (t, 0, 0)


def test_scan_counterexample_is_unstable():
    report = scan_stability(
        COUNTEREXAMPLE, (0, 0, 0), T_LINE, (1, F(1, 2), F(1, 4), F(1, 8)), 8
    )
    assert report.base_status.kind == "SingularIrreducible"
    assert all(s.on_locus for s in report.samples)
    assert all(s.status.kind == "SingularReducible" for s in report.samples)
    assert report.verdict == "Unstable"
    assert report.witness is report.samples[0]


def test_scan_cusp_is_stable_evidence():
    cusp_curve = curve({(2,): 1}, {(3,): 1})  # (t^2, t^3)
    report = scan_stability(
        CUSP, (0, 0), cusp_curve, (F(1, 2), F(1, 3), F(1, 4)), 8
    )
    assert all(s.on_locus for s in report.samples)
    assert all(s.status.kind == "SmoothIrreducible" for s in report.samples)
    assert report.verdict == "Stable-evidence"


def test_scan_off_locus_is_inconclusive():
    f = Polynomial(2, {(0, 1): 1})  # z2 never vanishes on (t, 1)
    report = scan_stability(f, (0, 1), curve({(1,): 1}, {(0,): 1}), (1, 2), 8)
    assert not any(s.on_locus for s in report.samples)
    assert report.verdict == "Inconclusive"
    assert report.reason


def test_scan_around_a_base_germ_that_is_not_irreducible_is_inconclusive():
    # z1*z2 is reducible at the origin and smooth at every other point of
    # (t, 0); z2^9 - z1^9*(z1 - 1) has a binomial edge of lattice length 9
    for f in (
        Polynomial(2, {(1, 1): 1}),
        Polynomial(2, {(0, 9): 1, (10, 0): -1, (9, 0): 1}),
    ):
        report = scan_stability(f, (0, 0), curve({(1,): 1}, {}), (1, 2), 8)
        assert report.base_status.kind == "SingularReducible"
        assert report.verdict == "Inconclusive"
        assert report.reason == "the base germ is not irreducible (SingularReducible)"


def test_scan_requires_curve_through_base_point():
    message = r"curve\(0\) = \(1, 0, 0\) does not pass through the base point \(0, 0, 0\)$"
    with pytest.raises(ValueError, match=message):
        scan_stability(COUNTEREXAMPLE, (0, 0, 0), curve({(0,): 1}, {}, {}), (1,), 8)
    with pytest.raises(ValueError):
        scan_stability(COUNTEREXAMPLE, (0, 0, 0), T_LINE, (), 8)


def test_scan_refuses_a_float_t(monkeypatch):
    # the samples build no GermQuery, so t is checked before any germ is classified
    def refuse(*args):
        raise AssertionError("a germ was classified before t was checked")

    monkeypatch.setattr(germs, "_classify", refuse)
    with pytest.raises(TypeError, match=re.escape("inexact value 0.5")):
        scan_stability(COUNTEREXAMPLE, (0, 0, 0), T_LINE, (0.5,), 8)


def test_order_above_the_cap_is_rejected_at_once():
    # every series checks its order, so each call below fails before any
    # series work, as GermQuery and weierstrass_prepare do
    big = MAX_ORDER + 1
    for low, call in (
        (1, lambda: TruncatedSeries(ONE_PLUS_Z1, big)),
        (1, lambda: ts_inverse(TruncatedSeries(ONE_PLUS_Z1, big))),
        (1, lambda: ts_sqrt(TruncatedSeries(ONE_PLUS_Z1, big))),
        (1, lambda: is_local_square(MONOMIAL_TIMES_UNIT, big)),
        (1, lambda: quadratic_germ_test(COUNTEREXAMPLE.shift((1, 0, 0)), big)),
        (1, lambda: weierstrass_prepare(COUNTEREXAMPLE, 3, big)),
        (2, lambda: GermQuery(COUNTEREXAMPLE, (0, 0, 0), big)),
        (2, lambda: scan_stability(COUNTEREXAMPLE, (0, 0, 0), T_LINE, (1,), big)),
    ):
        message = f"truncation order must be at least {low} and at most {MAX_ORDER}$"
        started = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            call()
        assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("order", [8.5, 8.0, True])
def test_a_non_int_order_is_a_type_error(order):
    # the origin and (1, 0, 0) take different cascade stages; only the
    # second reaches the series kernels, so each entry point checks first
    message = re.escape(f"truncation order must be an int, got {order!r}") + "$"
    for call in (
        lambda: analyze_germ(GermQuery(COUNTEREXAMPLE, (1, 0, 0), order)),
        lambda: analyze_germ(GermQuery(COUNTEREXAMPLE, (0, 0, 0), order)),
        lambda: TruncatedSeries(COUNTEREXAMPLE, order),
        lambda: ts_sqrt(TruncatedSeries(ONE_PLUS_Z1, order)),
        lambda: is_local_square(MONOMIAL_TIMES_UNIT, order),
        lambda: weierstrass_prepare(COUNTEREXAMPLE, 3, order),
        lambda: scan_stability(COUNTEREXAMPLE, (0, 0, 0), T_LINE, (1,), order),
    ):
        with pytest.raises(TypeError, match=message):
            call()


def test_a_bad_order_raises_on_the_paths_that_build_no_series():
    # z3^2 - z1*z2^2 at the origin is decided by an odd variable order, and
    # z1^2 + z2^2 by its lowest form: neither builds a series, yet both check N
    message = f"truncation order must be at least 1 and at most {MAX_ORDER}$"
    with pytest.raises(ValueError, match=message):
        quadratic_germ_test(COUNTEREXAMPLE, 10**6)
    z1, z2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    with pytest.raises(TypeError, match=re.escape("must be an int, got 8.5") + "$"):
        is_local_square(z1**2 + z2**2, 8.5)
    # the same calls at a good order decide without a series
    assert isinstance(quadratic_germ_test(COUNTEREXAMPLE, 8).certificate, OddVariableOrder)
    assert isinstance(is_local_square(z1**2 + z2**2, 8), LowestFormNotASquare)



@pytest.mark.parametrize("var", [3.0, True])
def test_a_non_int_variable_index_is_a_type_error(var):
    # 3.0 failed to index a tuple, and True passed the range check as z1
    message = re.escape(f"variable index must be an int, got {var!r}") + "$"
    for call in (
        lambda: make_regular(COUNTEREXAMPLE, var),
        lambda: weierstrass_prepare(COUNTEREXAMPLE, var, 8),
        lambda: resultant(COUNTEREXAMPLE, COUNTEREXAMPLE, var),
        lambda: COUNTEREXAMPLE.degree_in(var),
    ):
        with pytest.raises(TypeError, match=message):
            call()

def test_the_zero_polynomial_is_rejected_as_a_germ():
    message = "the germ of 0 is zero at every point, so it is neither a unit nor irreducible"
    with pytest.raises(ZeroPolynomialError, match=message):
        GermQuery(Polynomial.zero(3), (0, 0, 0))
    with pytest.raises(ZeroPolynomialError, match=message):
        scan_stability(Polynomial.zero(3), (0, 0, 0), T_LINE, (1,), 8)


def test_scan_on_locus_is_exact_vanishing():
    # f = (z1 - p1 - 1) * g along a curve with z1 = p1 + t: every sample at
    # t = 1 lies on the locus, most others do not
    rng = random.Random(504)
    flags = set()
    for _ in range(20):
        n = rng.randint(2, 3)
        p = random_point(rng, n, -2, 2, 2)
        g = random_poly(rng, n, 3, 4, nonzero=True)
        line = Polynomial(n, {(1,) + (0,) * (n - 1): 1, (0,) * n: -p[0] - 1})
        f = line * g
        coords = [Polynomial(1, {(0,): p[0], (1,): 1})]
        for c in p[1:]:
            coords.append(Polynomial(1, {(0,): c, (rng.randint(1, 3),): random_fraction(rng)}))
        ts = (1, F(1, 2), -1, 2, F(-1, 3))
        report = scan_stability(f, p, tuple(coords), ts, 8)
        for s in report.samples:
            assert s.on_locus == (f.evaluate(s.point) == 0)
            flags.add(s.on_locus)
    assert flags == {True, False}


def test_scan_samples_equal_a_fresh_analysis_at_each_point():
    # the scan shifts f to p once and moves each sample by q - p from there,
    # evaluating only the coordinates the curve moves; every point must be the
    # curve's value at t and every status the one analyze_germ gives at q from f
    rng = random.Random(505)
    z1, z2, z3 = (Polynomial.variable(3, i) for i in (1, 2, 3))
    kinds, sheared = set(), 0
    for case in range(30):
        ts = (0, *(random_fraction(rng, -3, 3, 4) for _ in range(3)))
        shape = case % 5
        u = 1 + random_poly(rng, 3, 2, 3) * Polynomial.variable(3, rng.randint(1, 3))
        if shape < 2:
            # along a line, where only z1 moves: the paper's family, and a
            # family whose germs are not regular in z3 until sheared
            f = z3**2 - z1 * z2**2 * u if shape == 0 else z2 * z3 * u + z1 * z2**2
            p = (0, 0, 0)
            coords = curve({(1,): rng.randint(1, 3)}, {}, {})
        elif shape == 2:
            # a cusp through a random point, with z3 tied to z1: every coordinate moves
            p = random_point(rng, 3, -2, 2, 3)
            a, c = random_fraction(rng, 1, 3, 2), random_fraction(rng)
            x = [z - v for z, v in zip((z1, z2, z3), p)]
            f = x[1] ** 2 - x[0] ** 3 + (x[2] - c * x[0]) * random_poly(rng, 3, 2, 3, nonzero=True)
            coords = curve({(0,): p[0], (2,): a**2}, {(0,): p[1], (3,): a**3},
                           {(0,): p[2], (2,): c * a**2})
        elif shape == 3:
            # the paper's family moved to a point whose fixed coordinates are nonzero
            p = (random_fraction(rng), *(random_fraction(rng, 1, 9) for _ in range(2)))
            x = [z - v for z, v in zip((z1, z2, z3), p)]
            f = x[2] ** 2 - x[0] * x[1] ** 2 * u
            coords = curve({(0,): p[0], (1,): rng.randint(1, 3)}, {(0,): p[1]}, {(0,): p[2]})
        else:
            # a cusp in z2, z3 on the plane z1 = 0, the curve's z1 the zero polynomial
            p = (0, *random_point(rng, 2, -2, 2, 3))
            a = random_fraction(rng, 1, 3, 2)
            f = (z2 - p[1]) ** 2 - (z3 - p[2]) ** 3 + z1 * random_poly(rng, 3, 2, 3)
            coords = curve({}, {(0,): p[1], (3,): a**3}, {(0,): p[2], (2,): a**2})
        N = rng.choice((4, 8))
        report = scan_stability(f, p, coords, ts, N)
        want = analyze_germ(GermQuery(f, p, N))
        assert report.base_status == want
        for s in report.samples:
            # the curve's value from its terms, not from evaluate, which the scan itself runs
            q = tuple(sum((k * s.t ** e for (e,), k in c.terms()), Fraction(0)) for c in coords)
            assert s.point == q and all(type(x) is Fraction for x in s.point)
            want = analyze_germ(GermQuery(f, s.point, N))
            assert s.status.certificate == want.certificate
            assert s.status.factors == want.factors
            assert s.status.reason == want.reason
            assert s.status.applied_change == want.applied_change
            kinds.add(s.status.kind)
            sheared += s.status.applied_change is not None
    assert {"SingularIrreducible", "SingularReducible", "SmoothIrreducible"} <= kinds
    assert sheared


def test_scan_determinism_and_sample_order():
    ts = (1, F(1, 2), F(1, 4))
    a = scan_stability(COUNTEREXAMPLE, (0, 0, 0), T_LINE, ts, 8)
    b = scan_stability(COUNTEREXAMPLE, (0, 0, 0), T_LINE, ts, 8)
    assert [s.t for s in a.samples] == list(ts)
    assert a == b


# -- classification soundness hooks ----------------------------------------------------


def test_unit_iff_nonvanishing_both_directions():
    rng = random.Random(502)
    for _ in range(50):
        f = random_poly(rng, 2, 3, 4, nonzero=True)
        p = (random_fraction(rng, -2, 2, 2), random_fraction(rng, -2, 2, 2))
        status = analyze_germ(GermQuery(f, p, 8))
        assert (status.kind == "Unit") == (f.evaluate(p) != 0)
        if status.kind == "SmoothIrreducible":
            assert f.evaluate(p) == 0
            assert any(c != 0 for c in f.gradient_at(p))


# -- verdicts of the exact germ ----------------------------------------------------------
# A square test on the discriminant cut at the order gave each of these germs
# the wrong answer.  On the exact discriminant the first is decided, since D is
# a constant times a square; the others have square lowest forms, so the
# square test leaves them open, and their isolated singular points decide them.


@pytest.mark.parametrize("poly, wrong, expected", [
    # (z3 - z1 - z2^5)*(z3 + z1 + z2^5): D = 4*(z1 + z2^5)^2 is a square
    ("z3^2 - (z1 + z2^5)^2", "SingularIrreducible", "SingularReducible"),
    # D = 4*(z1^2 + z2^9), and the plane germ z1^2 + z2^9 is not a square
    ("z3^2 - z1^2 - z2^9", "SingularReducible", "SingularIrreducible"),
    # D = -4*(z2^2 + z1^9), not a square either
    ("z1^9 + z2^2 + z3^2", "SingularReducible", "SingularIrreducible"),
])
def test_quadratic_verdict_holds_for_the_exact_germ(poly, wrong, expected):
    status = analyze_germ(GermQuery(parse_poly(poly), (0, 0, 0)))
    assert status.kind != wrong
    assert status.kind == expected


# -- the undecided germs --------------------------------------------------------------
# Each germ with its truth and its answer at the origin: the isolated singular
# points get their exact certificate; every other germ stays Undetermined, with
# the reason of the stage that left it open.

_QUADRATIC = "the discriminant has a square lowest form but is neither a monomial times a unit " \
             "nor a constant times a square"
_DEGREE_2 = "Weierstrass degree 2 (but z3-degree above 2) in dimension >= 3 is outside the " \
            "decidable fragment"
_DEGREE_3 = "Weierstrass degree >= 3 in dimension >= 3 is outside the decidable fragment"
_EDGE = "single Newton polygon edge with one repeated edge root; deeper expansion needed"


@pytest.mark.parametrize("poly, truth, answer", [
    ("z3^2 - z1^2 - z2^9", "SingularIrreducible", IsolatedCriticalPoint(level=8, milnor=8)),
    ("z1^9 + z2^2 + z3^2", "SingularIrreducible", IsolatedCriticalPoint(level=8, milnor=8)),
    ("z3^9 + z1^2 + z2^2", "SingularIrreducible", IsolatedCriticalPoint(level=8, milnor=8)),
    ("z3^3 - z1^2 - z2^5", "SingularIrreducible", IsolatedCriticalPoint(level=5, milnor=8)),
    ("z1*z2 + z3^3", "SingularIrreducible", IsolatedCriticalPoint(level=2, milnor=2)),
    ("z3^3 + z1^3 + z2^3", "SingularIrreducible", IsolatedCriticalPoint(level=4, milnor=8)),
    ("(1 + z1)*(z3^2 - z1^2 - z2^9)", "SingularIrreducible",
     IsolatedCriticalPoint(level=8, milnor=8)),
    ("z3^2 + z3^3 - z1*z2^2", "SingularIrreducible", _DEGREE_2),
    ("z3^3 - z1*z2^3", "SingularIrreducible", _DEGREE_3),
    ("z4^3 - z1*z2*z3", "SingularIrreducible", _DEGREE_3),
    ("z3^2 - (z1^2 - z2^3)*z2^2", "SingularIrreducible", _QUADRATIC),
    ("z3^2 - (z1 + z2^2)^2*(1 + z1)", "SingularReducible", _QUADRATIC),
    ("(z2^2 - z1^3)^2 - 4*z1^5*z2 - z1^7", "SingularIrreducible", _EDGE),
    ("(z2^2 - z1^3)^2 - z1^7", "SingularReducible", _EDGE),
])
def test_undecided_germs_get_their_truth_or_stay_undetermined(poly, truth, answer):
    f = parse_poly(poly)
    status = analyze_germ(GermQuery(f, (0,) * f.n))
    if isinstance(answer, str):
        assert status == GermStatus(reason=answer)
    else:
        assert status == GermStatus(answer) and status.kind == truth


@pytest.mark.parametrize("poly, point, lc, root, factors", [
    # D = 0: the germ is the square of z2 - z1
    ("(z2 - z1)^2", (0, 0), 0, "0", ("z2 - z1", "z2 - z1")),
    # D = 4*(z1 + z2^5)^2: the factors z3 -+ (z1 + z2^5)
    ("z3^2 - (z1 + z2^5)^2", (0, 0, 0), 4, "z1 + z2^5", ("z3 - z1 - z2^5", "z3 + z1 + z2^5")),
    # the same germ at (1, -1, 2), in the shifted coordinates
    ("(z3 - 2)^2 - (z1 - 1 + (z2 + 1)^5)^2", (1, -1, 2), 4, "z1 + z2^5",
     ("z3 - z1 - z2^5", "z3 + z1 + z2^5")),
    # D = -8*(z1 + z2^2)^2: a square over C only, so no factors (the symbolic case)
    ("3*z3^2 + 6*(z1 + z2^2)^2", (0, 0, 0), -8, "z1 + z2^2", None),
])
def test_a_constant_times_a_square_discriminant_is_reducible(poly, point, lc, root, factors):
    f = parse_poly(poly)
    status = analyze_germ(GermQuery(f, point))
    assert status.kind == "SingularReducible" and status.reason is None
    assert status.certificate == PolynomialSquare(lc=lc, root=parse_poly(root, var_count=f.n - 1))
    assert status.certificate.symbolic == (factors is None)
    if factors is None:
        assert status.factors is None
    else:
        assert status.factors == tuple(TruncatedSeries(parse_poly(g, var_count=f.n), 8)
                                       for g in factors)


# input checks, each case with the exception it raises
BAD_INPUTS = {
    "two-variable curve coordinate": (lambda: scan_stability(
        COUNTEREXAMPLE, (0, 0, 0), (Polynomial.variable(2, 1),) + T_LINE[1:], (1,), 8),
        DimensionMismatchError),
}


@pytest.mark.parametrize("call, error", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_inputs_raise_their_error(call, error):
    with pytest.raises(error):
        call()
