"""Germ classification: square tests, quadratic split, polygons, scanning."""

import math
import random
from dataclasses import replace
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
    BinomialNoncoprimeEdge,
    DistinguishedVarDivides,
    GermQuery,
    LowestFormNotASquare,
    MonomialUnitSquare,
    OddVariableOrder,
    analyze_germ,
    is_local_square,
    newton_polygon,
    polygon_verdict,
    quadratic_germ_test,
    scan_stability,
)
from germkit.parsing import parse_poly
from germkit.series import TruncatedSeries
from germkit.weierstrass import MAX_ORDER, apply_shear
from helpers import random_fraction, random_monomial, random_point, random_poly

F = Fraction

COUNTEREXAMPLE = Polynomial(3, {(0, 0, 2): 1, (1, 2, 0): -1})  # z3^2 - z1*z2^2
CUSP = Polynomial(2, {(0, 2): 1, (3, 0): -1})  # z2^2 - z1^3


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


def test_square_test_leaves_zero_undecided():
    # 0 = 0^2, but no certificate states it: a quadratic germ with D = 0 is
    # a constant times a square, which the cascade leaves Undetermined
    assert is_local_square(Polynomial.zero(2), 8) is None


def test_square_test_symbolic_when_constant_is_not_a_rational_square():
    d = Polynomial(2, {(0, 2): 2, (1, 2): 2})  # 2(1+z1)*z2^2: square over C only
    cert = is_local_square(d, 8)
    assert isinstance(cert, MonomialUnitSquare)
    assert cert.symbolic and cert.root is None


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
        # a square lowest form leaves D undecided (None) unless D is a monomial
        cert = is_local_square(d, d.total_degree())
        ruled_out = cert is not None and not isinstance(cert, MonomialUnitSquare)
        assert ruled_out == (not square), d
        seen[square] += 1
    assert min(seen.values()) >= 30


# -- quadratic_germ_test ------------------------------------------------------------


def test_quadratic_counterexample_at_origin_is_irreducible():
    status = quadratic_germ_test(COUNTEREXAMPLE, 3, 8)
    assert status.kind == "SingularIrreducible"
    assert status.certificate.kind == "OddVariableOrder"
    assert status.certificate.variable == 1 and status.certificate.order == 1


def test_quadratic_shifted_counterexample_splits():
    shifted = COUNTEREXAMPLE.shift((1, 0, 0))
    status = quadratic_germ_test(shifted, 3, 8)
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
    # z2^2: e1 = e2 = 0, so D = 0, which no certificate states
    # (analyze_germ certifies this germ by DistinguishedVarDivides instead)
    w = Polynomial(2, {(0, 2): 1})
    status = quadratic_germ_test(w, 2, 8)
    assert status.kind == "Undetermined" and status.factors is None


def test_quadratic_discriminant_is_exact():
    # (z3 + z1^4 + z2^5)^2 is a square: D = 0 exactly, at every order.  The
    # discriminant of an order-8 preparation would keep 8*z1^4*z2^5 + 4*z2^10
    r = Polynomial(3, {(0, 0, 1): 1, (4, 0, 0): 1, (0, 5, 0): 1})
    for N in (2, 8, MAX_ORDER):
        status = quadratic_germ_test(r * r, 3, N)
        assert status.kind == "Undetermined"
        assert status.reason == "the discriminant is zero: the germ is a constant times a square"


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
    status = quadratic_germ_test(shifted, 3, 8)
    assert status.kind == "SingularReducible"
    assert status.factors is None
    assert status.certificate.kind == "MonomialUnitSquare"
    assert status.certificate.symbolic


def test_quadratic_requires_degree_two():
    for poly in (
        "z2 + z1^2",  # degree 1 in z2
        "z2^2 + z2^3 - z1^3",  # degree 3 in z2
        "(1 + z1)*z2^2 - z1^3",  # the coefficient of z2^2 is not constant
        "z2^2 + z2 - z1^3",  # b(0) != 0: regular of order 1, not 2
        "z2^2 + 1",  # c(0) != 0: a unit
    ):
        with pytest.raises(ValueError, match=r"quadratic test needs a\*z2\^2"):
            quadratic_germ_test(parse_poly(poly), 2, 8)


# -- Newton polygon ------------------------------------------------------------------


def test_polygon_of_cusp():
    pg = newton_polygon(CUSP, 2)
    assert set(pg.support_points) == {(0, 2), (3, 0)}
    assert len(pg.edges) == 1
    (edge,) = pg.edges
    assert edge.start == (0, 2) and edge.end == (3, 0)
    assert edge.lattice_gcd == 1


def test_polygon_of_even_binomial():
    w = Polynomial(2, {(0, 2): 1, (2, 0): -1})  # z2^2 - z1^2
    pg = newton_polygon(w, 2)
    assert len(pg.edges) == 1
    (edge,) = pg.edges
    assert edge.start == (0, 2) and edge.end == (2, 0)
    assert edge.lattice_gcd == 2


def test_polygon_with_two_edges():
    # (z2^2 - z1^3)(z2 - z1) expanded
    w = Polynomial(2, {(0, 3): 1, (1, 2): -1, (3, 1): -1, (4, 0): 1})
    pg = newton_polygon(w, 2)
    assert [(e.start, e.end) for e in pg.edges] == [((0, 3), (1, 2)), ((1, 2), (4, 0))]


def test_polygon_requires_bivariate_and_nonzero_tail():
    with pytest.raises(DimensionMismatchError):
        newton_polygon(COUNTEREXAMPLE, 3)
    w = Polynomial(2, {(0, 2): 1, (1, 1): 1})  # z2^2 + z1*z2: z2 divides it
    with pytest.raises(DistinguishedVarDividesError):
        newton_polygon(w, 2)
    with pytest.raises(NotRegularError):
        newton_polygon(Polynomial(2, {(1, 1): 1, (3, 0): 1}), 2)  # z1*z2 + z1^3


def test_polygon_edges_are_those_of_the_weierstrass_polynomial():
    # f = u * w with a unit u, u(0) = 3: the hull and the edge polynomials
    # read from f equal those read from w, whose (0, d) coefficient is 1
    w = Polynomial(2, {(0, 3): 1, (1, 2): -1, (3, 1): -1, (4, 0): 1})
    u = Polynomial(2, {(0, 0): 3, (1, 0): 1, (0, 1): -2, (2, 1): 5})
    from_f, from_w = newton_polygon(u * w, 2), newton_polygon(w, 2)
    assert from_f.edges == from_w.edges and from_f.degree == from_w.degree == 3


def test_polygon_verdicts():
    cusp_status = polygon_verdict(newton_polygon(CUSP, 2))
    assert cusp_status.kind == "SingularIrreducible"
    assert cusp_status.certificate.kind == "BinomialCoprimeEdge"
    assert (cusp_status.certificate.d, cusp_status.certificate.m) == (2, 3)

    even = Polynomial(2, {(0, 2): 1, (2, 0): -1})
    even_status = polygon_verdict(newton_polygon(even, 2))
    assert even_status.kind == "SingularReducible"
    assert even_status.certificate.kind == "BinomialNoncoprimeEdge"
    assert even_status.certificate.gcd == 2

    two_edge = Polynomial(2, {(0, 3): 1, (1, 2): -1, (3, 1): -1, (4, 0): 1})
    te_status = polygon_verdict(newton_polygon(two_edge, 2))
    assert te_status.kind == "SingularReducible"
    assert te_status.certificate.kind == "MultiEdgePolygon"
    assert te_status.certificate.edge_count == 2
    assert te_status.factors is None  # polygon verdicts carry no explicit factors

    splits = Polynomial(2, {(0, 2): 1, (1, 1): -3, (2, 0): 2})  # (z2-z1)(z2-2z1)
    sp_status = polygon_verdict(newton_polygon(splits, 2))
    assert sp_status.kind == "SingularReducible"
    assert sp_status.certificate.kind == "EdgePolynomialSplits"
    # edge polynomial 1 - 3*z1 + 2*z1^2 = (1 - z1)(1 - 2*z1)
    assert sp_status.certificate.edge_polynomial == Polynomial(1, {(0,): 1, (1,): -3, (2,): 2})

    power = Polynomial(2, {(0, 2): 1, (1, 1): -2, (2, 0): 1})  # (z2 - z1)^2
    pw_status = polygon_verdict(newton_polygon(power, 2))
    assert pw_status.kind == "Undetermined"


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
        if edge.term_count() == 2:
            continue  # binomial edges have their own certificates
        f = Polynomial(2, {(m[0], g - m[0]): c for m, c in edge.terms()})
        status = polygon_verdict(newton_polygon(f, 2))
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
    ("z2^4 - z1^2", (0, 0), "BinomialNoncoprimeEdge", "SingularReducible"),
    ("(z2 - z1)*(z2 - 2*z1)*(z2 - 3*z1)", (0, 0), "EdgePolynomialSplits", "SingularReducible"),
])
def test_the_verdict_is_read_from_the_certificate(poly, point, certificate, kind):
    cert = analyze_germ(GermQuery(parse_poly(poly), point, 8)).certificate
    assert cert.kind == certificate
    assert germs.GermStatus(cert).kind == cert.verdict == kind


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


def _no_preparation(*args):
    raise AssertionError("weierstrass_prepare was called")


@pytest.mark.parametrize(
    "f, certificate",
    [
        # z2^3 - z1^10 and z2^9 + z1^9: edges that reach past the order 8
        (Polynomial(2, {(0, 3): 1, (10, 0): -1}), BinomialCoprimeEdge(d=3, m=10)),
        (Polynomial(2, {(0, 9): 1, (9, 0): 1}), BinomialNoncoprimeEdge(gcd=9)),
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
        quad = quadratic_germ_test(w, 2, 8)
        try:
            poly_status = polygon_verdict(newton_polygon(w, 2))
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
        cert = replace(cert, root=TruncatedSeries(cert.root.body, N),
                       unit_root=TruncatedSeries(cert.unit_root.body, N))
    return replace(status, certificate=cert, factors=None)


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
            assert status.kind in ("SingularReducible", "Undetermined"), (g, N, status)
            kinds[status.kind] = kinds.get(status.kind, 0) + 1
    assert min(kinds.values()) >= 20 and len(kinds) == 2


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


def test_order_above_the_cap_is_rejected_at_once():
    message = f"truncation order must be at least 2 and at most {MAX_ORDER}"
    with pytest.raises(ValueError, match=message):
        GermQuery(COUNTEREXAMPLE, (0, 0, 0), MAX_ORDER + 1)
    with pytest.raises(ValueError, match=message):
        scan_stability(COUNTEREXAMPLE, (0, 0, 0), T_LINE, (1,), MAX_ORDER + 1)


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
# the wrong answer; on the exact discriminant each is Undetermined, since its
# lowest form is a square and no other certificate applies.


@pytest.mark.parametrize("poly, wrong", [
    # (z3 - z1 - z2^5)*(z3 + z1 + z2^5): D = 4*(z1 + z2^5)^2 is a square
    ("z3^2 - (z1 + z2^5)^2", "SingularIrreducible"),
    # D = 4*(z1^2 + z2^9), and the plane germ z1^2 + z2^9 is not a square
    ("z3^2 - z1^2 - z2^9", "SingularReducible"),
    # D = -4*(z2^2 + z1^9), not a square either
    ("z1^9 + z2^2 + z3^2", "SingularReducible"),
])
def test_quadratic_verdict_holds_for_the_exact_germ(poly, wrong):
    status = analyze_germ(GermQuery(parse_poly(poly), (0, 0, 0)))
    assert status.kind != wrong
    assert status.kind == "Undetermined"
