"""Germ classification: square tests, quadratic split, polygons, scanning."""

import math
import random
from fractions import Fraction

import pytest

from germkit.algebra import Polynomial
from germkit.errors import DimensionMismatchError, DistinguishedVarDividesError
from germkit.germs import (
    GermQuery,
    MonomialUnitSquare,
    analyze_germ,
    is_local_square,
    newton_polygon,
    polygon_verdict,
    quadratic_germ_test,
    scan_stability,
)
from germkit.series import TruncatedSeries
from germkit.weierstrass import weierstrass_prepare
from helpers import random_fraction, random_monomial, random_poly

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


def test_square_test_zero_is_a_square():
    cert = is_local_square(Polynomial.zero(2), 8)
    assert isinstance(cert, MonomialUnitSquare)
    assert cert.root.body.is_zero()


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


def test_square_test_ignores_a_lowest_form_above_the_order():
    # z1^4*z2^4*(z1^2 + z2^2): even variable orders, no monomial-unit split,
    # and a non-square lowest form of degree 10; D is exact only through N
    d = Polynomial(2, {(6, 4): 1, (4, 6): 1})
    assert is_local_square(d, 8) is None
    cert = is_local_square(d, 10)
    assert cert.kind == "LowestFormNotASquare" and cert.degree == 10


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
    wd = weierstrass_prepare(COUNTEREXAMPLE, 3, 8)
    status = quadratic_germ_test(wd)
    assert status.kind == "SingularIrreducible"
    assert status.certificate.kind == "OddVariableOrder"
    assert status.certificate.variable == 1 and status.certificate.order == 1


def test_quadratic_shifted_counterexample_splits():
    shifted = COUNTEREXAMPLE.shift((1, 0, 0))
    wd = weierstrass_prepare(shifted, 3, 8)
    status = quadratic_germ_test(wd)
    assert status.kind == "SingularReducible"
    a, b = status.factors
    # factors z3 -/+ z2*(1 + z1/2 - z1^2/8 + ...)
    for fac in (a, b):
        assert fac.body.coefficient((0, 0, 1)) == 1
        assert fac.body.constant_term() == 0  # both factors are non-units
    assert a.body.coefficient((0, 1, 0)) == -b.body.coefficient((0, 1, 0))
    # multiply-back: a*b = w mod N
    assert a * b == TruncatedSeries(wd.weierstrass_polynomial(), 8)


def test_quadratic_double_root():
    w = Polynomial(2, {(0, 2): 1})  # z2^2: e1 = e2 = 0
    wd = weierstrass_prepare(w, 2, 8)
    status = quadratic_germ_test(wd)
    assert status.kind == "SingularReducible"
    a, b = status.factors
    assert a.body == Polynomial.variable(2, 2)
    assert b.body == Polynomial.variable(2, 2)


def test_quadratic_symbolic_split_omits_factors():
    # shifted to (1/2, 0, 0): discriminant constant 4*(1/2) has no rational root
    shifted = COUNTEREXAMPLE.shift((F(1, 2), 0, 0))
    wd = weierstrass_prepare(shifted, 3, 8)
    status = quadratic_germ_test(wd)
    assert status.kind == "SingularReducible"
    assert status.factors is None
    assert status.certificate.kind == "MonomialUnitSquare"
    assert status.certificate.symbolic


def test_quadratic_requires_degree_two():
    f = Polynomial(2, {(0, 1): 1, (2, 0): 1})
    wd = weierstrass_prepare(f, 2, 8)
    with pytest.raises(ValueError):
        quadratic_germ_test(wd)


# -- Newton polygon ------------------------------------------------------------------


def test_polygon_of_cusp():
    wd = weierstrass_prepare(CUSP, 2, 8)
    pg = newton_polygon(wd)
    assert set(pg.support_points) == {(0, 2), (3, 0)}
    assert len(pg.edges) == 1
    (edge,) = pg.edges
    assert edge.start == (0, 2) and edge.end == (3, 0)
    assert edge.lattice_gcd == 1


def test_polygon_of_even_binomial():
    w = Polynomial(2, {(0, 2): 1, (2, 0): -1})  # z2^2 - z1^2
    pg = newton_polygon(weierstrass_prepare(w, 2, 8))
    assert len(pg.edges) == 1
    (edge,) = pg.edges
    assert edge.start == (0, 2) and edge.end == (2, 0)
    assert edge.lattice_gcd == 2


def test_polygon_with_two_edges():
    # (z2^2 - z1^3)(z2 - z1) expanded
    w = Polynomial(2, {(0, 3): 1, (1, 2): -1, (3, 1): -1, (4, 0): 1})
    pg = newton_polygon(weierstrass_prepare(w, 2, 8))
    assert [(e.start, e.end) for e in pg.edges] == [((0, 3), (1, 2)), ((1, 2), (4, 0))]


def test_polygon_requires_bivariate_and_nonzero_tail():
    wd = weierstrass_prepare(COUNTEREXAMPLE, 3, 8)
    with pytest.raises(DimensionMismatchError):
        newton_polygon(wd)
    w = Polynomial(2, {(0, 2): 1, (1, 1): 1})  # z2^2 + z1*z2: e_2 = 0
    with pytest.raises(DistinguishedVarDividesError):
        newton_polygon(weierstrass_prepare(w, 2, 8))


def test_polygon_verdicts():
    cusp_status = polygon_verdict(newton_polygon(weierstrass_prepare(CUSP, 2, 8)))
    assert cusp_status.kind == "SingularIrreducible"
    assert cusp_status.certificate.kind == "BinomialCoprimeEdge"
    assert (cusp_status.certificate.d, cusp_status.certificate.m) == (2, 3)

    even = Polynomial(2, {(0, 2): 1, (2, 0): -1})
    even_status = polygon_verdict(newton_polygon(weierstrass_prepare(even, 2, 8)))
    assert even_status.kind == "SingularReducible"
    assert even_status.certificate.kind == "BinomialNoncoprimeEdge"
    assert even_status.certificate.gcd == 2

    two_edge = Polynomial(2, {(0, 3): 1, (1, 2): -1, (3, 1): -1, (4, 0): 1})
    te_status = polygon_verdict(newton_polygon(weierstrass_prepare(two_edge, 2, 8)))
    assert te_status.kind == "SingularReducible"
    assert te_status.certificate.kind == "MultiEdgePolygon"
    assert te_status.certificate.edge_count == 2
    assert te_status.factors is None  # polygon verdicts carry no explicit factors

    splits = Polynomial(2, {(0, 2): 1, (1, 1): -3, (2, 0): 2})  # (z2-z1)(z2-2z1)
    sp_status = polygon_verdict(newton_polygon(weierstrass_prepare(splits, 2, 8)))
    assert sp_status.kind == "SingularReducible"
    assert sp_status.certificate.kind == "EdgePolynomialSplits"
    # edge polynomial 1 - 3*z1 + 2*z1^2 = (1 - z1)(1 - 2*z1)
    assert sp_status.certificate.edge_polynomial == Polynomial(1, {(0,): 1, (1,): -3, (2,): 2})

    power = Polynomial(2, {(0, 2): 1, (1, 1): -2, (2, 0): 1})  # (z2 - z1)^2
    pw_status = polygon_verdict(newton_polygon(weierstrass_prepare(power, 2, 8)))
    assert pw_status.kind == "Undetermined"


def test_polygon_verdict_on_edge_polynomials_of_known_roots():
    # E = lc * prod (x - c_i)^(m_i) with distinct nonzero c_i is, divided by
    # E(0) (the Weierstrass polynomial is monic), the edge polynomial of the
    # germ sum_k E_k z1^k z2^(g-k); one distinct root leaves the germ
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
        if edge.term_count() == 2 or g > 8:
            continue  # binomial edges have their own certificates; g <= N = 8
        f = Polynomial(2, {(m[0], g - m[0]): c for m, c in edge.terms()})
        status = polygon_verdict(newton_polygon(weierstrass_prepare(f, 2, 8)))
        if len(roots) == 1:
            assert status.kind == "Undetermined", edge
        else:
            assert status.kind == "SingularReducible", edge
            assert status.certificate.edge_polynomial * edge.constant_term() == edge
        seen[min(len(roots), 2)] += 1
    assert min(seen.values()) >= 20


# -- analyze_germ ---------------------------------------------------------------------


def test_analyze_unit_iff_nonvanishing():
    status = analyze_germ(GermQuery(COUNTEREXAMPLE, (2, 1, 1), 8))
    assert status.kind == "Unit"
    assert status.certificate.value == -1


def test_analyze_smooth_point():
    status = analyze_germ(GermQuery(COUNTEREXAMPLE, (1, 1, 1), 8))
    assert status.kind == "SmoothIrreducible"
    assert status.certificate.gradient == (-1, -2, 2)


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
    # already caught by the smooth-point check, preferred variable or not.
    f = Polynomial(2, {(0, 1): 1, (2, 0): 1})  # z2 + z1^2, smooth at 0
    status = analyze_germ(GermQuery(f, (0, 0), 8))
    assert status.kind == "SmoothIrreducible"
    status2 = analyze_germ(GermQuery(f, (0, 0), 8, preferred_var=2))
    assert status2.kind == "SmoothIrreducible"


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


@pytest.mark.parametrize(
    "f, point",
    [
        (Polynomial(2, {(0, 2): 1, (9, 0): -1}), (0, 0)),  # z2^2 - z1^9
        (Polynomial(3, {(0, 0, 2): 1, (9, 0, 0): -1, (0, 9, 0): -1}), (0, 0, 0)),
    ],
)
def test_analyze_e_d_truncated_to_zero_is_undetermined(f, point):
    # e_d is nonzero but has order 9 > 8, so it truncates to zero; only the
    # exact f(z', 0) = 0 test may certify DistinguishedVarDivides.
    status = analyze_germ(GermQuery(f, point, 8))
    assert status.kind == "Undetermined"
    assert status.reason.startswith("degree dispatch")


@pytest.mark.parametrize(
    "f, change",
    [
        (Polynomial(2, {(0, 9): 1, (9, 0): 1}), None),  # z2^9 + z1^9
        # z1^9 + z1^4*z2^5 vanishes on the z2 axis; z1 <- z1 + z2 gives order 9
        (Polynomial(2, {(9, 0): 1, (4, 5): 1}), (F(1), F(0))),
    ],
)
def test_analyze_regularity_order_above_truncation_is_undetermined(f, change):
    status = analyze_germ(GermQuery(f, (0, 0), 8))
    assert status.kind == "Undetermined"
    assert status.reason.startswith("prepare: regularity order 9 exceeds")
    assert status.applied_change == change


def test_analyze_shear_exhaustion_is_undetermined():
    # z1^2*z3 - z2*z3^2: every shear (s, s^2) keeps the z3-axis restriction
    # identically zero, so no tried shear makes the germ regular in z3
    f = Polynomial(3, {(2, 0, 1): 1, (0, 1, 2): -1})
    status = analyze_germ(GermQuery(f, (0, 0, 0), 8))
    assert status.kind == "Undetermined"
    assert status.reason.startswith("regularize: no shear among 8 attempts")
    assert status.applied_change is None
    # scan inherits the verdict for its base point and still samples the curve
    report = scan_stability(f, (0, 0, 0), T_LINE, (1, 2), 8)
    assert report.base_status.kind == "Undetermined"
    assert report.base_status.reason.startswith("regularize:")
    assert all(s.status.kind == "SmoothIrreducible" for s in report.samples)
    assert report.verdict == "Inconclusive"


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
        wd = weierstrass_prepare(w, 2, 8)
        quad = quadratic_germ_test(wd)
        try:
            poly_status = polygon_verdict(newton_polygon(wd))
        except DistinguishedVarDividesError:
            continue
        if "Undetermined" in (quad.kind, poly_status.kind):
            continue
        assert quad.is_irreducible_verdict() == poly_status.is_irreducible_verdict()
        decided += 1
    assert decided >= 50


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


def test_scan_requires_curve_through_base_point():
    message = r"curve\(0\) = \(1, 0, 0\) does not pass through the base point \(0, 0, 0\)$"
    with pytest.raises(ValueError, match=message):
        scan_stability(COUNTEREXAMPLE, (0, 0, 0), curve({(0,): 1}, {}, {}), (1,), 8)
    with pytest.raises(ValueError):
        scan_stability(COUNTEREXAMPLE, (0, 0, 0), T_LINE, (), 8)


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
        try:
            status = analyze_germ(GermQuery(f, p, 8))
        except Exception:
            continue  # shear exhaustion on degenerate inputs is acceptable
        assert (status.kind == "Unit") == (f.evaluate(p) != 0)
        if status.kind == "SmoothIrreducible":
            assert f.evaluate(p) == 0
            assert any(c != 0 for c in f.gradient_at(p))
