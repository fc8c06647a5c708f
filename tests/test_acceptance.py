"""Acceptance gate: one test per shipped claim, one printed line per result.

Criteria 1-4 pin exact values for the central worked examples; criteria 5-7
are randomized property suites with fixed seeds.  Every check is exact
rational arithmetic; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from germkit.algebra import Polynomial
from germkit.elimination import coprime_at, discriminant, resultant, zero_set_discrete
from germkit.errors import NotRegularError
from germkit.germs import (
    GermQuery,
    analyze_germ,
    newton_polygon,
    polygon_verdict,
    scan_stability,
)
from germkit.parsing import format_poly, parse_poly
from germkit.series import TruncatedSeries, ts_inverse, ts_sqrt
from germkit.weierstrass import make_regular, weierstrass_prepare
from helpers import random_fraction, random_monomial, random_poly

F = Fraction

COUNTEREXAMPLE = Polynomial(3, {(0, 0, 2): 1, (1, 2, 0): -1})  # z3^2 - z1*z2^2
CUSP = Polynomial(2, {(0, 2): 1, (3, 0): -1})  # z2^2 - z1^3


def _report(number, label):
    print(f"CRITERION {number} PASS: {label}")


def test_criterion_1_counterexample_reproduction():
    started = time.perf_counter()

    origin = analyze_germ(GermQuery(COUNTEREXAMPLE, (0, 0, 0), 8))
    assert origin.kind == "SingularIrreducible"
    assert origin.certificate.kind == "OddVariableOrder"
    assert origin.certificate.variable == 1 and origin.certificate.order == 1

    for t in (F(1), F(1, 2), F(1, 4), F(1, 8)):
        status = analyze_germ(GermQuery(COUNTEREXAMPLE, (t, 0, 0), 8))
        assert status.kind == "SingularReducible", f"t={t}"

    line = (Polynomial(1, {(1,): 1}), Polynomial.zero(1), Polynomial.zero(1))
    report = scan_stability(
        COUNTEREXAMPLE, (0, 0, 0), line, (1, F(1, 2), F(1, 4), F(1, 8)), 8
    )
    assert report.verdict == "Unstable"

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s, budget is 1s"
    _report(1, "irreducible at origin, reducible on (t,0,0), scan verdict Unstable")


def test_criterion_2_explicit_factorization():
    status = analyze_germ(GermQuery(COUNTEREXAMPLE, (1, 0, 0), 8))
    assert status.kind == "SingularReducible"
    a, b = status.factors

    shifted = COUNTEREXAMPLE.shift((1, 0, 0))
    assert shifted == parse_poly("z3^2 - z2^2 - z1*z2^2")  # z3^2 - (1+z1)*z2^2
    assert a * b == TruncatedSeries(shifted, 8)

    # the square factor r with f = (z3 + z2*r)(z3 - z2*r) and r^2 = 1 + z1:
    # the certificate carries 2r as the square root of the split-off unit
    # 4+4*z1, living in the two remaining variables (z1, z2)
    r = TruncatedSeries(status.certificate.unit_root.body * F(1, 2), 8)
    one_plus_z1 = TruncatedSeries(Polynomial(2, {(0, 0): 1, (1, 0): 1}), 8)
    assert r * r == one_plus_z1

    # r also appears as the z2-part of each factor (shorter by one degree
    # because the factor body was truncated after multiplying by z2)
    z3 = Polynomial.variable(3, 3)
    head = (z3 - a.body).exact_div(Polynomial.variable(3, 2))
    lifted = r.body.insert_variable(3)
    assert head.truncate(7) in (lifted.truncate(7), (-lifted).truncate(7))

    _report(2, "factors multiply back exactly mod degree 8 and r^2 = 1 + z1")


def test_criterion_3_dimension_two_stability_evidence():
    origin = analyze_germ(GermQuery(CUSP, (0, 0), 8))
    assert origin.kind == "SingularIrreducible"

    # polygon certificate for the same germ, read from the exact polynomial
    verdict = polygon_verdict(newton_polygon(CUSP))
    assert verdict.kind == "SingularIrreducible"
    assert verdict.certificate.kind == "BinomialCoprimeEdge"
    assert (verdict.certificate.d, verdict.certificate.m) == (2, 3)

    r = resultant(CUSP, CUSP.derivative(2), 2)
    assert r == Polynomial(2, {(3, 0): -4})  # -4*z1^3

    dropped = r.drop_variable(2)
    assert zero_set_discrete(dropped, (F(0),)) is True

    curve = (Polynomial(1, {(2,): 1}), Polynomial(1, {(3,): 1}))  # (t^2, t^3)
    report = scan_stability(CUSP, (0, 0), curve, (F(1, 2), F(1, 3), F(1, 4)), 8)
    assert all(s.on_locus for s in report.samples)
    assert all(s.status.kind == "SmoothIrreducible" for s in report.samples)
    assert report.verdict == "Stable-evidence"

    _report(3, "cusp: BinomialCoprimeEdge(2,3), discrete resultant, stable scan")


def test_criterion_4_proof_breakdown_witness():
    rep = coprime_at(COUNTEREXAMPLE, COUNTEREXAMPLE.derivative(3), (0, 0, 0), 3)
    assert rep.coprime_germ_at_point is True
    assert rep.resultant_poly == Polynomial(2, {(1, 2): -4})  # -4*z1*z2^2
    assert zero_set_discrete(rep.resultant_poly, (F(0), F(0))) is False
    _report(4, "coprime germs yet non-discrete resultant zero set in dim 3")


def test_criterion_5_weierstrass_property_suite():
    started = time.perf_counter()
    rng = random.Random(20260817)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 5, 6, nonzero=True)
        if f.constant_term() != 0:
            continue
        try:
            g, _ = make_regular(f, n)
            wd = weierstrass_prepare(g, n, 8)
        except NotRegularError:
            continue
        assert wd.multiply_back() == TruncatedSeries(g, 8)
        origin = tuple(F(0) for _ in range(n - 1))
        assert all(e.body.evaluate(origin) == 0 for e in wd.coefficients)
        w = wd.weierstrass_polynomial
        axis = [F(0)] * n
        axis[n - 1] = F(5, 3)
        assert w.evaluate(tuple(axis)) == F(5, 3) ** wd.degree
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 5 took {elapsed:.3f}s, budget is 10s"
    _report(5, f"50 random preparations verified in {elapsed:.2f}s")


def test_criterion_6_elimination_property_suite():
    rng = random.Random(20260818)
    z2 = Polynomial.variable(2, 2)

    def z1_only(max_degree, max_terms):
        return random_poly(rng, 2, max_degree, max_terms).substitute(
            2, Polynomial.zero(2)
        )

    # resultant/specialization commutation on monic instances
    for _ in range(5):
        f = z2 ** rng.randint(1, 3)
        g = z2 ** rng.randint(1, 3)
        for k in range(f.degree_in(2)):
            f = f + z1_only(2, 3) * z2**k
        for k in range(g.degree_in(2)):
            g = g + z1_only(2, 3) * z2**k
        r = resultant(f, g, 2)
        for _ in range(20):
            a = random_fraction(rng, -5, 5, 5)
            fu = [c.evaluate((a, F(0))) for c in f.coefficients_in(2)]
            gu = [c.evaluate((a, F(0))) for c in g.coefficients_in(2)]
            fsp = Polynomial(2, {(0, k): c for k, c in enumerate(fu) if c})
            gsp = Polynomial(2, {(0, k): c for k, c in enumerate(gu) if c})
            assert resultant(fsp, gsp, 2).constant_term() == r.evaluate((a, F(0)))

    # monic quadratic discriminant identity
    for _ in range(50):
        a = z1_only(3, 4)
        b = z1_only(3, 4)
        f = z2 * z2 + a * z2 + b
        assert discriminant(f, 2) == a * a - 4 * b

    # planted common factors force a zero resultant
    planted = 0
    while planted < 10:
        h = z2 - z1_only(2, 2)
        u = random_poly(rng, 2, 2, 3, nonzero=True)
        v = random_poly(rng, 2, 2, 3, nonzero=True)
        f, g = h * u, h * v
        if f.degree_in(2) < 1 or g.degree_in(2) < 1:
            continue
        assert resultant(f, g, 2).is_zero()
        planted += 1

    _report(6, "specialization, quadratic discriminants, planted common factors")


def test_criterion_7_series_and_parser_suites():
    rng = random.Random(20260819)

    # ts_sqrt and ts_inverse identities on random units
    for _ in range(50):
        n = rng.randint(1, 3)
        order = rng.randint(2, 8)
        body = random_poly(rng, n, order, 6)
        c = random_fraction(rng, 1, 9)
        body = body - Polynomial.constant(n, body.constant_term())
        square_unit = TruncatedSeries(body + Polynomial.constant(n, c * c), order)
        root = ts_sqrt(square_unit)
        assert root is not None
        assert root * root == square_unit

        unit = TruncatedSeries(body + Polynomial.constant(n, c), order)
        assert (unit * ts_inverse(unit)).body == Polynomial.constant(n, 1)

    # parse/format round trip
    for _ in range(100):
        n = rng.randint(0, 4)
        terms = {}
        for _ in range(rng.randint(0, 8)):
            terms[random_monomial(rng, n, 6)] = random_fraction(rng)
        p = Polynomial(n, terms)
        assert parse_poly(format_poly(p), var_count=n) == p

    # golden demo bytes
    import io
    from pathlib import Path

    from germkit.cli import run_cli

    out = io.StringIO()
    assert run_cli(["demo", "counterexample"], out, io.StringIO()) == 0
    golden = Path(__file__).parent / "data" / "demo_counterexample.txt"
    assert out.getvalue() == golden.read_text()

    _report(7, "series identities, 100 round trips, golden demo bytes")
