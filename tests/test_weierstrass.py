"""Regularity, linear shears, and Weierstrass preparation."""

import math
import random
from fractions import Fraction

import pytest

from germkit.algebra import Polynomial
from germkit.errors import NotRegularError, OrderTooSmallError, ZeroPolynomialError
from germkit.series import TruncatedSeries
from germkit.weierstrass import (
    MAX_ORDER,
    apply_shear,
    make_regular,
    regular_order,
    weierstrass_prepare,
)
from helpers import random_fraction, random_monomial, random_poly

F = Fraction


def poly3(terms):
    return Polynomial(3, terms)


COUNTEREXAMPLE = poly3({(0, 0, 2): 1, (1, 2, 0): -1})  # z3^2 - z1*z2^2


# -- regularity ----------------------------------------------------------------


def test_regular_order_reads_the_axis_restriction():
    rep = regular_order(COUNTEREXAMPLE, 3)
    assert rep.regular and rep.order == 2
    rep = regular_order(COUNTEREXAMPLE, 1)
    assert not rep.regular and rep.order == math.inf


def test_regular_order_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        regular_order(Polynomial.zero(2), 1)


def test_apply_shear_substitutes_multiples_of_the_distinguished_var():
    f = Polynomial(2, {(1, 1): 1})  # z1*z2
    g = apply_shear(f, 2, (F(1), F(0)))  # z1 <- z1 + z2
    assert g == Polynomial(2, {(1, 1): 1, (0, 2): 1})


def test_make_regular_identity_when_already_regular():
    g, rep = make_regular(COUNTEREXAMPLE, 3)
    assert g == COUNTEREXAMPLE
    assert rep.regular and rep.order == 2
    assert rep.applied_change is None


def test_make_regular_finds_a_shear_for_degenerate_axis():
    f = Polynomial(2, {(1, 1): 1})  # z1*z2 vanishes on the z2 axis
    g, rep = make_regular(f, 2)
    assert rep.regular and rep.order == 2
    assert rep.applied_change == (F(1), F(0))
    assert regular_order(g, 2).order == 2


def test_make_regular_shears_the_kernel_of_the_power_pattern():
    # every shear z1 <- z1 + a*z3, z2 <- z2 + a^2*z3 keeps the z3-axis
    # restriction identically zero; with L = z1^2 - z2 at z3 = 1, the search
    # keeps c1 = 0 (L stays -z2) and takes c2 = 1, the least value with L != 0
    f = poly3({(2, 0, 1): 1, (0, 1, 2): -1})  # z1^2*z3 - z2*z3^2
    g, rep = make_regular(f, 3)
    assert rep.applied_change == (F(0), F(1), F(0))
    assert g == apply_shear(f, 3, rep.applied_change)
    assert rep.regular and rep.order == 3


def _random_form(rng, n, m, avoid=None):
    """A nonzero form of degree m in n variables without the monomial `avoid`."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            cuts = sorted(rng.randint(0, m) for _ in range(n - 1))
            mono = tuple(b - a for a, b in zip([0] + cuts, cuts + [m]))
            if mono != avoid:
                terms[mono] = random_fraction(rng, -3, 3, 3)
        form = Polynomial(n, terms)
        if not form.is_zero():
            return form


def _form_vanishing_at_axis(rng, n, j, m):
    """A nonzero form of degree m in n variables that vanishes at e_j.

    Half of them are z_i * (z_i - z_j) * ... * (z_i - (k-1)*z_j) times a
    form, which vanishes whenever z_j = 1 and z_i is in 0..k-1, so the
    shear search has to go up to c_i >= k.
    """
    axis = tuple(m if i == j else 0 for i in range(1, n + 1))
    if rng.random() < 0.5:
        return _random_form(rng, n, m, avoid=axis)
    i = rng.choice([i for i in range(1, n + 1) if i != j])
    k = rng.randint(1, m)
    zi, zj = Polynomial.variable(n, i), Polynomial.variable(n, j)
    form = _random_form(rng, n, m - k)
    for a in range(k):
        form = form * (zi - zj * a)
    return form


def test_make_regular_reaches_the_lowest_degree_on_germs_not_regular():
    # forms that vanish at e_j, plus higher terms off the z_j axis: the germ
    # is not regular in z_j, and the one shear must make it regular of order
    # exactly its lowest degree m, with every coefficient in 0..m
    rng = random.Random(304)
    largest = []
    for _ in range(150):
        n = rng.randint(2, 4)
        j = rng.randint(1, n)
        m = rng.randint(1, 4)
        f = _form_vanishing_at_axis(rng, n, j, m)
        for _ in range(rng.randint(0, 3)):
            mono = list(random_monomial(rng, n, m + 3))
            mono[j - 1] = 0
            if sum(mono) > m:
                f = f + Polynomial.monomial(n, mono, random_fraction(rng, -3, 3, 3))
        assert not regular_order(f, j).regular
        g, rep = make_regular(f, j)
        change = rep.applied_change
        assert rep.regular and rep.order == m == f.order()
        assert change[j - 1] == 0 and all(c in range(m + 1) for c in change)
        assert g == apply_shear(f, j, change)
        largest.append(max(change))
    # the search goes past 1, where a shear by all ones fails, on about a fifth
    assert sum(c >= 2 for c in largest) >= 20


# -- preparation: pinned examples ------------------------------------------------


def test_prepare_counterexample_at_origin():
    wd = weierstrass_prepare(COUNTEREXAMPLE, 3, 8)
    assert wd.degree == 2
    assert wd.distinguished_var == 3
    assert wd.truncation_order == 8
    e1, e2 = wd.coefficients
    assert e1.body.is_zero()
    assert e2.body == Polynomial(2, {(1, 2): -1})  # -z1*z2^2 in (z1, z2)
    assert wd.unit.body == Polynomial.constant(3, 1)
    assert wd.weierstrass_polynomial() == COUNTEREXAMPLE


def test_prepare_shifted_counterexample():
    shifted = COUNTEREXAMPLE.shift((1, 0, 0))  # z3^2 - (1+z1)*z2^2
    wd = weierstrass_prepare(shifted, 3, 8)
    assert wd.degree == 2
    e1, e2 = wd.coefficients
    assert e1.body.is_zero()
    assert e2.body == Polynomial(2, {(0, 2): -1, (1, 2): -1})
    assert wd.unit.body == Polynomial.constant(3, 1)
    assert wd.multiply_back() == TruncatedSeries(shifted, 8)


def test_prepare_with_nontrivial_unit():
    # f = z2 + z1*z2^2 + z1^2 is z2-regular of order 1 with a genuine unit.
    f = Polynomial(2, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    wd = weierstrass_prepare(f, 2, 8)
    assert wd.degree == 1
    assert wd.unit.constant_term() == 1
    (e1,) = wd.coefficients
    assert e1.body.evaluate((F(0),)) == 0
    assert wd.multiply_back() == TruncatedSeries(f, 8)
    # e_1's lowest term: w = z2 + z1^2 + higher corrections
    assert e1.body.truncate(2) == Polynomial(1, {(2,): 1})


def test_prepare_errors():
    with pytest.raises(NotRegularError):
        weierstrass_prepare(Polynomial(2, {(1, 1): 1}), 2, 8)  # z1*z2 not regular
    with pytest.raises(NotRegularError):
        weierstrass_prepare(Polynomial.constant(2, 5), 2, 8)  # unit, order 0
    with pytest.raises(OrderTooSmallError):
        weierstrass_prepare(COUNTEREXAMPLE, 3, 1)  # N < d
    with pytest.raises(ValueError, match=f"truncation order must be at most {MAX_ORDER}"):
        weierstrass_prepare(COUNTEREXAMPLE, 3, MAX_ORDER + 1)


# -- preparation: property suite -------------------------------------------------


def test_prepare_invariants_on_random_regular_polynomials():
    rng = random.Random(301)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 5, 6, nonzero=True)
        if f.constant_term() != 0:
            continue  # units are prepared trivially; not the interesting case
        try:
            g, rep = make_regular(f, n)
            wd = weierstrass_prepare(g, n, 8)
        except (NotRegularError, OrderTooSmallError):
            continue
        d = wd.degree
        assert d == rep.order
        # u is a unit, e_i vanish at the origin
        assert wd.unit.constant_term() != 0
        origin = tuple(F(0) for _ in range(n - 1))
        for e in wd.coefficients:
            assert e.body.evaluate(origin) == 0
        # w restricted to the distinguished axis is exactly zn^d
        w = wd.weierstrass_polynomial()
        axis = [F(0)] * n
        probe = F(3, 2)
        axis[n - 1] = probe
        assert w.evaluate(tuple(axis)) == probe**d
        # u*w = f mod total degree 8
        assert wd.multiply_back() == TruncatedSeries(g, 8)
        checked += 1


def _assert_unique_preparation(wd, g, N):
    """The invariants that determine a preparation: unit(0) != 0, every
    e_i(0) = 0, and u * w = g through total degree N."""
    assert wd.unit.constant_term() != 0
    origin = (F(0),) * (g.n - 1)
    for e in wd.coefficients:
        assert e.body.evaluate(origin) == 0
    assert wd.multiply_back() == TruncatedSeries(g, N)


def test_prepare_invariants_in_any_variable_up_to_order_12():
    rng = random.Random(302)
    checked = 0
    while checked < 24:
        n = rng.randint(2, 4)
        j = rng.randint(1, n - 1)  # not the last variable
        N = rng.randint(2, 12)
        f = random_poly(rng, n, 4, 6, nonzero=True)
        f = f - f.constant_term()
        if f.is_zero():
            continue
        try:
            g, rep = make_regular(f, j)
            wd = weierstrass_prepare(g, j, N)
        except OrderTooSmallError:
            continue
        assert wd.degree == rep.order and wd.distinguished_var == j
        _assert_unique_preparation(wd, g, N)
        checked += 1


def test_prepare_invariants_on_sparse_binomial_germs():
    # unit * z_j^d + c * z^alpha: a handful of slices hold terms at the start,
    # so most slices up to order 12 are filled only by pushed products
    rng = random.Random(303)
    for _ in range(30):
        n = rng.randint(2, 4)
        j = rng.randint(1, n)
        d = rng.randint(1, 4)
        alpha = [rng.randint(0, 3) for _ in range(n)]
        alpha[j - 1] = rng.randint(0, d - 1)
        if sum(alpha) == alpha[j - 1]:
            alpha[j % n] += 1  # keep z^alpha off the z_j axis
        head = [0] * n
        head[j - 1] = d
        terms = {tuple(head): random_fraction(rng, 1, 9),
                 tuple(alpha): random_fraction(rng, 1, 9)}
        for k in rng.sample([i for i in range(n) if i != j - 1], min(2, n - 1)):
            tail = list(head)
            tail[k] += 1
            terms[tuple(tail)] = random_fraction(rng)  # unit terms z_j^d * z_k
        g = Polynomial(n, terms)
        N = 12 if n < 4 else 10
        wd = weierstrass_prepare(g, j, N)
        assert wd.degree == d
        _assert_unique_preparation(wd, g, N)


def test_prepare_is_deterministic():
    f = Polynomial(2, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    a = weierstrass_prepare(f, 2, 8)
    b = weierstrass_prepare(f, 2, 8)
    assert a.unit == b.unit
    assert a.coefficients == b.coefficients


def test_prepare_respects_truncation_order_monotonicity():
    # Preparing at a higher order refines, never contradicts, a lower order.
    f = Polynomial(2, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    low = weierstrass_prepare(f, 2, 5)
    high = weierstrass_prepare(f, 2, 10)
    assert low.degree == high.degree
    for el, eh in zip(low.coefficients, high.coefficients):
        assert eh.body.truncate(low.truncation_order) == el.body
    assert high.unit.body.truncate(5) == low.unit.body
