"""Regularity, linear shears, and Weierstrass preparation."""

import math
import random
from fractions import Fraction
from operator import add

import pytest

from germkit.algebra import Polynomial
from germkit.errors import (
    NotRegularError,
    OrderTooSmallError,
    VariableIndexError,
    ZeroPolynomialError,
)
from germkit.series import MAX_ORDER, TruncatedSeries
from germkit.weierstrass import (
    WeierstrassData,
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


@pytest.mark.parametrize("constant", [0, 1])
@pytest.mark.parametrize("j", [0, 3, -1])
def test_a_variable_index_outside_the_space_is_an_error(j, constant):
    # z2^2 - z1^3 has n = 2: index 0, n + 1 and -1 name no variable, and a
    # negative index must not wrap around to the last exponent
    f = Polynomial(2, {(0, 2): 1, (3, 0): -1, (0, 0): constant})
    with pytest.raises(VariableIndexError, match=f"variable index {j} outside 1..2"):
        regular_order(f, j)
    with pytest.raises(VariableIndexError):
        make_regular(f, j)
    with pytest.raises(VariableIndexError):
        weierstrass_prepare(f, j, 8)


def test_apply_shear_substitutes_multiples_of_the_distinguished_var():
    f = Polynomial(2, {(1, 1): 1})  # z1*z2
    g = apply_shear(f, 2, (F(1), F(0)))  # z1 <- z1 + z2
    assert g == Polynomial(2, {(1, 1): 1, (0, 2): 1})


def test_apply_shear_rejects_a_coefficient_on_the_distinguished_var():
    # z_j <- z_j + c*z_j is no shear: the 5 used to be dropped without a word
    message = "shear coefficient 3, on z3 itself, must be 0, got 5$"
    with pytest.raises(ValueError, match=message):
        apply_shear(COUNTEREXAMPLE, 3, (0, 0, 5))
    assert apply_shear(COUNTEREXAMPLE, 3, (0, 0, 0)) == COUNTEREXAMPLE


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



def test_make_regular_reports_the_order_of_the_sheared_germ():
    # after a shear the report's order is the lowest degree m, by the
    # L(c) * t^m argument, with no second probe; a probe of the sheared germ
    # agrees, also when terms above degree m land on the axis (then no shear)
    rng = random.Random(305)
    sheared = 0
    for _ in range(150):
        n, m = rng.randint(2, 4), rng.randint(1, 4)
        j = rng.randint(1, n)
        f = _form_vanishing_at_axis(rng, n, j, m)
        for _ in range(rng.randint(0, 4)):
            mono = random_monomial(rng, n, m + 3)
            if sum(mono) > m:
                f = f + Polynomial.monomial(n, mono, random_fraction(rng, -3, 3, 3))
        g, rep = make_regular(f, j)
        assert rep.order == regular_order(g, j).order
        if rep.applied_change is not None:
            assert rep.order == m
            sheared += 1
    assert sheared >= 100

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
    assert wd.weierstrass_polynomial == COUNTEREXAMPLE


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
    message = f"truncation order must be at least 1 and at most {MAX_ORDER}"
    with pytest.raises(ValueError, match=message):
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
        w = wd.weierstrass_polynomial
        # w = zn^d + e_1*zn^(d-1) + ... + e_d, the e_i read off as coefficients
        t = Polynomial.variable(n, n)
        assert w == sum((e.body.insert_variable(n) * t ** (d - i)
                         for i, e in enumerate(wd.coefficients, start=1)), t ** d)
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


# -- preparation: the slice algorithm as a reference -----------------------------


def ref_prepare(f, j, N):
    """Weierstrass preparation slice by slice, an independent reference.

    Terms are grouped by their exponent pattern beta in the variables other
    than t = z_j, and each slice, an exact univariate Fraction polynomial
    in t, is solved from

        f_beta = u_beta * t^d + u_0 * w_beta + sum of u_delta * w_gamma
                 over delta + gamma = beta with delta, gamma != 0.

    Once a slice is solved, its product with every solved slice of the other
    kind is subtracted into the pending slice at the sum of the patterns.
    Only the assembled outputs are cut at N.
    """
    n = f.n
    slices = {}
    for mono, coeff in f.terms():
        slices.setdefault(mono[: j - 1] + mono[j:], {})[mono[j - 1]] = coeff
    zero_beta = (0,) * (n - 1)
    axis = slices.pop(zero_beta)
    d = min(axis)
    u0 = {k - d: c for k, c in axis.items()}
    u0_inv = {0: 1 / u0[0]}
    for m in range(1, d):
        acc = sum(u0.get(i, 0) * u0_inv.get(m - i, 0) for i in range(1, m + 1))
        if acc != 0:
            u0_inv[m] = -acc / u0[0]

    def sub_product(q, a, b):
        for i, ca in a.items():
            for m, cb in b.items():
                acc = q.get(i + m, 0) - ca * cb
                if acc == 0:
                    q.pop(i + m, None)
                else:
                    q[i + m] = acc

    pending = [{} for _ in range(N + 1)]
    for beta, q in slices.items():
        if sum(beta) <= N:
            pending[sum(beta)][beta] = q

    def push(beta, other, u, w):
        if sum(beta) + sum(other) <= N:
            target = tuple(map(add, beta, other))
            sub_product(pending[sum(target)].setdefault(target, {}), u, w)

    u_slices, w_slices = {}, {}
    for level in range(1, N + 1):
        for beta, q in pending[level].items():
            if not q:
                continue
            w_beta = {}
            for i, ca in q.items():
                for m, cb in u0_inv.items():
                    if i + m < d:
                        w_beta[i + m] = w_beta.get(i + m, 0) + ca * cb
            w_beta = {k: c for k, c in w_beta.items() if c != 0}
            sub_product(q, u0, w_beta)
            u_beta = {k - d: c for k, c in q.items() if k >= d}
            if w_beta:
                w_slices[beta] = w_beta
                for delta, u_delta in u_slices.items():
                    push(beta, delta, u_delta, w_beta)
            if u_beta:
                u_slices[beta] = u_beta
                for gamma, w_gamma in w_slices.items():
                    push(beta, gamma, u_beta, w_gamma)
    u_slices[zero_beta] = u0

    coeff_terms = [{} for _ in range(d)]
    for beta, w_beta in w_slices.items():
        for k, c in w_beta.items():
            coeff_terms[d - 1 - k][beta] = c
    unit_terms = {}
    for beta, u_beta in u_slices.items():
        for k, c in u_beta.items():
            if sum(beta) + k <= N:
                unit_terms[beta[: j - 1] + (k,) + beta[j - 1 :]] = c
    t = Polynomial.variable(n, j)
    w = t ** d  # t^d + sum of e_i * t^(d-i)
    for i, terms in enumerate(coeff_terms, start=1):
        e = TruncatedSeries(Polynomial(n - 1, terms), N)
        w = w + e.body.insert_variable(j) * t ** (d - i)
    return WeierstrassData(
        degree=d,
        weierstrass_polynomial=w,
        unit=TruncatedSeries(Polynomial(n, unit_terms), N),
        distinguished_var=j,
        truncation_order=N,
    )


def _big_fraction(rng):
    return F(rng.choice([-1, 1]) * rng.randint(1, 2**31 - 1), rng.randint(1, 2**31 - 1))


def _reference_germ(rng, n, j, d, sparse):
    """t^d * unit + off-axis terms, with t = z_j.

    The unit has a t-term and, when n > 1, a z'-term.  A sparse germ has a
    single off-axis term, of t-degree below d, so beyond its level every
    level holds no term of f and is filled only by products.
    """
    def mono(exponents):
        out = [0] * n
        for i, e in exponents.items():
            out[i - 1] += e
        return tuple(out)

    others = [i for i in range(1, n + 1) if i != j]
    terms = {mono({j: d}): _big_fraction(rng), mono({j: d + rng.randint(1, 2)}): _big_fraction(rng)}
    if others:
        terms[mono({j: d, rng.choice(others): 1})] = _big_fraction(rng)
    for _ in range(0 if not others else 1 if sparse else rng.randint(1, 4)):
        alpha = {i: rng.randint(0, 3) for i in others}
        if not any(alpha.values()):
            alpha[rng.choice(others)] = 1
        alpha[j] = rng.randint(0, d - 1 if sparse else d + 1)
        terms[mono(alpha)] = _big_fraction(rng)
    return Polynomial(n, terms)


def test_level_lifting_matches_the_slice_reference():
    # n = 1..5, any j, d = 1..4, N = d..16, denominators up to 2^31 - 1
    rng = random.Random(305)
    for n in range(1, 6):
        for _ in range(24):
            j = rng.randint(1, n)
            d = rng.randint(1, 4)
            N = rng.randint(d, 16)
            f = _reference_germ(rng, n, j, d, sparse=n > 1 and rng.random() < 0.5)
            assert repr(weierstrass_prepare(f, j, N)) == repr(ref_prepare(f, j, N))


# input checks, each case with the exception it raises
BAD_INPUTS = {
    "shear of the wrong length": (lambda: apply_shear(COUNTEREXAMPLE, 3, (1, 0)), ValueError),
}


@pytest.mark.parametrize("call, error", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_inputs_raise_their_error(call, error):
    with pytest.raises(error):
        call()
