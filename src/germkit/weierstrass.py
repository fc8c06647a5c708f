"""Regularity detection, regularizing shears, and Weierstrass preparation.

A germ f with f(0) = 0 is regular of order d in the variable z_j when the
one-variable restriction t -> f(0,..,t,..,0) vanishes to order exactly d.
For such f the preparation f = u * w holds near the origin, with u a unit
and w = z_j^d + e_1*z_j^(d-1) + ... + e_d a polynomial in z_j whose
coefficients e_i are series in the remaining variables vanishing at 0.

The preparation here is computed slice by slice: group terms by their
exponent pattern beta in the non-distinguished variables and solve

    f_beta = u_beta * t^d + u_0 * w_beta + sum of u_delta * w_gamma
             over delta + gamma = beta with delta, gamma != 0

for u_beta and w_beta (w_beta of degree below d in t).  The sum is pushed,
not gathered: once a slice is solved, its product with every solved slice
of the other kind is subtracted into the pending slice at the sum of the
two patterns, so each product is formed exactly once, when the later of
its two factors is solved.  Pending slices are solved level by level in
total degree |beta| <= N, and a slice that holds no terms is skipped.
Every slice is an exact univariate polynomial in t, so the solve needs no
intermediate truncation; only the assembled outputs are cut at the
requested order N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import inf
from operator import add

from .algebra import Monomial, Polynomial, as_rational
from .errors import NotRegularError, OrderTooSmallError, ZeroPolynomialError
from .series import TruncatedSeries

# The largest truncation order accepted.  Series work grows steeply with it:
# a dense 4-variable germ takes seconds at order 32 and over a minute at 64.
MAX_ORDER = 32


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of a regularity probe in one distinguished variable.

    `order` is the vanishing order of the restriction to the distinguished
    axis (+inf when the restriction is identically zero).  `applied_change`
    records the shear that produced the probed polynomial: entry i-1 is the
    coefficient c_i in z_i <- z_i + c_i * z_j (None when no change was
    applied).
    """

    regular: bool
    order: int | float
    applied_change: tuple | None = None


@dataclass(frozen=True)
class WeierstrassData:
    """Unit times Weierstrass polynomial decomposition at a fixed order.

    w = t^degree + coefficients[0]*t^(degree-1) + ... + coefficients[-1]
    with t the distinguished variable; each coefficients[i-1] is e_i, a
    series in the other n-1 variables vanishing at the origin.  The unit
    and the e_i are exact through total degree `truncation_order`, and
    unit * w reproduces the input through that order.
    """

    degree: int
    coefficients: tuple  # (e_1, ..., e_d), TruncatedSeries in n-1 variables
    unit: TruncatedSeries  # n variables, unit(origin) != 0
    distinguished_var: int
    truncation_order: int

    @property
    def n(self) -> int:
        return self.unit.n

    def weierstrass_polynomial(self) -> Polynomial:
        """w as an n-variable polynomial (order-N representative of the germ)."""
        j, d, n = self.distinguished_var, self.degree, self.n
        w = Polynomial.variable(n, j) ** d
        for i, e in enumerate(self.coefficients, start=1):
            embedded = e.body.insert_variable(j)
            w = w + embedded * Polynomial.variable(n, j) ** (d - i)
        return w

    def multiply_back(self) -> TruncatedSeries:
        """unit * w at the truncation order; equals the input germ mod N."""
        w = TruncatedSeries(self.weierstrass_polynomial(), self.truncation_order)
        return self.unit * w


def regular_order(f: Polynomial, j: int) -> RegularityReport:
    """Vanishing order of f restricted to the z_j axis.

    The restriction keeps exactly the terms whose other exponents are all
    zero.  Order 0 means f(origin) != 0; +inf (regular=False) means the
    restriction vanishes identically.
    """
    if f.is_zero():
        raise ZeroPolynomialError("regularity is undefined for the zero polynomial")
    axis = _axis_slice(f, j)
    if not axis:
        return RegularityReport(regular=False, order=inf)
    return RegularityReport(regular=True, order=min(axis))


def apply_shear(f: Polynomial, j: int, coeffs) -> Polynomial:
    """Substitute z_i <- z_i + coeffs[i-1] * z_j for every variable i != j."""
    n = f.n
    coeffs = tuple(as_rational(c) for c in coeffs)
    if len(coeffs) != n:
        raise ValueError(f"expected {n} shear coefficients, got {len(coeffs)}")
    zj = Polynomial.variable(n, j)
    out = f
    for i in range(1, n + 1):
        if i != j and coeffs[i - 1] != 0:
            out = out.substitute(i, Polynomial.variable(n, i) + coeffs[i - 1] * zj)
    return out


def make_regular(f: Polynomial, j: int) -> tuple[Polynomial, RegularityReport]:
    """Find a linear shear making f regular in z_j; it never fails.

    An f already regular in z_j comes back unchanged, with applied_change
    None.  Otherwise let L be the lowest form of f, of degree m.  The shear
    z_i <- z_i + c_i * z_j restricts f to the z_j axis as L(c) * t^m plus
    higher terms, where c has c_j = 1, so any c with L(c) != 0 makes the
    order exactly m.  The c_i are chosen one variable at a time, in index
    order, as the least value in 0..m that keeps L, with z_j = 1 and the
    chosen values put in, a nonzero polynomial.  One always exists: the
    polynomial has degree at most m in z_i, so at most m values of z_i make
    it vanish identically (the grid bound of the Combinatorial
    Nullstellensatz, Alon 1999).  Since germ structure is preserved by any
    invertible linear change, a recorded shear never affects the
    classification questions asked downstream.
    """
    report = regular_order(f, j)
    if report.regular:
        return f, report
    n = f.n
    form, m = f.lowest_homogeneous_form()
    rest = form.substitute(j, Polynomial.constant(n, 1))
    coeffs = [Fraction(0)] * n
    for i in range(1, n + 1):
        if i != j:
            for c in range(m + 1):
                candidate = rest.substitute(i, Polynomial.constant(n, c))
                if not candidate.is_zero():
                    rest, coeffs[i - 1] = candidate, Fraction(c)
                    break
    sheared = apply_shear(f, j, coeffs)
    return sheared, replace(regular_order(sheared, j), applied_change=tuple(coeffs))


def weierstrass_prepare(f: Polynomial, j: int, N: int) -> WeierstrassData:
    """Compute f = unit * w with w a Weierstrass polynomial in z_j, mod degree N.

    Requires f(origin) = 0 and f regular of finite order d in z_j, with
    d <= N <= MAX_ORDER.  The unit and the coefficient series e_i are
    exact in every term of total degree <= N; terms beyond N are discarded.
    """
    if N > MAX_ORDER:
        raise ValueError(f"truncation order must be at most {MAX_ORDER}")
    report = regular_order(f, j)
    if not report.regular:
        raise NotRegularError(
            f"restriction to the z{j} axis vanishes identically; shear first"
        )
    d = report.order
    if d == 0:
        raise NotRegularError(
            "f(origin) != 0: the germ is a unit and needs no preparation"
        )
    if N < d:
        raise OrderTooSmallError(
            f"truncation order {N} is below the regularity order {d}"
        )
    n = f.n

    # Slice f by the exponent pattern in the non-distinguished variables.
    f_slices: dict[Monomial, dict[int, Fraction]] = {}
    for mono, coeff in f.terms():
        beta = mono[: j - 1] + mono[j:]
        f_slices.setdefault(beta, {})[mono[j - 1]] = coeff

    zero_beta = (0,) * (n - 1)
    axis = f_slices.pop(zero_beta, {})
    u0 = {k - d: c for k, c in axis.items()}  # exact: t^d divides the axis slice
    u0_inv = _uni_inverse(u0, d)

    # pending[L][beta] accumulates f_beta minus every product u_delta * w_gamma
    # with delta + gamma = beta pushed so far; slices above level N are dropped
    pending: list[dict[Monomial, dict[int, Fraction]]] = [{} for _ in range(N + 1)]
    for beta, q in f_slices.items():
        if sum(beta) <= N:
            pending[sum(beta)][beta] = q
    u_slices: dict[Monomial, dict[int, Fraction]] = {}
    w_slices: dict[Monomial, dict[int, Fraction]] = {}
    for level in range(1, N + 1):
        for beta, q in pending[level].items():
            if not q:
                continue
            w_beta = _uni_mul_mod(q, u0_inv, d)
            _sub_product(q, u0, w_beta)
            # q is now divisible by t^d: the low part cancelled exactly
            u_beta = {k - d: c for k, c in q.items() if k >= d}
            # push each product once, when the later of its two factors is solved
            if w_beta:
                w_slices[beta] = w_beta
                for delta, u_delta in u_slices.items():
                    _push(pending, beta, delta, u_delta, w_beta, N)
            if u_beta:
                u_slices[beta] = u_beta
                for gamma, w_gamma in w_slices.items():
                    _push(pending, beta, gamma, u_beta, w_gamma, N)
    u_slices[zero_beta] = u0

    coeff_terms: list[dict[Monomial, Fraction]] = [{} for _ in range(d)]
    for beta, w_beta in w_slices.items():
        for k, c in w_beta.items():
            coeff_terms[d - 1 - k][beta] = c  # t^k belongs to e_(d-k)
    coefficients = tuple(
        TruncatedSeries(Polynomial(n - 1, terms), N) for terms in coeff_terms
    )

    unit_terms: dict[Monomial, Fraction] = {}
    for beta, u_beta in u_slices.items():
        budget = N - sum(beta)
        for k, c in u_beta.items():
            if k <= budget:
                unit_terms[beta[: j - 1] + (k,) + beta[j - 1 :]] = c
    unit = TruncatedSeries(Polynomial(n, unit_terms), N)

    return WeierstrassData(
        degree=d,
        coefficients=coefficients,
        unit=unit,
        distinguished_var=j,
        truncation_order=N,
    )


def _axis_slice(f: Polynomial, j: int) -> dict[int, Fraction]:
    """Exponent -> coefficient map of f restricted to the z_j axis."""
    out: dict[int, Fraction] = {}
    for mono, coeff in f.terms():
        if all(e == 0 for i, e in enumerate(mono) if i != j - 1):
            out[mono[j - 1]] = coeff
    return out


def _uni_inverse(a: dict[int, Fraction], k: int) -> dict[int, Fraction]:
    """Inverse of a unit univariate series, mod t^k for k >= 1."""
    c0 = a.get(0, Fraction(0))
    out: dict[int, Fraction] = {0: 1 / c0}
    for m in range(1, k):
        acc = Fraction(0)
        for i in range(1, m + 1):
            ai = a.get(i)
            if ai is not None and (m - i) in out:
                acc += ai * out[m - i]
        if acc != 0:
            out[m] = -acc / c0
    return out


def _uni_mul_mod(a: dict[int, Fraction], b: dict[int, Fraction], k: int) -> dict[int, Fraction]:
    """Product of univariate coefficient maps, truncated below t^k."""
    out: dict[int, Fraction] = {}
    for i, ca in a.items():
        if i >= k:
            continue
        for m, cb in b.items():
            if i + m < k:
                acc = out.get(i + m, Fraction(0)) + ca * cb
                if acc == 0:
                    out.pop(i + m, None)
                else:
                    out[i + m] = acc
    return out


def _sub_product(q: dict[int, Fraction], a: dict[int, Fraction], b: dict[int, Fraction]) -> None:
    """q -= a*b, exact full convolution, in place."""
    for i, ca in a.items():
        for m, cb in b.items():
            key = i + m
            acc = q.get(key, Fraction(0)) - ca * cb
            if acc == 0:
                q.pop(key, None)
            else:
                q[key] = acc


def _push(pending: list, beta: Monomial, other: Monomial, u: dict, w: dict, N: int) -> None:
    """Subtract u * w from the pending slice at beta + other, if within the order."""
    level = sum(beta) + sum(other)
    if level <= N:
        target = tuple(map(add, beta, other))
        _sub_product(pending[level].setdefault(target, {}), u, w)
