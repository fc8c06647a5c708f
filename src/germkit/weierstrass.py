"""Regularity detection, regularizing shears, and Weierstrass preparation.

A germ f with f(0) = 0 is regular of order d in the variable z_j when the
one-variable restriction t -> f(0,..,t,..,0) vanishes to order exactly d.
For such f the preparation f = u * w holds near the origin, with u a unit
and w = z_j^d + e_1*z_j^(d-1) + ... + e_d a polynomial in z_j whose
coefficients e_i are series in the remaining variables vanishing at 0.

The preparation here is computed slice by slice: group terms by their
exponent pattern beta in the non-distinguished variables and solve

    f_beta = u_beta * t^d + u_0 * w_beta + sum over splits of beta

in increasing total degree |beta|.  Every slice is an exact univariate
polynomial in t, so the solve needs no intermediate truncation; only the
assembled outputs are cut at the requested order N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import inf

from .algebra import Monomial, Polynomial, as_rational
from .errors import (
    NotRegularError,
    OrderTooSmallError,
    ShearExhaustedError,
    ZeroPolynomialError,
)
from .series import TruncatedSeries

# Shear scale factors tried by make_regular, in order.  Attempt k uses the
# coefficient pattern (s, s^2, s^3, ...) with s = _SHEAR_SCALES[k]; distinct
# powers are needed because patterns with equal entries leave polynomials
# like (z1 - z2)^2 degenerate for every scale.
_SHEAR_SCALES = (0, 1, -1, 2, -2, 3, -3, 4)


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of a regularity probe in one distinguished variable.

    `order` is the vanishing order of the restriction to the distinguished
    axis (+inf when the restriction is identically zero).  `applied_change`
    records the shear that produced the probed polynomial: entry i-1 is the
    coefficient c_i in z_i <- z_i + c_i * z_j (None when no change was
    applied).
    """

    var: int
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
        return RegularityReport(var=j, regular=False, order=inf)
    return RegularityReport(var=j, regular=True, order=min(axis))


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
    """Find a linear shear making f regular of finite order in z_j.

    Attempt k applies z_i <- z_i + c_i * z_j with c_i = s^r, where s is the
    k-th entry of the scale sequence 0, 1, -1, 2, -2, 3, -3, 4 and r ranks
    the non-distinguished variables in index order.  The first attempt is
    the identity, so already-regular inputs come back unchanged, with
    applied_change None.  Raises when every scale fails; since germ
    structure is preserved by any invertible linear change, a recorded
    shear never affects the classification questions asked downstream.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot regularize the zero polynomial")
    n = f.n
    for s in _SHEAR_SCALES:
        scale = as_rational(s)
        coeffs = None
        if scale != 0:
            # z_i has rank i below the distinguished index and i - 1 above it
            coeffs = tuple(
                Fraction(0) if i == j else scale ** (i if i < j else i - 1)
                for i in range(1, n + 1)
            )
        candidate = f if coeffs is None else apply_shear(f, j, coeffs)
        report = regular_order(candidate, j)
        if report.regular:
            return candidate, replace(report, applied_change=coeffs)
    raise ShearExhaustedError(
        f"no shear among {len(_SHEAR_SCALES)} attempts made the polynomial regular in z{j}"
    )


def weierstrass_prepare(f: Polynomial, j: int, N: int) -> WeierstrassData:
    """Compute f = unit * w with w a Weierstrass polynomial in z_j, mod degree N.

    Requires f(origin) = 0 and f regular of finite order d in z_j, with
    N >= d.  The unit and the coefficient series e_i are exact in every
    term of total degree <= N; terms beyond N are discarded.
    """
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
    axis = f_slices.get(zero_beta, {})
    u0 = {k - d: c for k, c in axis.items()}  # exact: t^d divides the axis slice
    u0_inv = _uni_inverse(u0, d)

    u_slices: dict[Monomial, dict[int, Fraction]] = {zero_beta: u0}
    w_slices: dict[Monomial, dict[int, Fraction]] = {}
    for level in range(1, N + 1):
        for beta in _compositions(level, n - 1):
            q = dict(f_slices.get(beta, {}))
            for gamma, w_gamma in w_slices.items():
                if gamma != beta and all(g <= b for g, b in zip(gamma, beta)):
                    delta = tuple(b - g for b, g in zip(beta, gamma))
                    _sub_product(q, u_slices.get(delta, {}), w_gamma)
            w_beta = _uni_mul_mod(q, u0_inv, d)
            _sub_product(q, u0, w_beta)
            # q is now divisible by t^d: the low part cancelled exactly
            u_slices[beta] = {k - d: c for k, c in q.items() if k >= d}
            if w_beta:
                w_slices[beta] = w_beta

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
    n = f.n
    out: dict[int, Fraction] = {}
    for mono, coeff in f.terms():
        if all(e == 0 for i, e in enumerate(mono) if i != j - 1):
            out[mono[j - 1]] = coeff
    return out


def _uni_inverse(a: dict[int, Fraction], k: int) -> dict[int, Fraction]:
    """Inverse of a unit univariate series, mod t^k."""
    c0 = a.get(0, Fraction(0))
    out: dict[int, Fraction] = {}
    if k <= 0:
        return out
    out[0] = 1 / c0
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


def _compositions(total: int, parts: int):
    """All exponent tuples of the given length summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
