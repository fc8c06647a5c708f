"""Regularity detection, regularizing shears, and Weierstrass preparation.

A germ f with f(0) = 0 is regular of order d in the variable z_j when the
one-variable restriction t -> f(0,..,t,..,0) vanishes to order exactly d.
For such f the preparation f = u * w holds near the origin, with u a unit
and w = z_j^d + e_1*z_j^(d-1) + ... + e_d a polynomial in z_j whose
coefficients e_i are series in the remaining variables vanishing at 0.

The preparation compares coefficients level by level.  The level of a
term is its total degree in the variables other than t = z_j, and f_L,
u_L and w_L collect the terms of level L of f, u and w; w_0 = t^d and
every other w_L has degree below d in t.  Levels add under products, so
f = u * w reads

    f_0 = u_0 * t^d
    f_L = u_L * t^d + u_0 * w_L + sum of u_a * w_(L-a) over 0 < a < L

and level L is solved once every level below it is known: with rest =
f_L minus the sum, w_L is the part of rest * u_0^(-1) below t^d, and
u_L = (rest - u_0 * w_L) / t^d is exact: the terms below t^d cancel, so
only the ones above are formed, and shifted down.  Levels that hold no
terms are skipped, and so are products with a zero factor.  Every level
is an exact polynomial, so the solve needs no intermediate truncation;
only the assembled outputs are cut at the requested order N.  The solve is
`germkit.algebra._lift_levels`, on integer tables with one gcd-reduced
denominator per level; the shears run on that module's Horner kernel.
`WeierstrassData` stores the w that the solve returns; the e_i are read off
its rows in t when asked for.
"""

from __future__ import annotations

from math import inf

from ._record import Record
from .algebra import (Polynomial, _axis_order, _check_var, _lift_levels, _shear,
                      _shear_coefficients, as_rational)
from .errors import NotRegularError, OrderTooSmallError, ZeroPolynomialError
from .series import TruncatedSeries, _check_order, ts_inverse


class RegularityReport(Record):
    """Outcome of a regularity probe in one distinguished variable.

    `order` is the vanishing order of the restriction to the distinguished
    axis (+inf when the restriction is identically zero).  `applied_change`
    records the shear that produced the probed polynomial: entry i-1 is the
    coefficient c_i in z_i <- z_i + c_i * z_j (None when no change was
    applied).  `regular` says whether the order is finite.
    """

    order: int | float
    applied_change: tuple | None = None

    @property
    def regular(self) -> bool:
        return self.order != inf


class WeierstrassData(Record):
    """Unit times Weierstrass polynomial decomposition at a fixed order.

    `weierstrass_polynomial` is w = t^degree + e_1*t^(degree-1) + ... + e_d
    in all n variables, with t the distinguished variable; each e_i is a
    series in the other n-1 variables vanishing at the origin, and
    `coefficients` reads (e_1, ..., e_d) off w's rows in t.  The unit and
    the e_i are exact through total degree `truncation_order`, and unit * w
    reproduces the input through that order.
    """

    degree: int
    weierstrass_polynomial: Polynomial  # w, n variables, levels up to the order
    unit: TruncatedSeries  # n variables, unit(origin) != 0
    distinguished_var: int
    truncation_order: int

    @property
    def n(self) -> int:
        return self.unit.n

    @property
    def coefficients(self) -> tuple:
        """(e_1, ..., e_d): e_i is w's coefficient of t^(d-i), a TruncatedSeries in n-1 variables."""
        j, d = self.distinguished_var, self.degree
        rows = self.weierstrass_polynomial.coefficients_in(j)[d - 1::-1]
        return tuple(TruncatedSeries(e.drop_variable(j), self.truncation_order) for e in rows)

    def multiply_back(self) -> TruncatedSeries:
        """unit * w at the truncation order; equals the input germ mod N."""
        return self.unit * TruncatedSeries(self.weierstrass_polynomial, self.truncation_order)


def regular_order(f: Polynomial, j: int) -> RegularityReport:
    """Vanishing order of f restricted to the z_j axis.

    The restriction keeps exactly the terms whose other exponents are all
    zero.  Order 0 means f(origin) != 0; +inf (regular=False) means the
    restriction vanishes identically.  A j outside 1..n raises
    VariableIndexError.
    """
    if f.is_zero():
        raise ZeroPolynomialError("regularity is undefined for the zero polynomial")
    _check_var(j, f.n)
    return RegularityReport(order=_axis_order(f, j))


def apply_shear(f: Polynomial, j: int, coeffs) -> Polynomial:
    """Substitute z_i <- z_i + coeffs[i-1] * z_j for every variable i != j; coeffs[j-1] is 0."""
    n = f.n
    coeffs = tuple(as_rational(c) for c in coeffs)
    if len(coeffs) != n:
        raise ValueError(f"expected {n} shear coefficients, got {len(coeffs)}")
    _check_var(j, n)
    if coeffs[j - 1] != 0:
        raise ValueError(f"shear coefficient {j}, on z{j} itself, must be 0, got {coeffs[j - 1]}")
    return _shear(f, j, coeffs)


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
    form, m = f.lowest_homogeneous_form()
    coeffs = _shear_coefficients(form, j, m)
    sheared = apply_shear(f, j, coeffs)
    return sheared, RegularityReport(order=m, applied_change=tuple(coeffs))


def weierstrass_prepare(f: Polynomial, j: int, N: int) -> WeierstrassData:
    """Compute f = unit * w with w a Weierstrass polynomial in z_j, mod degree N.

    Requires f(origin) = 0 and f regular of finite order d in z_j, with
    d <= N <= MAX_ORDER.  The unit and the coefficient series e_i are
    exact in every term of total degree <= N; terms beyond N are discarded.
    """
    _check_order(N)
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
        raise OrderTooSmallError(f"truncation order {N} is below the regularity order {d}")
    w, u = _lift_levels(f, j, d, N, lambda u0: ts_inverse(TruncatedSeries(u0, d)).body)
    return WeierstrassData(degree=d, weierstrass_polynomial=w, unit=TruncatedSeries(u, N),
                           distinguished_var=j, truncation_order=N)
