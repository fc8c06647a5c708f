"""Resultants, discriminants, and the coprimality and discreteness tests they feed.

The resultant of two polynomials in a chosen variable is the determinant
of their Sylvester matrix over the ring of polynomials in the remaining
variables.  It vanishes identically exactly when the two share a factor of
positive degree in that variable.  A nonzero resultant certifies
coprimality of the germs at the center point and at every nearby point at
once; a zero resultant does not mean "not coprime", since the common factor
may be a unit at the point.

No Sylvester matrix is built: every resultant here comes from
`germkit.algebra._subresultant_prs`, which runs the subresultant sequence on
the operands' integer coefficient tables (every division in it is exact over
Z[x]) and returns Polynomials.  When the resultant is zero the same sequence
ends in a multiple of gcd(f, g), which `coprime_at` evaluates at the point.
`matrix_det`, a fraction-free Bareiss determinant on `Polynomial` arithmetic,
stays public for matrices of polynomials; no resultant goes through it.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .algebra import (
    Polynomial,
    _subresultant_prs,
    as_point,
)
from .errors import (
    DegreeTooSmallError,
    NonConstantLeadingCoefficientError,
    ZeroPolynomialError,
)
from .weierstrass import apply_shear, make_regular


class CoprimeReport(Record):
    """Resultant-based coprimality verdict for two germs at a point.

    `resultant_poly` lives in the base variables (the distinguished one is
    eliminated).  A nonzero resultant certifies that the two germs are
    coprime at the point and remain so at every nearby point.  A zero
    resultant means only that g and h share a factor of positive degree;
    the germs are still coprime when that factor is a unit at the point,
    as `z2 - 1` is at the origin.  `vanishing_at_point` records whether
    the witness itself vanishes at the base point, which is what the
    discreteness question hinges on.
    `applied_change` is the shared shear used to make both inputs regular
    (None when no shear was needed).
    """

    resultant_poly: Polynomial
    coprime_germ_at_point: bool
    vanishing_at_point: bool
    applied_change: tuple | None = None


def matrix_det(rows: list) -> Polynomial:
    """Exact determinant of a square matrix of polynomials.

    Fraction-free Bareiss elimination (Bareiss, Math. Comp. 22, 1968) on
    `Polynomial` arithmetic: each step's entries are 2x2 minors divided
    exactly by the previous pivot.
    """
    size = len(rows)
    if size == 0 or any(len(r) != size for r in rows):
        raise ValueError("matrix must be square and non-empty")
    m = [list(row) for row in rows]
    sign = 1
    prev = None
    for k in range(size - 1):
        if m[k][k].is_zero():
            r = next((r for r in range(k + 1, size) if not m[r][k].is_zero()), None)
            if r is None:
                return Polynomial.zero(m[0][0].n)
            m[k], m[r] = m[r], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for i in range(k + 1, size):
            row = m[i]
            for jj in range(k + 1, size):
                num = row[jj] * pivot - row[k] * top[jj]
                # Bareiss guarantee: the previous pivot divides exactly
                row[jj] = num if prev is None else num.exact_div(prev)
        prev = pivot
    return m[-1][-1] * sign


def resultant(f: Polynomial, g: Polynomial, j: int) -> Polynomial:
    """Sylvester resultant of f and g with respect to variable j, exact.

    The result is a polynomial in the same ambient space with variable j
    eliminated; it is zero exactly when f and g share a factor of positive
    degree in variable j.
    """
    return _subresultant_prs(f, g, j)[0]


def discriminant(f: Polynomial, j: int) -> Polynomial:
    """(-1)^(d(d-1)/2) * Res_j(f, df/dz_j) / leading coefficient.

    Requires degree d >= 2 in variable j and a constant (rational) leading
    coefficient.  The normalization makes the monic quadratic case come out
    as a^2 - 4b exactly.
    """
    d = f.degree_in(j)
    if f.is_zero() or d < 2:
        raise DegreeTooSmallError(f"discriminant needs degree >= 2 in z{j}")
    lead = f.coefficients_in(j)[d]
    if lead.total_degree() > 0:
        raise NonConstantLeadingCoefficientError(
            f"leading coefficient in z{j} is not a rational constant"
        )
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return resultant(f, f.derivative(j), j) * (Fraction(sign) / lead.constant_term())


def coprime_at(g: Polynomial, h: Polynomial, p, j: int) -> CoprimeReport:
    """Resultant-witnessed coprimality of the germs of g and h at p.

    Both inputs are shifted so p becomes the origin, then a single shear
    (found on the product g*h, so it serves both) makes them regular in
    variable j. The report's resultant lives in the base variables; when it
    is nonzero the germs are coprime at p and stay coprime at all nearby
    points.  When it is zero, let S = sum S_k z_j^k be the last nonzero
    subresultant, a multiple c(x')*gcd(g, h) with c != 0.  The gcd divides
    g*h, which is regular in z_j, so its content in x' is a unit at 0 and
    its primitive part does not vanish on the z_j-axis; the germs are
    coprime exactly when that primitive part is nonzero at 0, that is when
    ord S_0 = min_k ord S_k (order = lowest total degree, additive over
    products).
    """
    g._check_same_space(h)
    if g.is_zero() or h.is_zero():
        raise ZeroPolynomialError(f"{'first' if g.is_zero() else 'second'} polynomial is zero")
    p = as_point(p, g.n)
    gs = g.shift(p)
    hs = h.shift(p)
    _, report = make_regular(gs * hs, j)
    change = report.applied_change
    if change is not None:
        gs = apply_shear(gs, j, change)
        hs = apply_shear(hs, j, change)
    r, last = _subresultant_prs(gs, hs, j)
    r = r.drop_variable(j)
    return CoprimeReport(
        resultant_poly=r,
        coprime_germ_at_point=last is None
        or last[0].order() == min(c.order() for c in last),
        vanishing_at_point=r.constant_term() == 0,
        applied_change=change,
    )


def zero_set_discrete(R: Polynomial, p) -> bool:
    """Whether the zero set of R is discrete near p.

    R is a polynomial in the base variables (a resultant, typically).  A
    nonvanishing value at p means no zeros nearby at all.  In base
    dimension 1 a nonzero polynomial has isolated zeros.  In base dimension
    >= 2 a nonconstant polynomial vanishing at p vanishes on a positive-
    dimensional set through p, so the answer is False; and the zero
    polynomial vanishes everywhere.
    """
    p = as_point(p, R.n)
    if R.is_zero():
        return False
    if R.evaluate(p) != 0:
        return True
    return R.n <= 1
