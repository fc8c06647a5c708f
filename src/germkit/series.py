"""Formal power series truncated at a total-degree order.

A TruncatedSeries is a polynomial body plus an order N: a value, with no
term of total degree above N.  It is the finite, exactly-computable
stand-in for a convergent power series germ: two germs agree "to order N"
exactly when their TruncatedSeries representatives at order N are equal.
Every verdict is read from exact polynomials; series only print and
multiply back factors, so a series has one product, an inverse and a
square root, and any other arithmetic runs on the bodies (`Polynomial`).

The product never forms a term above the order; it runs on the integer
product kernel of `germkit.algebra` (`_truncated_product`) over the
bodies' stored integer tables, and its denominator is the product of
theirs.  Unit inverse and unit square root are one pass of J. C. P.
Miller's power recurrence (`algebra._unit_power`): the degree-k part of a
power of a unit follows from the lower parts, on integer tables over one
common denominator.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Polynomial, _truncated_product, _unit_power, rational_sqrt
from .errors import DimensionMismatchError, NotAUnitError

# The largest truncation order accepted.  Series work grows steeply with it: the
# square root of 1 + z1 + ... + z4 has 58,905 terms at order 32 (0.4 s, 2-core VM).
MAX_ORDER = 32
DEFAULT_ORDER = 8


def _check_order(order: int, low: int = 1) -> None:
    """The one truncation-order check: every series, GermQuery and weierstrass_prepare run it."""
    if type(order) is not int:
        raise TypeError(f"truncation order must be an int, got {order!r}")
    if not low <= order <= MAX_ORDER:
        raise ValueError(f"truncation order must be at least {low} and at most {MAX_ORDER}")


class TruncatedSeries:
    """Immutable power series known exactly up to a total-degree order."""

    __slots__ = ("body", "order")

    def __init__(self, body: Polynomial, order: int):
        _check_order(order)
        object.__setattr__(self, "body", body.truncate(order))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        return TruncatedSeries, (self.body, self.order)

    @property
    def n(self) -> int:
        return self.body.n

    def constant_term(self) -> Fraction:
        return self.body.constant_term()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.body == other.body

    __hash__ = None

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.body!r}, order={self.order})"

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatchError(f"series live in {self.n} and {other.n} variables")
        order = min(self.order, other.order)
        return TruncatedSeries(_truncated_product(self.body, other.body, order), order)


def ts_inverse(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a unit: a * result = 1 mod order.

    It is (1/c) * (a/c)^(-1), c = a(origin), by Miller's power recurrence.
    """
    c = a.constant_term()
    if c == 0:
        raise NotAUnitError("constant term is zero; the series has no inverse")
    return TruncatedSeries(_unit_power(a.body, a.order, -1, 1, 1 / c), a.order)


def ts_sqrt(a: TruncatedSeries) -> TruncatedSeries | None:
    """Unit square root with positive constant term: result*result = a mod order.

    Returns None when a(origin) is not the square of a rational, which is the
    ConstantNotARationalSquare outcome: a square root still exists over the
    complex numbers when a(origin) != 0, but it cannot be written with
    rational coefficients, so no series is produced.

    The branch choice (positive constant term) makes the result unique; the
    other square root is its negation.  It is sqrt(c) * (a/c)^(1/2),
    c = a(origin), by Miller's power recurrence.
    """
    c = a.constant_term()
    if c == 0:
        raise NotAUnitError("constant term is zero; no unit square root exists")
    root = rational_sqrt(c)
    if root is None:
        return None
    return TruncatedSeries(_unit_power(a.body, a.order, 1, 2, root), a.order)
