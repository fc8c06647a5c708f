"""Formal power series truncated at a total-degree order.

A TruncatedSeries is a polynomial body plus an order N; terms of total
degree above N are discarded by every operation.  It is the finite,
exactly-computable stand-in for a convergent power series germ: two germs
agree "to order N" exactly when their TruncatedSeries representatives at
order N are equal.

Products never form a term above the order; they run on the integer
product kernel of `germkit.algebra` (`_truncated_product`), which clears
each operand's denominators once and divides the product of the two
scales out once per output term.  Unit inverse and unit square root are
one pass of J. C. P. Miller's power recurrence (`algebra._unit_power`):
the degree-k part of a power of a unit follows from the lower parts, on
integer tables with one Fraction per output term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .algebra import Polynomial, _truncated_product, _unit_power, rational_sqrt
from .errors import DimensionMismatchError, NotAUnitError

Scalar = Union[int, Fraction]


class TruncatedSeries:
    """Immutable power series known exactly up to a total-degree order."""

    __slots__ = ("body", "order")

    def __init__(self, body: Polynomial, order: int):
        if order < 1:
            raise ValueError("truncation order must be a positive integer")
        object.__setattr__(self, "body", body.truncate(order))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def constant(cls, n: int, value: Scalar, order: int) -> "TruncatedSeries":
        return cls(Polynomial.constant(n, value), order)

    @property
    def n(self) -> int:
        return self.body.n

    def constant_term(self) -> Fraction:
        return self.body.constant_term()

    def is_unit(self) -> bool:
        return self.constant_term() != 0

    def truncate(self, order: int) -> "TruncatedSeries":
        """Pass to a coarser (or equal) order."""
        if order > self.order:
            raise ValueError(
                f"cannot refine order {self.order} to {order}: the extra terms are unknown"
            )
        return TruncatedSeries(self.body, order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.body == other.body

    __hash__ = None

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.body!r}, order={self.order})"

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            if other.n != self.n:
                raise DimensionMismatchError(
                    f"series live in {self.n} and {other.n} variables"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries.constant(self.n, other, self.order)
        return NotImplemented

    def __add__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedSeries(self.body + other.body, min(self.order, other.order))

    __radd__ = __add__

    def __sub__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedSeries(self.body - other.body, min(self.order, other.order))

    def __rsub__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-self.body, self.order)

    def __mul__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        return _series(_truncated_product(self.body, other.body, order), order)

    __rmul__ = __mul__


def _series(body: Polynomial, order: int) -> TruncatedSeries:
    """Wrap a body known to hold no term above the order (no re-truncation)."""
    s = object.__new__(TruncatedSeries)
    object.__setattr__(s, "body", body)
    object.__setattr__(s, "order", order)
    return s


def ts_inverse(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a unit: a * result = 1 mod order.

    It is (1/c) * (a/c)^(-1), c = a(origin), by Miller's power recurrence.
    """
    c = a.constant_term()
    if c == 0:
        raise NotAUnitError("constant term is zero; the series has no inverse")
    return _series(_unit_power(a.body, a.order, -1, 1, 1 / c), a.order)


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
    return _series(_unit_power(a.body, a.order, 1, 2, root), a.order)
