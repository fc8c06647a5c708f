"""Formal power series truncated at a total-degree order.

A TruncatedSeries is a polynomial body plus an order N; terms of total
degree above N are discarded by every operation.  It is the finite,
exactly-computable stand-in for a convergent power series germ: two germs
agree "to order N" exactly when their TruncatedSeries representatives at
order N are equal.

Unit inverse and unit square root are computed by Newton iteration, which
doubles the number of correct degrees per step, so even order 16 costs a
handful of polynomial multiplications.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .algebra import Polynomial, as_rational, rational_sqrt
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
        return TruncatedSeries((self.body * other.body).truncate(order), order)

    __rmul__ = __mul__


def ts_inverse(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a unit: a * result = 1 mod order.

    Newton iteration r <- r*(2 - a*r) starting from the inverse of the
    constant term; each step doubles the correct order.
    """
    c = a.constant_term()
    if c == 0:
        raise NotAUnitError("constant term is zero; the series has no inverse")
    n, order = a.n, a.order
    two = TruncatedSeries.constant(n, 2, order)
    r = TruncatedSeries.constant(n, Fraction(1) / c, order)
    for _ in range(order.bit_length()):
        r = r * (two - a * r)
    return r


def ts_sqrt(a: TruncatedSeries) -> TruncatedSeries | None:
    """Unit square root with positive constant term: result*result = a mod order.

    Returns None when a(origin) is not the square of a rational, which is the
    ConstantNotARationalSquare outcome: a square root still exists over the
    complex numbers when a(origin) != 0, but it cannot be written with
    rational coefficients, so no series is produced.

    The branch choice (positive constant term) makes the result unique; the
    other square root is its negation.
    """
    c = a.constant_term()
    if c == 0:
        raise NotAUnitError("constant term is zero; no unit square root exists")
    root = rational_sqrt(c)
    if root is None:
        return None
    n, order = a.n, a.order
    half = Fraction(1, 2)
    r = TruncatedSeries.constant(n, root, order)
    for _ in range(order.bit_length()):
        r = (r + a * ts_inverse(r)) * half
    return r
