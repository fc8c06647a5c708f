"""Exact sparse multivariate polynomials over the rationals.

A polynomial in n variables z1..zn is a mapping from exponent tuples to
nonzero `fractions.Fraction` coefficients:

    z3^2 - z1*z2^2   (n=3)   ->   {(0, 0, 2): 1, (1, 2, 0): -1}

The representation is canonical: zero coefficients are never stored, every
exponent tuple has length n, and two polynomials are equal exactly when
their term tables are equal.  All values are immutable after construction
and every operation is a pure function, so unrestricted concurrent use is
safe.

Variable indices in the public API are 1-based (`var=3` means z3), matching
the z1..zn naming used by the expression grammar in `germkit.parsing`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    DimensionMismatchError,
    VariableIndexError,
    ZeroPolynomialError,
)

Monomial = tuple  # exponent tuple, one non-negative int per variable
Point = tuple  # coordinate tuple of Fractions
Scalar = Union[int, Fraction]


def as_rational(value) -> Fraction:
    """Coerce an int, string like '3/4', or Fraction to an exact Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


def as_point(values: Sequence, n: int | None = None) -> Point:
    """Coerce a coordinate sequence to a tuple of Fractions of length n."""
    pt = tuple(as_rational(v) for v in values)
    if n is not None and len(pt) != n:
        raise DimensionMismatchError(f"point has {len(pt)} coordinates, expected {n}")
    return pt


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None when no rational root exists."""
    q = as_rational(q)
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def grlex_key(mono: Monomial):
    """Sort key: ascending total degree, then z1-heaviest term first."""
    return (sum(mono), tuple(-e for e in mono))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        if n < 0:
            raise ValueError("variable count must be non-negative")
        table: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != n:
                raise DimensionMismatchError(
                    f"monomial {mono} has length {len(mono)}, expected {n}"
                )
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            c = as_rational(coeff)
            if c != 0:
                acc = table.get(mono)
                c = c if acc is None else acc + c
                if c != 0:
                    table[mono] = c
                elif mono in table:
                    del table[mono]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", table)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, value: Scalar) -> "Polynomial":
        return cls(n, {(0,) * n: as_rational(value)})

    @classmethod
    def variable(cls, n: int, var: int) -> "Polynomial":
        """The polynomial z_var (1-based index)."""
        _check_var(var, n)
        expo = [0] * n
        expo[var - 1] = 1
        return cls(n, {tuple(expo): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, expo: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        return cls(n, {tuple(expo): as_rational(coeff)})

    # -- inspection --------------------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Iterate (monomial, coefficient) pairs in canonical graded order."""
        for mono in sorted(self._terms, key=grlex_key):
            yield mono, self._terms[mono]

    def coefficient(self, expo: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(expo), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.n, Fraction(0))

    def term_count(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int | float:
        """Maximal total degree; -inf for the zero polynomial."""
        if not self._terms:
            return -math.inf
        return max(sum(m) for m in self._terms)

    def degree_in(self, var: int) -> int | float:
        """Maximal exponent of z_var; -inf for the zero polynomial."""
        _check_var(var, self.n)
        if not self._terms:
            return -math.inf
        return max(m[var - 1] for m in self._terms)

    def variable_order(self, var: int) -> int | float:
        """Minimal exponent of z_var over all terms; +inf for the zero polynomial."""
        _check_var(var, self.n)
        if not self._terms:
            return math.inf
        return min(m[var - 1] for m in self._terms)

    def order(self) -> int | float:
        """Minimal total degree over all terms; +inf for the zero polynomial."""
        if not self._terms:
            return math.inf
        return min(sum(m) for m in self._terms)

    def leading_term(self) -> tuple[Monomial, Fraction]:
        """Greatest term in graded-lex order (z1 > z2 > ... within a degree)."""
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        mono = max(self._terms, key=lambda m: (sum(m), m))
        return mono, self._terms[mono]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    __hash__ = None  # mutable-dict backed; identity hashing would be a trap

    def __repr__(self) -> str:
        body = ", ".join(f"{m}: {c}" for m, c in self.terms())
        return f"Polynomial({self.n}, {{{body}}})"

    # -- arithmetic --------------------------------------------------------

    def _check_same_space(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(
                f"polynomials live in {self.n} and {other.n} variables"
            )

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_same_space(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono, Fraction(0)) + coeff
            if acc == 0:
                out.pop(mono, None)
            else:
                out[mono] = acc
        return _raw(self.n, out)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)

    def __neg__(self) -> "Polynomial":
        return _raw(self.n, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = as_rational(other)
            if c == 0:
                return Polynomial.zero(self.n)
            return _raw(self.n, {m: k * c for m, k in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_space(other)
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                acc = out.get(mono, Fraction(0)) + ca * cb
                if acc == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = acc
        return _raw(self.n, out)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.n, other)
        return NotImplemented

    # -- core operations ---------------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point of matching dimension."""
        pt = as_point(point, self.n)
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            term = coeff
            for e, v in zip(mono, pt):
                if e:
                    term *= v**e
            total += term
        return total

    def derivative(self, var: int) -> "Polynomial":
        """Exact partial derivative with respect to z_var (1-based)."""
        _check_var(var, self.n)
        i = var - 1
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            e = mono[i]
            if e == 0:
                continue
            lowered = mono[:i] + (e - 1,) + mono[i + 1 :]
            out[lowered] = out.get(lowered, Fraction(0)) + coeff * e
        return _raw(self.n, {m: c for m, c in out.items() if c != 0})

    def gradient_at(self, point: Sequence) -> tuple[Fraction, ...]:
        """All first partials evaluated at a point."""
        return tuple(self.derivative(i).evaluate(point) for i in range(1, self.n + 1))

    def shift(self, point: Sequence) -> "Polynomial":
        """Recenter at a point: returns g with g(x) = f(point + x) exactly.

        Uses a per-variable Taylor shift (repeated synthetic division), so
        the result is exact whatever the degrees involved.
        """
        pt = as_point(point, self.n)
        terms = self._terms
        for i0, c in enumerate(pt):
            if c != 0 and any(m[i0] for m in terms):
                terms = _taylor_shift_one(terms, i0, c)
        return _raw(self.n, dict(terms))

    def substitute(self, var: int, replacement: "Polynomial") -> "Polynomial":
        """Replace z_var by an arbitrary polynomial (Horner evaluation)."""
        _check_var(var, self.n)
        self._check_same_space(replacement)
        i = var - 1
        by_power: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self._terms.items():
            k = mono[i]
            reduced = mono[:i] + (0,) + mono[i + 1 :]
            row = by_power.setdefault(k, {})
            row[reduced] = row.get(reduced, Fraction(0)) + coeff
        if not by_power:
            return Polynomial.zero(self.n)
        top = max(by_power)
        acc = _raw(self.n, by_power.get(top, {}))
        for k in range(top - 1, -1, -1):
            acc = acc * replacement + _raw(self.n, by_power.get(k, {}))
        return acc

    def truncate(self, max_total_degree: int) -> "Polynomial":
        """Drop every term of total degree above the bound."""
        return _raw(
            self.n,
            {m: c for m, c in self._terms.items() if sum(m) <= max_total_degree},
        )

    def lowest_homogeneous_form(self) -> tuple["Polynomial", int]:
        """All terms of minimal total degree, together with that degree."""
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no lowest form")
        low = min(sum(m) for m in self._terms)
        form = {m: c for m, c in self._terms.items() if sum(m) == low}
        return _raw(self.n, form), low

    def monomial_unit_split(self) -> tuple[Monomial, "Polynomial"] | None:
        """Split f = x^alpha * U with U(0) != 0, when that form exists.

        alpha is the componentwise minimum of the support.  Returns None when
        the quotient still vanishes at the origin (f is not of this form).
        """
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial admits no monomial-unit split")
        alpha = tuple(min(col) for col in zip(*self._terms))
        if alpha not in self._terms:
            return None  # U(0) is the coefficient of x^alpha, so it would be 0
        quotient = {
            tuple(e - a for e, a in zip(mono, alpha)): c
            for mono, c in self._terms.items()
        }
        return alpha, _raw(self.n, quotient)

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact polynomial quotient; raises if the division leaves a remainder."""
        self._check_same_space(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quotient: dict[Monomial, Fraction] = {}
        rem = self
        lead_mono, lead_coeff = divisor.leading_term()
        while not rem.is_zero():
            rmono, rcoeff = rem.leading_term()
            qmono = tuple(a - b for a, b in zip(rmono, lead_mono))
            if any(e < 0 for e in qmono):
                raise ValueError("division is not exact")
            qcoeff = rcoeff / lead_coeff
            quotient[qmono] = quotient.get(qmono, Fraction(0)) + qcoeff
            rem = rem - Polynomial.monomial(self.n, qmono, qcoeff) * divisor
        return _raw(self.n, {m: c for m, c in quotient.items() if c != 0})

    # -- variable-space plumbing --------------------------------------------

    def coefficients_in(self, var: int) -> list["Polynomial"]:
        """Coefficient list with respect to z_var, index k = exponent.

        Entries are polynomials in the same n-variable space with the chosen
        variable's exponent zeroed out.  The list has length degree+1 and is
        empty for the zero polynomial.
        """
        _check_var(var, self.n)
        if not self._terms:
            return []
        i = var - 1
        rows: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self._terms.items():
            reduced = mono[:i] + (0,) + mono[i + 1 :]
            rows.setdefault(mono[i], {})[reduced] = coeff
        top = max(rows)
        return [_raw(self.n, rows.get(k, {})) for k in range(top + 1)]

    def drop_variable(self, var: int) -> "Polynomial":
        """Forget an unused variable slot, producing an (n-1)-variable polynomial."""
        _check_var(var, self.n)
        i = var - 1
        if any(m[i] for m in self._terms):
            raise ValueError(f"variable z{var} occurs; cannot drop it")
        return _raw(self.n - 1, {m[:i] + m[i + 1 :]: c for m, c in self._terms.items()})

    def insert_variable(self, position: int) -> "Polynomial":
        """Embed into n+1 variables with a fresh unused slot at a 1-based position."""
        if not 1 <= position <= self.n + 1:
            raise VariableIndexError(f"insert position {position} outside 1..{self.n + 1}")
        i = position - 1
        return _raw(self.n + 1, {m[:i] + (0,) + m[i:]: c for m, c in self._terms.items()})


def _raw(n: int, table: dict) -> Polynomial:
    """Build a Polynomial from an already-canonical term table (no re-checks)."""
    p = Polynomial(n)
    object.__setattr__(p, "_terms", table)
    return p


def _clear_denominators(tables) -> tuple[int, list[dict]]:
    """Scale rational term tables to integer ones by one common factor.

    Returns (scale, integer tables): scale is the lcm of every denominator
    in the tables (1 when they are empty) and each integer table is scale
    times its rational one, so exact arithmetic can run on ints and divide
    the scale out once at the end.
    """
    scale = math.lcm(*(c.denominator for t in tables for c in t.values()))
    return scale, [
        {mono: c.numerator * (scale // c.denominator) for mono, c in t.items()}
        for t in tables
    ]


def _check_var(var: int, n: int) -> None:
    if not 1 <= var <= n:
        raise VariableIndexError(f"variable index {var} outside 1..{n}")


def _taylor_shift_one(
    terms: Mapping[Monomial, Fraction], i0: int, c: Fraction
) -> dict[Monomial, Fraction]:
    """Substitute z_i <- z_i + c by synthetic division along one variable."""
    rows: dict[int, dict[Monomial, Fraction]] = {}
    for mono, coeff in terms.items():
        reduced = mono[:i0] + (0,) + mono[i0 + 1 :]
        rows.setdefault(mono[i0], {})[reduced] = coeff
    top = max(rows)
    coeffs: list[dict[Monomial, Fraction]] = [dict(rows.get(k, {})) for k in range(top + 1)]
    for j in range(top):
        for k in range(top - 1, j - 1, -1):
            dst, src = coeffs[k], coeffs[k + 1]
            for mono, coeff in src.items():
                acc = dst.get(mono, Fraction(0)) + c * coeff
                if acc == 0:
                    dst.pop(mono, None)
                else:
                    dst[mono] = acc
    out: dict[Monomial, Fraction] = {}
    for k, row in enumerate(coeffs):
        for mono, coeff in row.items():
            if coeff != 0:
                out[mono[:i0] + (k,) + mono[i0 + 1 :]] = coeff
    return out
