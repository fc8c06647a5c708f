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

Exact kernels run on integer term tables: denominators are cleared once,
the work runs on ints and one scale is divided out at the end.  This is the
only module that reads a Polynomial's term table.  Its kernels are
`_int_product` (`*` and the series product), `_horner` (`substitute`,
`shift`), `_exact_quotient` (`exact_div`, `elimination.matrix_det`) and
`_unit_power` (`series.ts_inverse`, `series.ts_sqrt`).
One product loop stays outside, since merging it into these kernels
measured slower: Bareiss's fused a*b - c*d on integer tables
(`elimination._mul_sub`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import Iterator, Mapping, Sequence, Union

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
        return _truncated_product(self, other)

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

        Each nonzero c_i = a/b is one integer Horner pass z_i <- (b*z_i + a)/b.
        """
        pt = as_point(point, self.n)
        scale, (table,) = _clear_denominators((self,))
        origin = (0,) * self.n
        for i, c in enumerate(pt):
            if c != 0:
                axis = origin[:i] + (1,) + origin[i + 1 :]
                rep = {axis: c.denominator, origin: c.numerator}
                table, lift = _horner(table, i, rep, c.denominator)
                scale *= lift
        return _from_integers(self.n, table, scale)

    def substitute(self, var: int, replacement: "Polynomial") -> "Polynomial":
        """Replace z_var by an arbitrary polynomial (Horner on integer tables)."""
        _check_var(var, self.n)
        self._check_same_space(replacement)
        scale, (table,) = _clear_denominators((self,))
        rep_scale, (rep,) = _clear_denominators((replacement,))
        table, lift = _horner(table, var - 1, rep, rep_scale)
        return _from_integers(self.n, table, scale * lift)

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

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact polynomial quotient; raises if the division leaves a remainder.

        Divides by the divisor's primitive part over Z[x], where by Gauss's
        lemma an exact quotient has integer coefficients.
        """
        self._check_same_space(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        scale, (table,) = _clear_denominators((self,))
        div_scale, (div,) = _clear_denominators((divisor,))
        content = math.gcd(*div.values())
        quotient = _exact_quotient(table, {m: c // content for m, c in div.items()})
        den = scale * content
        return _raw(self.n, {m: Fraction(c * div_scale, den) for m, c in quotient.items()})

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


def _clear_denominators(polys) -> tuple[int, list[dict]]:
    """Scale polynomials to integer term tables by one common factor.

    Returns (scale, tables): scale is the lcm of every denominator (1 when
    all are zero) and each table is scale times a polynomial's term table.
    """
    scale = math.lcm(*(c.denominator for p in polys for c in p._terms.values()))
    return scale, [
        {mono: c.numerator * (scale // c.denominator) for mono, c in p._terms.items()}
        for p in polys
    ]


def _from_integers(n: int, table: dict, scale: int) -> Polynomial:
    """The polynomial table / scale in n variables; zero entries are dropped."""
    return _raw(n, {mono: Fraction(c, scale) for mono, c in table.items() if c})


def _truncated_product(a: Polynomial, b: Polynomial, order=math.inf) -> Polynomial:
    """a * b with no term of total degree above the order, on integer tables."""
    scale_a, (ta,) = _clear_denominators((a,))
    scale_b, (tb,) = _clear_denominators((b,))
    return _from_integers(a.n, _int_product(ta, tb, order), scale_a * scale_b)


def _int_product(ta: dict, tb: dict, order=math.inf) -> dict:
    """ta * tb on integer term tables, no term of total degree above the order."""
    graded = sorted((sum(m), m, c) for m, c in tb.items())
    out: dict = {}
    for ma, ca in ta.items():
        room = order - sum(ma)
        for db, mb, cb in graded:
            if db > room:
                break
            mono = tuple(map(add, ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: c for mono, c in out.items() if c}


def _unit_power(a: Polynomial, order: int, p: int, q: int, factor: Fraction) -> Polynomial:
    """factor * (a/a(0))^(p/q) through total degree `order`, a(0) != 0, by J. C. P. Miller's
    recurrence q*k*y_k = sum_(i=1..k) (p*i - q*(k-i)) * b_i * y_(k-i) on the homogeneous parts
    of b = a/a(0) = B/beta and y; in Z[x] as y_k = Y_k/s_k, s_k = s_(k-1)*q*k*beta, y_0 = factor."""
    _, (table,) = _clear_denominators((a,))
    parts: dict[int, dict] = {}  # the homogeneous parts B_i
    for mono, c in table.items():
        parts.setdefault(sum(mono), {})[mono] = c
    ys, scales, qb = [{(0,) * a.n: factor.numerator}], [factor.denominator], q * table[(0,) * a.n]
    for k in range(1, order + 1):
        acc, weight = {}, 1  # weight = (q*beta)^(i-1) * (k-1)!/(k-i)!
        for i in range(1, k + 1):
            lam = (p * i - q * (k - i)) * weight
            for ma, ca in parts.get(i, {}).items() if lam else ():
                ca *= lam
                for mb, cb in ys[k - i].items():
                    mono = tuple(map(add, ma, mb))
                    acc[mono] = acc.get(mono, 0) + ca * cb
            weight *= qb * (k - i)
        ys.append({mono: c for mono, c in acc.items() if c})
        scales.append(scales[-1] * qb * k)
    return _raw(a.n, {mono: Fraction(c, s) for y, s in zip(ys, scales) for mono, c in y.items()})


def _monomial_multiple(a: Polynomial, expo: Monomial) -> Polynomial:
    """x^expo * a, by shifting exponents; expo may be negative where a's support allows."""
    return _raw(a.n, {tuple(map(add, m, expo)): c for m, c in a._terms.items()})


def _linear_factors(e1: Polynomial, r: Polynomial, j: int) -> tuple[Polynomial, ...]:
    """z_j + (e1 - r)/2 and z_j + (e1 + r)/2, z_j new at 1-based j; one integer pass each."""
    scale, (te, tr) = _clear_denominators((e1, r))
    i = j - 1
    axis = {(0,) * i + (1,) + (0,) * (e1.n - i): Fraction(1)}
    return tuple(_raw(e1.n + 1, axis | {
        m[:i] + (0,) + m[i:]: Fraction(c, 2 * scale)
        for m in te | tr if (c := te.get(m, 0) + sign * tr.get(m, 0))}) for sign in (-1, 1))


def _horner(table: dict, i: int, rep: dict, rep_scale: int) -> tuple[dict, int]:
    """Substitute z_i <- rep / rep_scale into an integer table (0-based i).

    Returns (result, lift), the substitution being result / lift: with top
    the degree in z_i, lift = rep_scale^top and the row of z_i^k is lifted
    by rep_scale^(top-k), so every Horner step stays in Z[x].
    """
    rows: dict[int, dict] = {}
    for mono, c in table.items():
        rows.setdefault(mono[i], {})[mono[:i] + (0,) + mono[i + 1 :]] = c
    top = max(rows, default=0)
    acc, lift = rows.get(top, {}), 1
    for k in range(top - 1, -1, -1):
        lift *= rep_scale
        acc = _int_product(acc, rep)
        for mono, c in rows.get(k, {}).items():
            v = acc.get(mono, 0) + c * lift
            if v:
                acc[mono] = v
            else:
                del acc[mono]
    return acc, lift


def _exact_quotient(rem: dict, divisor: dict) -> dict:
    """rem / divisor over Z[x], consuming rem; ValueError unless exact.

    Leading terms are taken in lex order, a monomial order, so every
    quotient term is found once and an exact quotient over Z[x] never
    needs a fraction.
    """
    lead = max(divisor)
    lead_coeff = divisor[lead]
    quotient = {}
    while rem:
        top = max(rem)
        qmono = tuple(map(sub, top, lead))
        q, r = divmod(rem[top], lead_coeff)
        if r or any(e < 0 for e in qmono):
            raise ValueError("division is not exact")
        quotient[qmono] = q
        for mono, c in divisor.items():
            mono = tuple(map(add, qmono, mono))
            v = rem.get(mono, 0) - q * c
            if v:
                rem[mono] = v
            else:
                del rem[mono]
    return quotient


def _check_var(var: int, n: int) -> None:
    if not 1 <= var <= n:
        raise VariableIndexError(f"variable index {var} outside 1..{n}")
