"""Exact sparse multivariate polynomials over the rationals.

A polynomial in n variables z1..zn is an integer term table, a mapping
from exponent tuples to nonzero ints, over one positive denominator:

    z3^2/2 - z1*z2^2   (n=3)   ->   {(0, 0, 2): 1, (1, 2, 0): -2} over 2

The representation is canonical, as FLINT's fmpq_poly: zero coefficients
are never stored, every exponent tuple has length n, and the denominator
is coprime to the table's content, so two polynomials are equal exactly
when their tables and denominators are.  All values are immutable after
construction and every operation is a pure function, so unrestricted
concurrent use is safe.

Variable indices in the public API are 1-based (`var=3` means z3), matching
the z1..zn naming used by the expression grammar in `germkit.parsing`.

The public API speaks `fractions.Fraction`; the kernels compute on the
stored integers, and every result is brought to canonical form by `_raw`.
This is the only module that reads a Polynomial's term table.  Its kernels are
`_int_product` (`*` and the series product), `_horner` (`substitute`,
`shift`), `_exact_quotient` (`exact_div` and the subresultant sequence),
`_table_power` (`**` and the subresultant sequence: repeated products,
which beat squaring on dense tables), `_unit_power` (`series.ts_inverse`,
`series.ts_sqrt`) and `_subresultant_prs` (`elimination.resultant`,
`discriminant` and `coprime_at`: the subresultant sequence on integer
coefficient tables in one variable, built on `_int_product` and
`_exact_quotient`).  `_table_rows` splits a table by one variable's
exponent for `_horner` and the subresultant sequence.  No other module
multiplies term tables.
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
    if isinstance(value, float):
        raise TypeError(f"inexact value {value!r}: pass an int, a Fraction or a string like '3/4'")
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

    __slots__ = ("n", "_terms", "_den")

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
            if any(type(e) is not int or e < 0 for e in mono):
                raise ValueError(f"exponents must be non-negative ints: {mono}")
            c = as_rational(coeff)
            table[mono] = table[mono] + c if mono in table else c
        # lowest terms lifted to the lcm of their denominators are already canonical
        den = math.lcm(*(c.denominator for c in table.values()))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", {
            m: c.numerator * (den // c.denominator) for m, c in table.items() if c})
        object.__setattr__(self, "_den", den)

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
            yield mono, Fraction(self._terms[mono], self._den)

    def coefficient(self, expo: Sequence[int]) -> Fraction:
        return Fraction(self._terms.get(tuple(expo), 0), self._den)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.n)

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
        return mono, self.coefficient(mono)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._terms == other._terms

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
        den, (out, tb) = _clear_denominators((self, other))
        for mono, c in tb.items():
            out[mono] = out.get(mono, 0) + c
        return _raw(self.n, out, den)

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
        return _raw(self.n, {m: -c for m, c in self._terms.items()}, self._den)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = as_rational(other)
            return _raw(self.n, {m: k * c.numerator for m, k in self._terms.items()},
                        self._den * c.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_space(other)
        return _truncated_product(self, other)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return Polynomial.constant(self.n, 1)
        return _raw(self.n, _table_power(self._terms, k), self._den**k)

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
        for mono, term in self._terms.items():
            for e, v in zip(mono, pt):
                if e:
                    term *= v**e
            total += term
        return total / self._den

    def derivative(self, var: int) -> "Polynomial":
        """Exact partial derivative with respect to z_var (1-based)."""
        _check_var(var, self.n)
        i = var - 1
        return _raw(self.n, {m[:i] + (m[i] - 1,) + m[i + 1 :]: c * m[i]
                             for m, c in self._terms.items() if m[i]}, self._den)

    def gradient_at(self, point: Sequence) -> tuple[Fraction, ...]:
        """All first partials evaluated at a point."""
        return tuple(self.derivative(i).evaluate(point) for i in range(1, self.n + 1))

    def shift(self, point: Sequence) -> "Polynomial":
        """Recenter at a point: returns g with g(x) = f(point + x) exactly.

        Each nonzero c_i = a/b is one integer Horner pass z_i <- (b*z_i + a)/b.
        """
        pt = as_point(point, self.n)
        table, scale = self._terms, self._den
        origin = (0,) * self.n
        for i, c in enumerate(pt):
            if c != 0:
                axis = origin[:i] + (1,) + origin[i + 1 :]
                rep = {axis: c.denominator, origin: c.numerator}
                table, lift = _horner(table, i, rep, c.denominator)
                scale *= lift
        return _raw(self.n, table, scale)

    def substitute(self, var: int, replacement: "Polynomial") -> "Polynomial":
        """Replace z_var by an arbitrary polynomial (Horner on integer tables)."""
        _check_var(var, self.n)
        self._check_same_space(replacement)
        table, lift = _horner(self._terms, var - 1, replacement._terms, replacement._den)
        return _raw(self.n, table, self._den * lift)

    def truncate(self, max_total_degree: int) -> "Polynomial":
        """Drop every term of total degree above the bound."""
        return _raw(
            self.n,
            {m: c for m, c in self._terms.items() if sum(m) <= max_total_degree},
            self._den,
        )

    def lowest_homogeneous_form(self) -> tuple["Polynomial", int]:
        """All terms of minimal total degree, together with that degree."""
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no lowest form")
        low = min(sum(m) for m in self._terms)
        form = {m: c for m, c in self._terms.items() if sum(m) == low}
        return _raw(self.n, form, self._den), low

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact polynomial quotient; raises if the division leaves a remainder.

        Divides by the divisor's primitive part over Z[x], where by Gauss's
        lemma an exact quotient has integer coefficients.
        """
        self._check_same_space(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        content = math.gcd(*divisor._terms.values())
        quotient = _exact_quotient(
            dict(self._terms), {m: c // content for m, c in divisor._terms.items()})
        return _raw(self.n, {m: c * divisor._den for m, c in quotient.items()},
                    self._den * content)

    # -- variable-space plumbing --------------------------------------------

    def coefficients_in(self, var: int) -> list["Polynomial"]:
        """Coefficient list with respect to z_var, index k = exponent.

        Entries are polynomials in the same n-variable space with the chosen
        variable's exponent zeroed out.  The list has length degree+1 and is
        empty for the zero polynomial.
        """
        den, rows = _integer_rows(self, var)
        return [_raw(self.n, row, den) for row in rows]

    def drop_variable(self, var: int) -> "Polynomial":
        """Forget an unused variable slot, producing an (n-1)-variable polynomial."""
        _check_var(var, self.n)
        i = var - 1
        if any(m[i] for m in self._terms):
            raise ValueError(f"variable z{var} occurs; cannot drop it")
        table = {m[:i] + m[i + 1 :]: c for m, c in self._terms.items()}
        return _raw(self.n - 1, table, self._den)

    def insert_variable(self, position: int) -> "Polynomial":
        """Embed into n+1 variables with a fresh unused slot at a 1-based position."""
        if not 1 <= position <= self.n + 1:
            raise VariableIndexError(f"insert position {position} outside 1..{self.n + 1}")
        i = position - 1
        table = {m[:i] + (0,) + m[i:]: c for m, c in self._terms.items()}
        return _raw(self.n + 1, table, self._den)


def _raw(n: int, table: dict, den: int) -> Polynomial:
    """The polynomial table / den in n variables (den != 0), in canonical form:
    zero entries dropped, the common gcd divided out, the denominator positive."""
    table = {mono: c for mono, c in table.items() if c}
    g = math.gcd(den, *table.values()) * (1 if den > 0 else -1)
    p = object.__new__(Polynomial)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "_terms", table if g == 1 else {m: c // g for m, c in table.items()})
    object.__setattr__(p, "_den", den // g)
    return p


def _clear_denominators(polys) -> tuple[int, list[dict]]:
    """(den, tables): the lcm of the polynomials' denominators, and each table lifted to it."""
    den = math.lcm(*(p._den for p in polys))
    return den, [{m: c * (den // p._den) for m, c in p._terms.items()} for p in polys]


def _truncated_product(a: Polynomial, b: Polynomial, order=math.inf) -> Polynomial:
    """a * b with no term of total degree above the order, on integer tables."""
    return _raw(a.n, _int_product(a._terms, b._terms, order), a._den * b._den)


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
    parts: dict[int, dict] = {}  # the homogeneous parts B_i; a's denominator cancels in b
    for mono, c in a._terms.items():
        parts.setdefault(sum(mono), {})[mono] = c
    qb = q * a._terms[(0,) * a.n]
    ys, scales = [{(0,) * a.n: factor.numerator}], [factor.denominator]
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
        scales.append(scales[-1] * qb * k)  # so each s_k divides s_order
    top = scales[-1]
    table = {mono: c * (top // s) for y, s in zip(ys, scales) for mono, c in y.items()}
    return _raw(a.n, table, top)


def _monomial_multiple(a: Polynomial, expo: Monomial) -> Polynomial:
    """x^expo * a, by shifting exponents; expo may be negative where a's support allows."""
    return _raw(a.n, {tuple(map(add, m, expo)): c for m, c in a._terms.items()}, a._den)


def _linear_factors(e1: Polynomial, r: Polynomial, j: int) -> tuple[Polynomial, ...]:
    """z_j + (e1 - r)/2 and z_j + (e1 + r)/2, z_j new at 1-based j; one integer pass each."""
    scale, (te, tr) = _clear_denominators((e1, r))
    i = j - 1
    axis = {(0,) * i + (1,) + (0,) * (e1.n - i): 2 * scale}
    return tuple(_raw(e1.n + 1, axis | {
        m[:i] + (0,) + m[i:]: te.get(m, 0) + sign * tr.get(m, 0) for m in te | tr}, 2 * scale)
        for sign in (-1, 1))


def _horner(table: dict, i: int, rep: dict, rep_scale: int) -> tuple[dict, int]:
    """Substitute z_i <- rep / rep_scale into an integer table (0-based i).

    Returns (result, lift), the substitution being result / lift: with top
    the degree in z_i, lift = rep_scale^top and the row of z_i^k is lifted
    by rep_scale^(top-k), so every Horner step stays in Z[x].
    """
    rows = _table_rows(table, i)
    acc, lift = rows[-1] if rows else {}, 1
    for row in reversed(rows[:-1]):
        lift *= rep_scale
        acc = _int_product(acc, rep)
        for mono, c in row.items():
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


def _table_rows(table: dict, i: int) -> list[dict]:
    """An integer table split by the exponent of z_i (0-based): entry k is the
    table of z_i^k's coefficient, z_i's exponent zeroed; [] for the empty table."""
    rows: dict[int, dict] = {}
    for mono, c in table.items():
        rows.setdefault(mono[i], {})[mono[:i] + (0,) + mono[i + 1 :]] = c
    return [rows.get(k, {}) for k in range(max(rows, default=-1) + 1)]


def _integer_rows(p: Polynomial, j: int) -> tuple[int, list[dict]]:
    """(den, rows) with p = sum_k rows[k] * z_j^k / den, rows as in `_table_rows`."""
    _check_var(j, p.n)
    return p._den, _table_rows(p._terms, j - 1)


def _subresultant_prs(a: list, b: list) -> tuple[dict, list | None]:
    """Res_z(A, B) over Z[x'] by the subresultant PRS (Collins, J. ACM 14, 1967; Brown &
    Traub, J. ACM 18, 1971; Cohen, GTM 138, Alg. 3.3.7 without the content step).

    A and B are lists of integer tables, the coefficients of z^0, z^1, ... with a
    nonzero last entry, both of degree >= 1 in z.  Returns (resultant table, None),
    or, when the resultant is zero, ({}, S) with S the last nonzero remainder of the
    sequence: gcd(A, B) times a nonzero element of Z[x'], as a coefficient list.
    """
    one = {(0,) * len(next(iter(a[-1]))): 1}
    sign = -1 if len(a) < len(b) and (len(a) - 1) * (len(b) - 1) % 2 else 1
    if len(a) < len(b):
        a, b = b, a
    g = h = one
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = _pseudo_remainder(a, b, delta)
        if not r:
            return {}, b
        divisor = _int_product(g, _table_power(h, delta)) if delta else g
        a, b = b, r if divisor == one else [_exact_quotient(c, divisor) for c in r]
        g = a[-1]
        h = h if delta == 0 else g if delta == 1 else _exact_quotient(
            _table_power(g, delta), _table_power(h, delta - 1))
    d = len(a) - 1
    last = b[0] if d == 1 else _exact_quotient(_table_power(b[0], d), _table_power(h, d - 1))
    return {m: sign * c for m, c in last.items()}, None


def _pseudo_remainder(a: list, b: list, delta: int) -> list:
    """lc(B)^(delta+1) * A mod B over Z[x'], coefficient lists as in `_subresultant_prs`,
    delta = deg A - deg B >= 0; the result has a nonzero last entry, or is []."""
    lead, db = b[-1], len(b) - 1
    r, e = a, delta + 1
    while len(r) > db:
        top, shift = r[-1], len(r) - 1 - db
        r = [_int_product(lead, c) for c in r[:-1]]
        for k, c in enumerate(b[:-1]):
            acc = r[k + shift]
            for mono, v in _int_product(top, c).items():
                v = acc.get(mono, 0) - v
                if v:
                    acc[mono] = v
                else:
                    del acc[mono]
        while r and not r[-1]:
            r.pop()
        e -= 1
    if e and r:
        scale = _table_power(lead, e)
        r = [_int_product(scale, c) for c in r]
    return r


def _table_power(t: dict, k: int) -> dict:
    """t^k on an integer term table, k >= 1."""
    out = t
    for _ in range(k - 1):
        out = _int_product(out, t)
    return out


def _check_var(var: int, n: int) -> None:
    if not 1 <= var <= n:
        raise VariableIndexError(f"variable index {var} outside 1..{n}")
