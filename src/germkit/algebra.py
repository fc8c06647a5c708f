"""Exact sparse multivariate polynomials over the rationals.

A polynomial in n variables z1..zn is an integer term table, a mapping
from packed monomial keys to nonzero ints, over one positive denominator.
The key of z^e packs the total degree and the exponents into one int of
n + 1 fields of _FIELD_BITS bits each, the degree in the top field:

    key(z^e) = deg(e) << n*W | e1 << (n-1)*W | ... | en      (W = _FIELD_BITS)
    z3^2/2 - z1*z2^2   (n=3)   ->   {key(0, 0, 2): 1, key(1, 2, 0): -2} over 2

So a monomial product is one int addition, the key of the constant term is
0, and integer order on keys is graded-lex order with z1 > z2 > ...  Every
total degree is at most MAX_DEGREE, which leaves each field's top bit clear:
no sum of two keys overflows a field, and a field that goes negative in a
difference of keys sets its top bit, the guard bit `_exact_quotient` tests.
Each kernel that can raise the degree checks its operands' degrees against
the cap first.  A kernel that splits a table into dense rows, one per exponent
of one variable (so a shift, a substitution and an evaluation at a nonzero
coordinate), is refused a degree in that variable above MAX_VARIABLE_DEGREE
by `_table_rows`, before any row is built.

The representation is canonical, as FLINT's fmpq_poly: zero coefficients
are never stored and the denominator is coprime to the table's content, so
two polynomials are equal exactly when their tables and denominators are.
All values are immutable after construction and every operation is a pure
function, so unrestricted concurrent use is safe.

Variable indices in the public API are 1-based (`var=3` means z3), matching
the z1..zn naming used by the expression grammar in `germkit.parsing`.

The public API speaks exponent tuples and `fractions.Fraction`; it packs and
unpacks keys at that boundary.  The kernels compute on the stored integers,
and every result is brought to canonical form by `_raw`, or built by
`_canonical` when its table is canonical already (a negation, a move of the
keys; `truncate` and `shift` at the zero point return self when nothing
changes).  This is the only module that reads a Polynomial's term table.
Its one product loop is `_mul_add` (acc += scale * ta * tb in place);
`_truncated_product` (`*`, the series product) runs it on the pairs of
homogeneous parts from `_graded`.
Built on it are `_horner` (`substitute`, `shift` and `evaluate`),
`_exact_quotient` (`exact_div`), `_table_power` (`**`: repeated products, which
beat squaring on dense tables), `_unit_power` (`series.ts_inverse`,
`series.ts_sqrt`) and
`_subresultant_prs` (`elimination.resultant`, `discriminant` and `coprime_at`:
the subresultant sequence with `_pseudo_remainder`, `_exact_quotient` and
`_table_power` on the integer coefficient tables in one variable; it takes and
returns Polynomials).  `_table_rows` splits a table by one variable's exponent
for `coefficients_in`, `_horner`, `_quadratic_parts` and the subresultant
sequence, and `_levels` a polynomial by its degree in the other variables for
`weierstrass_prepare`.  `_quadratic_parts` (e1 and the discriminant of
a*z_n^2 + b*z_n + c), `_linear_factors` (its factor pair z_n + (e1 -+ r)/2),
`_axis_order` (`regular_order`) and `_linear_part` (the gradient) read keys for
the cascade.  No other module multiplies term tables.
"""

from __future__ import annotations

import math
import struct
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

# bits per field of a monomial key: 32, so `_unpack` reads the fields as struct's
# big-endian "L" words; 16-bit fields ran within noise of these, and their cap,
# 32767, is below the resultant bound of two degree-32 parser inputs
_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
# the largest total degree a polynomial holds: each field's top bit, a guard bit, stays clear
MAX_DEGREE = (1 << _FIELD_BITS - 1) - 1
# the largest degree in one variable that `_table_rows` splits into dense rows, one per
# exponent: the Horner and subresultant loops on those rows take O(d^2) products
MAX_VARIABLE_DEGREE = 1024


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


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("n", "_terms", "_den")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        if n < 0:
            raise ValueError("variable count must be non-negative")
        table: dict[int, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            key = _monomial_key(mono, n)
            c = as_rational(coeff)
            table[key] = table[key] + c if key in table else c
        _check_degree(max(table, default=0) >> _FIELD_BITS * n)  # a key past the cap is largest
        # lowest terms lifted to the lcm of their denominators are already canonical
        den = math.lcm(*(c.denominator for c in table.values()))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", {
            m: c.numerator * (den // c.denominator) for m, c in table.items() if c})
        object.__setattr__(self, "_den", den)

    # -- constructors ------------------------------------------------------
    # one term each, straight to canonical form through `_raw`

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls.constant(n, 0)

    @classmethod
    def constant(cls, n: int, value: Scalar) -> "Polynomial":
        if n < 0:
            raise ValueError("variable count must be non-negative")
        c = as_rational(value)
        return _raw(n, {0: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, n: int, var: int) -> "Polynomial":
        """The polynomial z_var (1-based index)."""
        _check_var(var, n)
        return _raw(n, {_var_key(n, var - 1): 1}, 1)

    @classmethod
    def monomial(cls, n: int, expo: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        key = _monomial_key(expo, n)
        _check_degree(key >> _FIELD_BITS * n)
        c = as_rational(coeff)
        return _raw(n, {key: c.numerator}, c.denominator)

    # -- inspection --------------------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):  # restoring slots would go through the refused __setattr__
        return _canonical, (self.n, self._terms, self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Iterate (monomial, coefficient) pairs in canonical graded order."""
        # flipping the exponent fields turns ascending lex into z1-heaviest first
        flip = (1 << _FIELD_BITS * self.n) - 1
        keys = sorted(self._terms, key=flip.__xor__)
        for mono, key in zip(_unpack(keys, self.n), keys):
            yield mono, Fraction(self._terms[key], self._den)

    def support(self) -> Iterator[Monomial]:
        """Iterate the exponent tuples of the nonzero terms, in no set order."""
        return iter(_unpack(self._terms, self.n))

    def coefficient(self, expo: Sequence[int]) -> Fraction:
        # a key past the degree cap is above every stored key, so it finds 0
        return Fraction(self._terms.get(_monomial_key(expo, self.n), 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get(0, 0), self._den)

    def term_count(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int | float:
        """Maximal total degree; -inf for the zero polynomial."""
        if not self._terms:
            return -math.inf
        return _degree_of(self)

    def degree_in(self, var: int) -> int | float:
        """Maximal exponent of z_var; -inf for the zero polynomial."""
        _check_var(var, self.n)
        if not self._terms:
            return -math.inf
        off = _FIELD_BITS * (self.n - var)
        return max(m >> off & _FIELD_MASK for m in self._terms)

    def variable_order(self, var: int) -> int | float:
        """Minimal exponent of z_var over all terms; +inf for the zero polynomial."""
        _check_var(var, self.n)
        if not self._terms:
            return math.inf
        off = _FIELD_BITS * (self.n - var)
        return min(m >> off & _FIELD_MASK for m in self._terms)

    def order(self) -> int | float:
        """Minimal total degree over all terms; +inf for the zero polynomial."""
        if not self._terms:
            return math.inf
        return min(self._terms) >> _FIELD_BITS * self.n

    def leading_term(self) -> tuple[Monomial, Fraction]:
        """Greatest term in graded-lex order (z1 > z2 > ... within a degree)."""
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        key = max(self._terms)
        return _unpack([key], self.n)[0], Fraction(self._terms[key], self._den)

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
        den = math.lcm(self._den, other._den)
        lift_self, lift_other = den // self._den, den // other._den
        out = {m: c * lift_self for m, c in self._terms.items()}
        for mono, c in other._terms.items():
            out[mono] = out.get(mono, 0) + c * lift_other
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
        return _canonical(self.n, {m: -c for m, c in self._terms.items()}, self._den)

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
        if type(k) is not int:  # True would pass as 1, and 2.0 fail inside range()
            raise TypeError(f"polynomial exponent must be an int, got {k!r}")
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return Polynomial.constant(self.n, 1)
        _check_degree(_degree_of(self) * k)
        if len(self._terms) <= 1:  # c*z^e or 0: one key multiply, however large k is
            return _raw(self.n, {key * k: c**k for key, c in self._terms.items()}, self._den**k)
        return _raw(self.n, _table_power(self._terms, k), self._den**k)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.n, other)
        return NotImplemented

    # -- core operations ---------------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point of matching dimension, always a Fraction.

        Each nonzero c_i = a/b is one Horner substitution z_i <- a/b, as `shift`
        runs, so a degree in z_i above MAX_VARIABLE_DEGREE is refused; a zero
        coordinate is skipped, and the constant term left is the value.
        """
        table, scale = self._terms, self._den
        for i, c in enumerate(as_point(point, self.n)):
            if c != 0:
                table, lift = _horner(table, self.n, i, {0: c.numerator}, c.denominator)
                scale *= lift
        return Fraction(table.get(0, 0), scale)

    def derivative(self, var: int) -> "Polynomial":
        """Exact partial derivative with respect to z_var (1-based)."""
        _check_var(var, self.n)
        off, unit = _FIELD_BITS * (self.n - var), _var_key(self.n, var - 1)
        return _raw(self.n, {m - unit: c * e for m, c in self._terms.items()
                             if (e := m >> off & _FIELD_MASK)}, self._den)

    def gradient_at(self, point: Sequence) -> tuple[Fraction, ...]:
        """All first partials evaluated at a point."""
        return tuple(self.derivative(i).evaluate(point) for i in range(1, self.n + 1))

    def shift(self, point: Sequence) -> "Polynomial":
        """Recenter at a point: returns g with g(x) = f(point + x) exactly.

        Each nonzero c_i = a/b is one Horner substitution z_i <- (b*z_i + a)/b,
        as `substitute` runs; at the zero point the polynomial is returned as it is.
        """
        pt = as_point(point, self.n)
        if not any(pt):
            return self
        table, scale = self._terms, self._den
        for i, c in enumerate(pt):
            if c != 0:
                a, b = c.numerator, c.denominator
                table, lift = _horner(table, self.n, i, {_var_key(self.n, i): b, 0: a}, b)
                scale *= lift
        return _raw(self.n, table, scale)

    def substitute(self, var: int, replacement: "Polynomial") -> "Polynomial":
        """Replace z_var by an arbitrary polynomial (Horner on integer tables)."""
        _check_var(var, self.n)
        self._check_same_space(replacement)
        _check_degree(_degree_of(self) * max(1, _degree_of(replacement)))
        table, lift = _horner(self._terms, self.n, var - 1, replacement._terms, replacement._den)
        return _raw(self.n, table, self._den * lift)

    def truncate(self, max_total_degree: int) -> "Polynomial":
        """Drop every term of total degree above the bound; with none above it, this is self."""
        if self.total_degree() <= max_total_degree:
            return self
        s = _FIELD_BITS * self.n
        return _raw(self.n, {m: c for m, c in self._terms.items() if m >> s <= max_total_degree},
                    self._den)

    def lowest_homogeneous_form(self) -> tuple["Polynomial", int]:
        """All terms of minimal total degree, together with that degree."""
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no lowest form")
        s = _FIELD_BITS * self.n
        low = min(self._terms) >> s
        form = {m: c for m, c in self._terms.items() if m >> s == low}
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
            dict(self._terms), {m: c // content for m, c in divisor._terms.items()}, self.n)
        return _raw(self.n, {m: c * divisor._den for m, c in quotient.items()},
                    self._den * content)

    # -- variable-space plumbing --------------------------------------------

    def coefficients_in(self, var: int) -> list["Polynomial"]:
        """Coefficient list with respect to z_var, index k = exponent.

        Entries are polynomials in the same n-variable space with the chosen
        variable's exponent zeroed out.  The list has length degree+1 and is
        empty for the zero polynomial.
        """
        _check_var(var, self.n)
        return [_raw(self.n, row, self._den)
                for row in _table_rows(self._terms, self.n, var - 1)]

    def drop_variable(self, var: int) -> "Polynomial":
        """Forget an unused variable slot, producing an (n-1)-variable polynomial."""
        _check_var(var, self.n)
        off = _FIELD_BITS * (self.n - var)
        if any(m >> off & _FIELD_MASK for m in self._terms):
            raise ValueError(f"variable z{var} occurs; cannot drop it")
        low = (1 << off) - 1  # the fields of z_(var+1)..z_n stay, the ones above move down
        table = {m >> _FIELD_BITS & ~low | m & low: c for m, c in self._terms.items()}
        return _canonical(self.n - 1, table, self._den)

    def insert_variable(self, position: int) -> "Polynomial":
        """Embed into n+1 variables with a fresh unused slot at a 1-based position."""
        if type(position) is not int:  # True would pass as 1, and 1.0 fail as a slice index
            raise TypeError(f"insert position must be an int, got {position!r}")
        if not 1 <= position <= self.n + 1:
            raise VariableIndexError(f"insert position {position} outside 1..{self.n + 1}")
        low = (1 << _FIELD_BITS * (self.n + 1 - position)) - 1  # z_position..z_n stay
        table = {(m & ~low) << _FIELD_BITS | m & low: c for m, c in self._terms.items()}
        return _canonical(self.n + 1, table, self._den)


def _raw(n: int, table: dict, den: int) -> Polynomial:
    """The polynomial table / den in n variables (den != 0), in canonical form:
    zero entries dropped, the common gcd divided out, the denominator positive."""
    table = {mono: c for mono, c in table.items() if c}
    g = math.gcd(den, *table.values()) * (1 if den > 0 else -1)
    if g != 1:
        table, den = {m: c // g for m, c in table.items()}, den // g
    return _canonical(n, table, den)


def _canonical(n: int, table: dict, den: int) -> Polynomial:
    """The polynomial table / den in n variables, the table already canonical: no zero
    entry, den > 0 and coprime to the entries' content.  It is taken as it is, not copied."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "_terms", table)
    object.__setattr__(p, "_den", den)
    return p


def _truncated_product(a: Polynomial, b: Polynomial, order=math.inf) -> Polynomial:
    """a * b with no term of total degree above the order, on integer tables."""
    if order > MAX_DEGREE:  # the order alone does not keep the product under the cap
        _check_degree(_degree_of(a) + _degree_of(b))
    if order == math.inf:  # splitting into parts only slows a full product down
        return _raw(a.n, _mul_add({}, a._terms, b._terms), a._den * b._den)
    acc: dict = {}
    parts_b = _graded(b._terms, b.n)
    for da, pa in _graded(a._terms, a.n).items():
        for db, pb in parts_b.items():
            if da + db <= order:
                _mul_add(acc, pa, pb)
    return _raw(a.n, acc, a._den * b._den)


def _graded(table: dict, n: int) -> dict[int, dict]:
    """An integer table split into its homogeneous parts, keyed by total degree."""
    s = _FIELD_BITS * n
    parts: dict[int, dict] = {}
    for mono, c in table.items():
        parts.setdefault(mono >> s, {})[mono] = c
    return parts


def _mul_add(acc: dict, ta: dict, tb: dict, scale: int = 1) -> dict:
    """acc += scale * ta * tb on integer term tables, in place; entries that
    cancel are deleted, so acc stays a term table.  Returns acc."""
    for ma, ca in ta.items():
        ca *= scale
        for mb, cb in tb.items():
            mono = ma + mb
            v = acc.get(mono, 0) + ca * cb
            if v:
                acc[mono] = v
            else:
                del acc[mono]
    return acc


def _unit_power(a: Polynomial, order: int, p: int, q: int, factor: Fraction) -> Polynomial:
    """factor * (a/a(0))^(p/q) through total degree `order`, a(0) != 0, by J. C. P. Miller's
    recurrence q*k*y_k = sum_(i=1..k) (p*i - q*(k-i)) * b_i * y_(k-i) on the homogeneous parts
    of b = a/a(0) = B/beta and y; in Z[x] as y_k = Y_k/s_k, s_k = s_(k-1)*q*k*beta, y_0 = factor."""
    parts = _graded(a._terms, a.n)  # the homogeneous parts B_i; a's denominator cancels in b
    qb = q * a._terms[0]
    ys, scales = [{0: factor.numerator}], [factor.denominator]
    for k in range(1, order + 1):
        acc, weight = {}, 1  # weight = (q*beta)^(i-1) * (k-1)!/(k-i)!
        for i in range(1, k + 1):
            lam = (p * i - q * (k - i)) * weight
            if lam and i in parts:
                _mul_add(acc, parts[i], ys[k - i], lam)
            weight *= qb * (k - i)
        ys.append(acc)
        scales.append(scales[-1] * qb * k)  # so each s_k divides s_order
    top = scales[-1]
    table = {mono: c * (top // s) for y, s in zip(ys, scales) for mono, c in y.items()}
    return _raw(a.n, table, top)


def _linear_part(p: Polynomial) -> tuple[Fraction, ...] | None:
    """The coefficients of z1..zn in p, read off the keys of its degree-1 terms; None when
    p has no degree-1 term, so every coefficient would be 0."""
    keys = [_var_key(p.n, i) for i in range(p.n)]
    if not any(key in p._terms for key in keys):
        return None
    return tuple(Fraction(p._terms.get(key, 0), p._den) for key in keys)


def _axis_order(p: Polynomial, j: int) -> int | float:
    """Least e with z_j^e a term of p (1-based j; +inf if none): z_j's field is the degree field."""
    s, off = _FIELD_BITS * p.n, _FIELD_BITS * (p.n - j)
    return min((e for m in p._terms if (e := m >> s) == m >> off & _FIELD_MASK), default=math.inf)


def _quadratic_parts(f: Polynomial) -> tuple[Polynomial | None, Polynomial] | None:
    """(e1, D) in z1..z(n-1) for f = a*z_n^2 + b*z_n + c with a(0) != 0 = b(0) = c(0), else None.
    For a constant a, e1 = b/a and D = (b*b - 4*a*c)/a^2, f's denominator cancelling; otherwise
    e1 is None and D = b*b - 4*a*c.  D is read off f's integer rows with one product."""
    if f.degree_in(f.n) != 2:  # read before the split, which refuses a degree past the budget
        return None
    rows = _table_rows(f._terms, f.n, f.n - 1)
    if 0 not in rows[2] or 0 in rows[1] or 0 in rows[0]:
        return None
    dc, db, da = (max(row, default=0) >> _FIELD_BITS * f.n for row in rows)
    _check_degree(max(2 * db, da + dc))  # deg(b*b), deg(a*c)
    # a row's z_n field is 0, so one right shift drops it
    c, b, a = ({m >> _FIELD_BITS: k for m, k in row.items()} for row in rows)
    D = _mul_add(_mul_add({}, a, c, -4), b, b)
    if a.keys() != {0}:
        return None, _raw(f.n - 1, D, f._den**2)
    return _raw(f.n - 1, b, a[0]), _raw(f.n - 1, D, a[0] ** 2)


def _monomial_multiple(a: Polynomial, expo: Monomial) -> Polynomial:
    """x^expo * a, by shifting exponents; expo may be negative where a's support allows."""
    _check_degree(_degree_of(a) + sum(expo))
    shift = _pack(expo)  # packing is linear, so a negative exponent shifts down
    return _canonical(a.n, {m + shift: c for m, c in a._terms.items()}, a._den)


def _linear_factors(e1: Polynomial, r: Polynomial, order: int) -> tuple[Polynomial, Polynomial]:
    """t + (e1 - r)/2 and t + (e1 + r)/2, t = z_n, for e1 and r in z1..z(n-1), each cut at
    total degree order >= 1: one pass over e1's and r's tables, over one denominator 2*lcm."""
    n, s = e1.n + 1, _FIELD_BITS * e1.n
    den = math.lcm(e1._den, r._den)
    t = _var_key(n, n - 1)
    lo, hi = {t: 2 * den}, {t: 2 * den}
    # a key of z1..z(n-1) shifted up one field is the same monomial with z_n's field 0
    lift = den // e1._den
    for m, c in e1._terms.items():
        if m >> s <= order:
            lo[m << _FIELD_BITS] = hi[m << _FIELD_BITS] = c * lift
    lift = den // r._den
    for m, c in r._terms.items():
        if m >> s <= order:
            key, c = m << _FIELD_BITS, c * lift
            lo[key], hi[key] = lo.get(key, 0) - c, hi.get(key, 0) + c
    return _raw(n, lo, 2 * den), _raw(n, hi, 2 * den)


def _horner(table: dict, n: int, i: int, rep: dict, rep_scale: int) -> tuple[dict, int]:
    """Substitute z_i <- rep / rep_scale into an integer table (0-based i).

    Returns (result, lift), the substitution being result / lift: with top
    the degree in z_i, lift = rep_scale^top and the row of z_i^k is lifted
    by rep_scale^(top-k), so every Horner step stays in Z[x].
    """
    rows = _table_rows(table, n, i)
    acc, lift = rows[-1] if rows else {}, 1
    for row in reversed(rows[:-1]):
        lift *= rep_scale
        acc = _mul_add({m: c * lift for m, c in row.items()}, acc, rep)
    return acc, lift


def _exact_quotient(rem: dict, divisor: dict, n: int) -> dict:
    """rem / divisor over Z[x] in n variables, consuming rem; ValueError unless exact.

    Leading terms are the largest keys, in graded-lex order, a monomial
    order, so every quotient term is found once, no product leaves the
    degree of the dividend, and an exact quotient over Z[x] never needs a
    fraction.  A quotient monomial is top - lead: a field that goes negative
    borrows from the one above and sets its own guard bit.
    """
    lead = max(divisor)
    lead_coeff = divisor[lead]
    guards = ((1 << _FIELD_BITS * (n + 1)) - 1) // _FIELD_MASK << _FIELD_BITS - 1  # field tops
    quotient = {}
    while rem:
        top = max(rem)
        qmono = top - lead
        q, r = divmod(rem[top], lead_coeff)
        if r or qmono & guards:
            raise ValueError("division is not exact")
        quotient[qmono] = q
        _mul_add(rem, {qmono: q}, divisor, -1)
    return quotient


def _table_rows(table: dict, n: int, i: int) -> list[dict]:
    """An integer table split by the exponent of z_i (0-based): entry k is the
    table of z_i^k's coefficient, z_i's exponent zeroed; [] for the empty table.
    A degree in z_i above MAX_VARIABLE_DEGREE is refused before the dense list is built."""
    off, unit = _FIELD_BITS * (n - 1 - i), _var_key(n, i)
    rows: dict[int, dict] = {}
    for mono, c in table.items():
        e = mono >> off & _FIELD_MASK
        rows.setdefault(e, {})[mono - e * unit] = c
    top = max(rows, default=-1)
    if top > MAX_VARIABLE_DEGREE:
        raise ValueError(f"degree {top} in z{i + 1} is above {MAX_VARIABLE_DEGREE}, "
                         "the largest degree in one variable a dense kernel takes")
    return [rows.get(k, {}) for k in range(top + 1)]


def _levels(p: Polynomial, j: int, top: int) -> list[Polynomial]:
    """p split by level, the total degree in the variables other than z_j (1-based):
    entry L holds p's terms of level L, for L = 0..top; higher levels are dropped."""
    s, off = _FIELD_BITS * p.n, _FIELD_BITS * (p.n - j)
    tables: list[dict] = [{} for _ in range(top + 1)]
    for mono, c in p._terms.items():
        level = (mono >> s) - (mono >> off & _FIELD_MASK)
        if level <= top:
            tables[level][mono] = c
    return [_raw(p.n, table, p._den) for table in tables]


def _subresultant_prs(f: Polynomial, g: Polynomial, j: int) -> tuple[Polynomial, list | None]:
    """(Res_j(f, g), S) by the subresultant PRS (Collins, J. ACM 14, 1967; Brown &
    Traub, J. ACM 18, 1971; Cohen, GTM 138, Alg. 3.3.7 without the content step).

    S is None when the resultant is nonzero; otherwise S lists the coefficients in
    z_j of the last nonzero remainder, gcd(f, g) times a nonzero polynomial in the
    other variables.  The sequence runs on the integer tables of f's and g's
    coefficients in z_j (1-based j), and the denominators, cleared once, are divided
    out at the end.  An operand free of z_j makes the Sylvester matrix diagonal:
    Res = f^dg, or g^df.
    """
    f._check_same_space(g)
    _check_var(j, f.n)
    a, b = _table_rows(f._terms, f.n, j - 1), _table_rows(g._terms, g.n, j - 1)
    df, dg = len(a) - 1, len(b) - 1
    if df < 0:
        raise ZeroPolynomialError("first polynomial is zero")
    if dg < 0:
        raise ZeroPolynomialError("second polynomial is zero")
    if df == 0 or dg == 0:
        return (f ** dg if df == 0 else g ** df), None
    # every entry of the sequence is a minor of the Sylvester matrix, of degree at most
    # dg*deg(f) + df*deg(g), and no product below holds more than max(df, dg) + 1 of them
    _check_degree((max(df, dg) + 1) * (dg * _degree_of(f) + df * _degree_of(g)))
    # Res is homogeneous of degree dg in f's coefficients and df in g's
    den = f._den**dg * g._den**df
    one = {0: 1}
    sign = -1 if df < dg and df * dg % 2 else 1
    if df < dg:
        a, b = b, a
    lc = h = one
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = _pseudo_remainder(a, b, delta)
        if not r:
            return Polynomial.zero(f.n), [_raw(f.n, c, 1) for c in b]
        divisor = _mul_add({}, lc, _table_power(h, delta)) if delta else lc
        a, b = b, r if divisor == one else [_exact_quotient(c, divisor, f.n) for c in r]
        lc = a[-1]
        h = h if delta == 0 else lc if delta == 1 else _exact_quotient(
            _table_power(lc, delta), _table_power(h, delta - 1), f.n)
    d = len(a) - 1
    last = b[0] if d == 1 else _exact_quotient(
        _table_power(b[0], d), _table_power(h, d - 1), f.n)
    return _raw(f.n, last, sign * den), None


def _pseudo_remainder(a: list, b: list, delta: int) -> list:
    """lc(B)^(delta+1) * A mod B over Z[x'], coefficient lists as in `_subresultant_prs`,
    delta = deg A - deg B >= 0; the result has a nonzero last entry, or is []."""
    lead, db = b[-1], len(b) - 1
    r, e = a, delta + 1
    while len(r) > db:
        top, shift = r[-1], len(r) - 1 - db
        r = [_mul_add({}, lead, c) for c in r[:-1]]
        for k, c in enumerate(b[:-1]):
            _mul_add(r[k + shift], top, c, -1)
        while r and not r[-1]:
            r.pop()
        e -= 1
    if e and r:
        scale = _table_power(lead, e)
        r = [_mul_add({}, scale, c) for c in r]
    return r


def _table_power(t: dict, k: int) -> dict:
    """t^k on an integer term table, k >= 1."""
    out = t
    for _ in range(k - 1):
        out = _mul_add({}, out, t)
    return out


def _monomial_key(expo: Sequence[int], n: int) -> int:
    """The key of z^expo, checked to hold n non-negative ints.  An exponent too
    large for its field is past the degree cap, and so is the key."""
    mono = tuple(expo)
    if len(mono) != n:
        raise DimensionMismatchError(f"monomial {mono} has length {len(mono)}, expected {n}")
    if any(type(e) is not int or e < 0 for e in mono):
        raise ValueError(f"exponents must be non-negative ints: {mono}")
    return _pack(mono)


def _pack(expo: Sequence[int]) -> int:
    """The key of z^expo; linear in expo, so a negative entry subtracts its field."""
    key = sum(expo)
    for e in expo:
        key = (key << _FIELD_BITS) + e
    return key


def _unpack(keys: Iterable[int], n: int) -> list[Monomial]:
    """The exponent tuples of n-variable keys, in order: a key's bytes are n + 1
    big-endian unsigned 32-bit words, the degree first."""
    word = _FIELD_BITS // 8
    size, fields = word * (n + 1), f">{n}L"
    return [struct.unpack_from(fields, key.to_bytes(size, "big"), word) for key in keys]


def _var_key(n: int, i: int) -> int:
    """The key of z_i (0-based) in n variables: adding it raises that exponent by 1."""
    return 1 << _FIELD_BITS * n | 1 << _FIELD_BITS * (n - 1 - i)


def _degree_of(p: Polynomial) -> int:
    """p's total degree, read off its largest key; 0 for the zero polynomial."""
    return max(p._terms, default=0) >> _FIELD_BITS * p.n


def _check_degree(degree) -> None:
    """Refuse a result whose total degree could pass MAX_DEGREE and overflow a field."""
    if degree > MAX_DEGREE:
        raise ValueError(
            f"total degree {degree} is above {MAX_DEGREE}, the largest a polynomial holds")


def _check_var(var: int, n: int) -> None:
    if type(var) is not int:  # True would pass below as z1, and 3.0 fail as a tuple index
        raise TypeError(f"variable index must be an int, got {var!r}")
    if not 1 <= var <= n:
        raise VariableIndexError(f"variable index {var} outside 1..{n}")
