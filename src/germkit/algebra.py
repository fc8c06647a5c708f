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
Built on it are `_horner` (`substitute`, `evaluate`, `_translate`, the one loop
of `shift` and `apply_shear`, and `_shear_coefficients` of `make_regular`: each
Horner step lifts a fresh row of `_table_rows` in place and accumulates into
it), `_exact_quotient` (`exact_div`), `_table_power` (`**`: repeated products,
which beat squaring on dense tables), `_unit_power` (`series.ts_inverse`,
`series.ts_sqrt`) and `_lift_levels` (`weierstrass_prepare`: the level solve, each
level an integer table over its own gcd-reduced denominator); the last two take
and return Polynomials.  No product loop runs in `_sequence`, the subresultant
sequence: it packs each coefficient in one variable into a single int by Kronecker
substitution (`_kronecker_pack`), runs the sequence on those ints, and unpacks the
result's digits back into a table (`_kronecker_unpack`), under the budget
MAX_PACKED_BITS on a packed size.  It runs on rows: `_subresultant_prs`
(`elimination.resultant` and `coprime_at`) splits f and g, and `_discriminant`
(`elimination.discriminant`) splits f once and reads df/dz_j's rows off f's.
`_table_rows` splits a table by one variable's exponent for `coefficients_in`,
`_horner`, `_quadratic_parts`, `_subresultant_prs` and `_discriminant`.
`_quadratic_parts` (e1 and the discriminant of a*z_n^2 + b*z_n + c),
`_linear_factors` (its factor pair z_n + (e1 -+ r)/2), `_axis_order`
(`regular_order` and the shear rule of `make_regular` and `coprime_at`) and
`_linear_part` (the gradient) read keys for the cascade, and `_isolated_level`
(the isolated critical point test) eliminates on the rows z^b * df/dz_i of the
Jacobian ideal, each built by adding packed keys.  No other module multiplies term
tables.

Ownership is one rule: a kernel writes only into a table it created; `_raw`
and `_canonical` adopt the table they are given; no kernel ever writes into a
Polynomial's table.  So two values may share one table (`p ** 1` and p), which
is safe because neither of them is ever written.
"""

from __future__ import annotations

import itertools
import math
import re
import struct
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    DegreeTooSmallError,
    DimensionMismatchError,
    NonConstantLeadingCoefficientError,
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
# the largest packed size in bits, digits times digit bits, of `_sequence`: 31
# times the 0.53 Mbit of Res(z1^1024 + z2, z1 - z2), the largest any test packs
MAX_PACKED_BITS = 1 << 24
# the most monomials `_isolated_level` spans: of degree <= 12 in 3 variables, 8 in 4, 6 in 5
MAX_JACOBIAN_COLUMNS = 500


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
        _set_n(self, n)
        _set_terms(self, {m: c.numerator * (den // c.denominator) for m, c in table.items() if c})
        _set_den(self, den)

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
        return _sum(self, other, 1)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(other, self, -1)

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

        Each nonzero c_i = a/b is one Horner substitution z_i <- (b*z_i + a)/b, by
        `_translate`; at the zero point the polynomial is returned as it is.
        """
        pt = as_point(point, self.n)
        return _translate(self, pt) if any(pt) else self

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


# the slots' own setters, which write past the refused __setattr__
_set_n, _set_terms, _set_den = (Polynomial.n.__set__, Polynomial._terms.__set__,
                                 Polynomial._den.__set__)


def _raw(n: int, table: dict, den: int) -> Polynomial:
    """The polynomial table / den in n variables (den != 0), in canonical form:
    zero entries dropped, the common gcd divided out, the denominator positive.
    The table is adopted, and copied only to drop a zero or divide a gcd out."""
    if 0 in table.values():
        table = {mono: c for mono, c in table.items() if c}
    g = math.gcd(den, *table.values()) * (1 if den > 0 else -1)
    if g != 1:
        table, den = {m: c // g for m, c in table.items()}, den // g
    return _canonical(n, table, den)


def _canonical(n: int, table: dict, den: int) -> Polynomial:
    """The polynomial table / den in n variables, the table already canonical: no zero
    entry, den > 0 and coprime to the entries' content.  It is adopted, not copied."""
    p = object.__new__(Polynomial)
    _set_n(p, n)
    _set_terms(p, table)
    _set_den(p, den)
    return p


def _sum(a: Polynomial, b: Polynomial, sign: int) -> Polynomial:
    """a + sign * b (sign = 1 or -1) in one pass over both integer tables."""
    a._check_same_space(b)
    den = math.lcm(a._den, b._den)
    lift_a, lift_b = den // a._den, sign * (den // b._den)
    out = {m: c * lift_a for m, c in a._terms.items()}
    for mono, c in b._terms.items():
        out[mono] = out.get(mono, 0) + c * lift_b
    return _raw(a.n, out, den)


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


def _isolated_level(f: Polynomial) -> tuple[int, int] | None:
    """(k, mu) when the origin is an isolated zero of f's gradient, mu = dim O/J being its Milnor
    number (Milnor 1968) and J = (df/dz_1, ..., df/dz_n) in the local ring O; else None.

    V is the span of the rows z^b * df/dz_i cut at total degree K, the largest K with at most
    MAX_JACOBIAN_COLUMNS monomials of degree <= K.  One integer elimination clears a row's
    lowest key by that key's pivot row, dividing out the content, until the key is new and
    the row becomes its pivot (or the row is 0), so the pivots are V's lowest monomials.  k
    is the least degree whose every monomial is a pivot: then m^k lies in J + m^(k+1), so in
    J by Nakayama's lemma.  Below degree k, V is the image of J in O/m^k, so mu counts the
    monomials of degree < k that are not pivots.  None means no such k <= K: undecided.
    """
    n, s, K = f.n, _FIELD_BITS * f.n, _jacobian_cut(f.n)
    cut = f.truncate(K + 1)
    partials = [cut.derivative(i)._terms for i in range(1, n + 1)]
    units, by_degree = [_var_key(n, i) for i in range(n)], [[0]]
    for _ in range(K):  # the keys of the monomials of each degree <= K, by adding var keys
        by_degree.append(sorted({m + u for m in by_degree[-1] for u in units}))
    top, pivots = K + 1 << s, {}
    # the largest b first: their short rows pivot the high keys and clear longer rows without
    # fill-in (on one planted product in 3 variables, 0.3 s against 21 s from the smallest b up)
    for b in (b for keys in reversed(by_degree[:K]) for b in reversed(keys)):
        for partial in partials:
            row = {b + m: c for m, c in partial.items() if b + m < top}
            while row:
                if (low := min(row)) not in pivots:
                    g = math.gcd(*row.values())
                    pivots[low] = {m: c // g for m, c in row.items()}
                    break
                pivot = pivots[low]
                g = math.gcd(pivot[low], row[low])
                lift, drop = pivot[low] // g, row[low] // g
                if lift != 1:
                    row = {m: c * lift for m, c in row.items()}
                _mul_add(row, {0: 1}, pivot, -drop)  # row is a fresh table: written in place
    milnor = 0
    for k, keys in enumerate(by_degree):
        if not (missing := sum(m not in pivots for m in keys)):
            return k, milnor
        milnor += missing
    return None


def _jacobian_cut(n: int) -> int:
    """The degree K `_isolated_level` cuts its rows at in n variables: the largest with at
    most MAX_JACOBIAN_COLUMNS monomials of degree <= K."""
    return next(K for K in itertools.count() if math.comb(n + K + 1, n) > MAX_JACOBIAN_COLUMNS)


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


def _translate(f: Polynomial, coeffs: Sequence[Fraction], j: int = 0) -> Polynomial:
    """f with z_i <- z_i + c_i * z_j for each i, z_0 = 1 (j = 0 shifts to the point c; a 1-based
    j >= 1 shears, c_j = 0): one Horner pass per nonzero c_i = a/b, z_i <- (b*z_i + a*z_j)/b."""
    n, table, scale = f.n, f._terms, f._den
    zj = _var_key(n, j - 1) if j else 0
    for i, c in enumerate(coeffs):
        if c:
            b = c.denominator
            table, lift = _horner(table, n, i, {_var_key(n, i): b, zj: c.numerator}, b)
            scale *= lift
    return _raw(n, table, scale)


def _shear_coefficients(form: Polynomial, j: int, m: int) -> list[Fraction]:
    """The shear `make_regular` chooses from f's lowest form, of degree m (1-based j), putting
    z_j = 1 and the candidates into it as integer rows (z_i <- 0 as {}: no zero entry)."""
    rest, _ = _horner(form._terms, form.n, j - 1, {0: 1}, 1)
    coeffs = [Fraction(0)] * form.n
    for i in range(form.n):
        if i != j - 1:
            for c in range(m + 1):
                candidate, _ = _horner(rest, form.n, i, {0: c} if c else {}, 1)
                if candidate:
                    rest, coeffs[i] = candidate, Fraction(c)
                    break
    return coeffs


def _horner(table: dict, n: int, i: int, rep: dict, rep_scale: int) -> tuple[dict, int]:
    """Substitute z_i <- rep / rep_scale into an integer table (0-based i).

    Returns (result, lift), the substitution being result / lift: with top
    the degree in z_i, lift = rep_scale^top and the row of z_i^k is lifted
    by rep_scale^(top-k), so every Horner step stays in Z[x].  Each row, a fresh
    table of `_table_rows`, is lifted in place (rep_scale 1 leaves it as it is) and
    takes acc * rep in place: neither table nor rep is written.
    """
    rows = _table_rows(table, n, i)
    acc, lift = rows.pop() if rows else {}, 1
    while rows:
        row = rows.pop()
        if rep_scale != 1:
            lift *= rep_scale
            for m in row:
                row[m] *= lift
        acc = _mul_add(row, acc, rep)
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
    guards = _guard_bits(n)
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


def _lift_levels(f: Polynomial, j: int, d: int, order: int) -> tuple[Polynomial, Polynomial]:
    """(w, u) with f = u * w through total degree `order`, u cut at it, for f regular of order
    d >= 1 in z_j (1-based), by the level solve of `germkit.weierstrass`; u0 = f_0 / z_j^d is
    inverted by `_unit_power`.  Each level is a `_raw` value: an integer table, gcd-reduced."""
    n, s, off = f.n, _FIELD_BITS * f.n, _FIELD_BITS * (f.n - j)
    levels: list[dict] = [{} for _ in range(order + 1)]  # f_L over f's denominator
    for mono, c in f._terms.items():
        if (level := (mono >> s) - (mono >> off & _FIELD_MASK)) <= order:
            levels[level][mono] = c
    t_d = d * _var_key(n, j - 1)
    u0 = {m - t_d: c for m, c in levels[0].items()}  # u0 = f_0 / t^d by a key shift
    if any(m & _guard_bits(n) for m in u0):
        raise ValueError("division is not exact")
    u0 = _raw(n, u0, f._den)
    inv = _unit_power(u0, d, -1, 1, Fraction(u0._den, u0._terms[0]))
    u0_parts, inv_parts = _graded(u0._terms, n), _graded(inv._terms, n)
    u, w = {0: u0}, {}
    for level in range(1, order + 1):
        pairs = [(u[a], w[level - a]) for a in u if level - a in w]  # w_L is unknown: a > 0
        if not (levels[level] or pairs):
            continue
        # rest = f_L - sum of u_a * w_(L-a), over den
        den = math.lcm(f._den if levels[level] else 1, *(a._den * b._den for a, b in pairs))
        rest = {m: c * (den // f._den) for m, c in levels[level].items()}
        for a, b in pairs:
            _mul_add(rest, a._terms, b._terms, -(den // (a._den * b._den)))
        # w_L: the terms of rest * u0^(-1) of t-degree below d, so of total degree below top
        top, wl = level + d, {}
        for da, pa in _graded(rest, n).items():
            for db, pb in inv_parts.items():
                if da + db < top:
                    _mul_add(wl, pa, pb)
        wl = _raw(n, wl, den * inv._den)
        # u_L = (rest - u0 * w_L) / t^d: the terms below t^d cancel, so only the others form
        den_u = math.lcm(den, u0._den * wl._den)
        ul = {m: c * (den_u // den) for m, c in rest.items() if m >> s >= top}
        for db, pb in _graded(wl._terms, n).items():
            for da, pa in u0_parts.items():
                if da + db >= top:
                    _mul_add(ul, pa, pb, -(den_u // (u0._den * wl._den)))
        if wl._terms:
            w[level] = wl
        if ul:
            u[level] = _raw(n, {m - t_d: c for m, c in ul.items()}, den_u)
    # the levels, lifted onto one denominator: w, with w_0 = t^d, and u cut at the order
    out = []
    for parts, top in (([_canonical(n, {t_d: 1}, 1), *w.values()], order + d),
                       (u.values(), order + 1)):
        den, table = math.lcm(*(p._den for p in parts)), {}
        for p in parts:
            lift = den // p._den
            table.update((m, c * lift) for m, c in p._terms.items() if m >> s < top)
        out.append(_raw(n, table, den))
    return out[0], out[1]


def _subresultant_prs(f: Polynomial, g: Polynomial, j: int) -> tuple[Polynomial, list | None]:
    """(Res_j(f, g), S) by `_sequence` on f's and g's integer rows in z_j (1-based j), the
    radices D_v read off f and g.  An operand free of z_j makes the Sylvester matrix
    diagonal: Res = f^dg, or g^df."""
    f._check_same_space(g)
    _check_var(j, f.n)
    n = f.n
    a, b = _table_rows(f._terms, n, j - 1), _table_rows(g._terms, n, j - 1)
    df, dg = len(a) - 1, len(b) - 1
    if df < 0:
        raise ZeroPolynomialError("first polynomial is zero")
    if dg < 0:
        raise ZeroPolynomialError("second polynomial is zero")
    if df == 0 or dg == 0:
        return (f ** dg if df == 0 else g ** df), None
    # Res is a minor of the Sylvester matrix, of degree at most dg*deg(f) + df*deg(g)
    _check_degree(dg * _degree_of(f) + df * _degree_of(g))
    # each other variable's (field offset, key, weight): its exponent counts in base D_v + 1
    layout, count = [], 1
    for v in reversed(range(n)):
        if v != j - 1:
            layout.append((_FIELD_BITS * (n - 1 - v), _var_key(n, v), count))
            count *= dg * f.degree_in(v + 1) + df * g.degree_in(v + 1) + 1
    # Res is homogeneous of degree dg in f's coefficients and df in g's
    return _sequence(a, b, layout, count, f._den**dg * g._den**df)


def _discriminant(f: Polynomial, j: int) -> Polynomial:
    """(-1)^(d(d-1)/2) * Res_j(f, df/dz_j) / lc by `_sequence`, for f of degree d >= 2 in z_j
    (1-based j) with a rational constant leading coefficient lc, from one split of f: row k-1
    of df/dz_j is k * row_k, whose keys already have z_j's field zeroed.  Its degrees and
    norms are read off those rows in lowest terms, so the degree cap, the radices D_v and
    the digit size are those `_subresultant_prs` reads off f.derivative(j)."""
    d = f.degree_in(j)  # -inf for the zero polynomial
    if d < 2:
        raise DegreeTooSmallError(f"discriminant needs degree >= 2 in z{j}")
    n, s = f.n, _FIELD_BITS * f.n
    a = _table_rows(f._terms, n, j - 1)
    if a[d].keys() != {0}:
        raise NonConstantLeadingCoefficientError(
            f"leading coefficient in z{j} is not a rational constant")
    b = [{m: k * c for m, c in a[k].items()} for k in range(1, d + 1)]
    common = math.gcd(f._den, *(c for row in b for c in row.values()))
    if common != 1:
        b = [{m: c // common for m, c in row.items()} for row in b]
    # a key of row k holds its term's degree less k; df/dz_j's term of it has degree k - 1 more
    deg_b = max((max(row) >> s) + k - 1 for k, row in enumerate(b, 1) if row)
    _check_degree((d - 1) * _degree_of(f) + d * deg_b)
    layout, count = [], 1
    for v in reversed(range(n)):
        if v != j - 1:  # deg_v f is the largest over the rows, deg_v df/dz_j over rows 1..d
            off = _FIELD_BITS * (n - 1 - v)
            tops = [max((m >> off & _FIELD_MASK for m in row), default=0) for row in a]
            layout.append((off, _var_key(n, v), count))
            count *= (d - 1) * max(tops) + d * max(tops[1:]) + 1
    sign = -1 if d * (d - 1) // 2 % 2 else 1
    # lc = a[d][0] / f._den, and Res is the packed one over f._den^(d-1) * (f._den/common)^d
    den = sign * f._den ** (d - 2) * (f._den // common) ** d * a[d][0]
    return _sequence(a, b, layout, count, den)[0]


def _sequence(a: list, b: list, layout: list, count: int,
              den: int) -> tuple[Polynomial, list | None]:
    """(R / den, S) for the integer rows a and b in z_j of f and g, of degrees df, dg >= 1, and
    R = Res_j of the integer tables, by the subresultant PRS (Collins, J. ACM 14, 1967; Brown &
    Traub, J. ACM 18, 1971; Cohen, GTM 138, Alg. 3.3.7 without the content step).

    S is None when R is nonzero; otherwise S lists the coefficients in z_j of the last
    nonzero remainder, gcd(f, g) times a nonzero polynomial in the other variables.  The
    sequence runs on ints with `*` and exact `//`: each row is packed by Kronecker
    substitution (von zur Gathen & Gerhard, Modern Computer Algebra, 8.4) at X = 2^B, each
    other variable v a digit place of radix D_v + 1, D_v = dg*deg_v(f) + df*deg_v(g): the
    layout lists each one's (field offset, key, weight), the weight the product of the
    radices of the variables after it, and count the product of them all.  Packing is a
    ring map, so it commutes with the products, exact divisions and (unique)
    pseudo-remainders of the sequence.  Every value unpacked, and every leading coefficient
    tested for zero, is a minor of the Sylvester matrix, or one times nonzero minors (a
    pseudo-remainder's entry before its division).  A minor has degree at most D_v in each v
    and coefficients at most H = prod over the rows of (sum_k |c_k|_1^2)^(1/2), c_k the row's
    entries: Hadamard's bound, as each entry is at most its l1-norm on the unit torus, whose
    maximum bounds every coefficient; H <= |f|_1^dg * |g|_1^df.  With B the bit length of H
    plus 2, rounded up to whole bytes, a minor's digits are balanced, so it packs to 0 only
    when it is 0: the degrees and outputs are those of the sequence on the polynomials.  A
    packed size, digits times B, above MAX_PACKED_BITS is refused before any packing.
    """
    n, df, dg = len(layout) + 1, len(a) - 1, len(b) - 1  # the layout skips z_j alone
    # H^2: the product of the Sylvester rows' squared norms, each entry weighed by its l1-norm
    square = math.prod(sum(sum(map(abs, row.values())) ** 2 for row in rows) ** power
                       for rows, power in ((a, dg), (b, df)))
    size = ((square.bit_length() + 1) // 2 + 9) // 8  # bytes per digit: 8*size >= bits(H) + 2
    if 8 * size * count > MAX_PACKED_BITS:
        raise ValueError(f"packed size {count} digits x {8 * size} bits is above "
                         f"MAX_PACKED_BITS = {MAX_PACKED_BITS}, the largest a resultant packs")
    a, b = ([_kronecker_pack(c, layout, size) for c in rows] for rows in (a, b))
    sign = -1 if df < dg and df * dg % 2 else 1
    if df < dg:
        a, b = b, a
    lc = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        # r = lc(b)^(delta+1) * a mod b: a step whose top entry is 0 is skipped, its
        # power of lc(b) put on at the end
        lead, r, e = b[-1], a, delta + 1
        while len(r) >= len(b):
            top, shift = r[-1], len(r) - len(b)
            r = [lead * c for c in r[:-1]]
            for k, c in enumerate(b[:-1], shift):
                r[k] -= top * c
            while r and not r[-1]:
                r.pop()
            e -= 1
        if not r:
            return Polynomial.zero(n), [
                _raw(n, _kronecker_unpack(c, layout, size, count), 1) for c in b]
        if e:
            r = [lead**e * c for c in r]
        divisor = lc * h**delta
        a, b = b, [c // divisor for c in r] if divisor != 1 else r
        lc = a[-1]
        h = h if delta == 0 else lc if delta == 1 else lc**delta // h ** (delta - 1)
    d = len(a) - 1
    last = b[0] if d == 1 else b[0] ** d // h ** (d - 1)
    return _raw(n, _kronecker_unpack(last, layout, size, count), sign * den), None


def _kronecker_pack(row: dict, layout: list, size: int) -> int:
    """An integer table free of the eliminated variable as one int: its monomial x^e is
    the digit place sum e_v * w_v of X = 2^(8*size), w_v the weight of v in the layout."""
    out, bits = 0, 8 * size
    for mono, c in row.items():
        place = 0
        for off, _, weight in layout:
            place += (mono >> off & _FIELD_MASK) * weight
        out += c << bits * place
    return out


# a byte of a digit that is not 0
_NONZERO_BYTE = re.compile(rb"[^\x00]")


def _kronecker_unpack(value: int, layout: list, size: int, count: int) -> dict:
    """The integer table `_kronecker_pack` packed into value, read as count balanced
    digits of size bytes each.  Adding the digit string 2^(8*size-1) in every place and
    flipping its top bits back leaves each digit in two's complement, so a zero digit is
    size zero bytes, which the search skips at C speed."""
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    data = ((value + bias) ^ bias).to_bytes(size * count, "little")
    table, pos = {}, 0
    while found := _NONZERO_BYTE.search(data, pos):
        place = found.start() // size
        pos = (place + 1) * size
        key, rest = 0, place
        for _, unit, weight in reversed(layout):
            e, rest = divmod(rest, weight)
            key += e * unit
        table[key] = int.from_bytes(data[pos - size:pos], "little", signed=True)
    return table


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


def _guard_bits(n: int) -> int:
    """The top bit of each field of an n-variable key: a field gone negative sets its own."""
    return ((1 << _FIELD_BITS * (n + 1)) - 1) // _FIELD_MASK << _FIELD_BITS - 1


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
