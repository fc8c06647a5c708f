"""Text syntax for polynomials, points, and parametric curves.

The expression grammar, with no implicit multiplication:

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | base ('^' nat)?
    base     := rational | var | '(' expr ')'
    var      := 'z' nat            (1-based; 't' instead in curve syntax)
    rational := int ('/' nat)?

A point or t-list is literal (',' literal)* with literal := '-'? rational,
and a curve is expr (',' expr)* in 't'.  "z1z2" is a syntax error; write
"z1*z2".  Exponents are literal naturals, so "z1^-2" is rejected.  So is a
number with more digits than the interpreter converts to an int
(sys.get_int_max_str_digits).

format_poly prints graded-lexicographic ascending order with explicit
"*" and "^", and its output re-parses to the same polynomial when no
exponent is above MAX_EXPONENT, the largest exponent the parser accepts.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb

from ._record import Record
from .algebra import Point, Polynomial, as_point
from .errors import DimensionMismatchError, ParseError, UnknownVariableError

# The largest exponent literal accepted: powers expand in full, and
# (1+z1+z2+z3)^32 takes about a second to expand, ^48 about seven.
MAX_EXPONENT = 32
# The most terms a product or power may expand to, by the bound of
# `_Parser.capped`: (1+z1+z2+z3)^32 (6,545 terms) parses; (1+z1+...+z8)^10
# (43,758 terms) and ^32 (about 77 million) fail before they expand.
MAX_TERMS = 10_000


class _Token(Record):
    kind: str  # "num", "var", one of "+-*/^(),", or "end"
    value: int
    pos: int
    text: str  # the lexeme as written


def _digits(text: str, i: int) -> tuple[int, int]:
    """(end, value) of the run of decimal digits at text[i] (value 0 if empty)."""
    j = i
    while j < len(text) and text[j].isdecimal():
        j += 1
    try:
        return j, int(text[i:j] or 0)
    except ValueError:  # only the interpreter's limit on integer-string digits
        limit = f"a number of at most {sys.get_int_max_str_digits()} digits"
        raise ParseError(i, limit, f"{j - i} digits") from None


def _tokenize(text: str, param: str | None = None) -> list[_Token]:
    """Lex text in z1, z2, ..., or, when param is given, in that sole variable
    ('t' for curves, '' for none: points and t-lists)."""
    tokens = []
    i, end = 0, len(text)
    while i < end:
        ch, j = text[i], i + 1
        if ch.isspace():
            i = j
            continue
        if ch.isdecimal():
            kind, (j, value) = "num", _digits(text, i)
        elif ch in "+-*/^(),":
            kind, value = ch, 0
        elif param is None and ch == "z":
            kind, (j, value) = "var", _digits(text, j)
            if value == 0:
                raise UnknownVariableError(i, text[i:j])
        elif param and ch == param:
            kind, value = "var", 1
        else:
            wanted = {None: "a polynomial token", "": "a rational number"}.get(
                param, f"the parameter '{param}'")
            raise ParseError(i, wanted, ch)
        tokens.append(_Token(kind, value, i, text[i:j]))
        i = j
    tokens.append(_Token("end", 0, end, ""))
    return tokens


class _Parser:
    """Recursive descent over the token list, building a Polynomial in n vars."""

    def __init__(self, tokens: list[_Token], n: int):
        self.tokens = tokens
        self.n = n
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str) -> ParseError:
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else tok.text
        return ParseError(tok.pos, expected, found)

    def expr(self) -> Polynomial:
        value = self.term()
        while self.peek().kind in "+-":
            if self.advance().kind == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def capped(self, tok: _Token, terms: int, degree: int) -> None:
        """Reject, at tok, an expansion that could have more than MAX_TERMS terms.

        terms bounds its term count from the operands' term counts; degree
        bounds its total degree, and so its term count by C(n + degree, n).
        """
        if terms > MAX_TERMS and comb(self.n + degree, self.n) > MAX_TERMS:
            raise ParseError(tok.pos, f"an expansion of at most {MAX_TERMS} terms", tok.text)

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek().kind == "*":
            star = self.advance()
            right = self.factor()
            self.capped(star, value.term_count() * right.term_count(),
                        value.total_degree() + right.total_degree())
            value = value * right
        return value

    def factor(self) -> Polynomial:
        if self.peek().kind == "-":  # binds looser than '^', as in Python: -z1^2 = -(z1^2)
            self.advance()
            return -self.factor()
        value = self.base()
        if self.peek().kind == "^":
            self.advance()
            if self.peek().kind != "num":
                raise self.fail("a natural-number exponent")
            k = self.peek().value
            if k > MAX_EXPONENT:
                raise self.fail(f"an exponent of at most {MAX_EXPONENT}")
            t = value.term_count()
            if t > 1:  # a monomial's power is a monomial
                self.capped(self.peek(), comb(t + k - 1, k), k * value.total_degree())
            value = value ** self.advance().value
        return value

    def base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "num":
            return Polynomial.constant(self.n, self.rational())
        if tok.kind == "var":
            self.advance()
            return Polynomial.variable(self.n, tok.value)
        if tok.kind == "(":
            self.advance()
            value = self.expr()
            if self.peek().kind != ")":
                raise self.fail("')'")
            self.advance()
            return value
        raise self.fail("a number, a variable, '(' or '-'")

    def rational(self) -> Fraction:
        """rational := int ('/' nat)?, from the "num" token at hand."""
        num = self.advance().value
        if self.peek().kind != "/":
            return Fraction(num)
        self.advance()
        if self.peek().kind != "num" or self.peek().value == 0:
            raise self.fail("a nonzero natural-number denominator")
        return Fraction(num, self.advance().value)

    def literal(self) -> Fraction:
        """'-'? rational: one entry of a point or t-list."""
        sign = -1 if self.peek().kind == "-" and self.advance() else 1
        if self.peek().kind != "num":
            raise self.fail("a rational number")
        return sign * self.rational()

    def listed(self, item) -> tuple:
        """item (',' item)* through the end of input."""
        values = [item()]
        while self.peek().kind == ",":
            self.advance()
            values.append(item())
        if self.peek().kind != "end":
            raise self.fail("',' or end of input")
        return tuple(values)

    def finish(self, value: Polynomial) -> Polynomial:
        if self.peek().kind != "end":
            raise self.fail("'+', '-', '*' or end of input")
        return value


def parse_poly(text: str, var_count: int | None = None) -> Polynomial:
    """Parse an expression in z1, z2, ...

    When var_count is omitted the ambient dimension is the largest variable
    index that appears (0 for a constant).  When given, any z<k> with
    k > var_count is rejected.
    """
    tokens = _tokenize(text)
    if var_count is None:
        n = max((t.value for t in tokens if t.kind == "var"), default=0)
    else:
        n = var_count
        for tok in tokens:
            if tok.kind == "var" and tok.value > n:
                raise UnknownVariableError(tok.pos, tok.text)
    parser = _Parser(tokens, n)
    return parser.finish(parser.expr())


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of literals '-'? rational, e.g. "1,1/2,-3/4"."""
    parser = _Parser(_tokenize(text, param=""), 0)
    return parser.listed(parser.literal)


def parse_point(text: str, n: int | None = None) -> Point:
    """Parse a point as comma-separated rationals, checking arity if n given."""
    return as_point(parse_rationals(text), n)


def parse_curve(text: str, n: int | None = None) -> tuple[Polynomial, ...]:
    """Parse a parametric curve "t,0,0" into one-variable polynomials in t."""
    parser = _Parser(_tokenize(text, param="t"), 1)
    coords = parser.listed(parser.expr)
    if n is not None and len(coords) != n:
        raise DimensionMismatchError(
            f"curve has {len(coords)} coordinates, expected {n}"
        )
    return coords


def format_poly(f: Polynomial) -> str:
    """Canonical text form, ascending graded-lex, re-parseable up to MAX_EXPONENT."""
    if f.is_zero():
        return "0"
    parts = []
    for index, (mono, coeff) in enumerate(f.terms()):
        mag = -coeff if coeff < 0 else coeff
        factors = []
        if not any(mono):
            factors.append(str(mag))
        else:
            if mag != 1:
                factors.append(str(mag))
            for var, exp in enumerate(mono, start=1):
                if exp == 1:
                    factors.append(f"z{var}")
                elif exp > 1:
                    factors.append(f"z{var}^{exp}")
        body = "*".join(factors)
        if index == 0:
            parts.append("-" + body if coeff < 0 else body)
        else:
            parts.append((" - " if coeff < 0 else " + ") + body)
    return "".join(parts)


def _format_point(p: tuple) -> str:
    return "(" + ", ".join(str(c) for c in p) + ")"
