"""Text syntax for polynomials, points, and parametric curves.

The expression grammar, with no implicit multiplication:

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | var | '(' expr ')' | '-' base
    var      := 'z' nat            (1-based; 't' instead in curve syntax)
    rational := int ('/' nat)?

"z1z2" is a syntax error; write "z1*z2".  Exponents are literal naturals,
so "z1^-2" is rejected.  Points and t-lists are comma-separated rationals.

format_poly prints graded-lexicographic ascending order with explicit
"*" and "^", and its output re-parses to the same polynomial when no
exponent is above MAX_EXPONENT, the largest exponent the parser accepts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import Point, Polynomial, as_point
from .errors import DimensionMismatchError, ParseError, UnknownVariableError

__all__ = [
    "parse_poly",
    "parse_point",
    "parse_curve",
    "parse_rationals",
    "format_poly",
]

# The largest exponent literal accepted: powers expand in full, and
# (1+z1+z2+z3)^32 takes about a second to expand, ^48 about seven.
MAX_EXPONENT = 32


class _Token(NamedTuple):
    kind: str  # "num", "var", one of "+-*/^()", or "end"
    value: int
    pos: int


def _tokenize(text: str, param: str | None = None, offset: int = 0) -> list[_Token]:
    """Lex one expression.  param names the sole variable ('t' for curves)."""
    tokens = []
    i, end = 0, len(text)
    while i < end:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i + 1
            while j < end and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", int(text[i:j]), offset + i))
            i = j
        elif ch in "+-*/^()":
            tokens.append(_Token(ch, 0, offset + i))
            i += 1
        elif param is None and ch == "z":
            j = i + 1
            while j < end and text[j].isdigit():
                j += 1
            if j == i + 1 or int(text[i + 1 : j]) == 0:
                raise UnknownVariableError(offset + i, text[i:j])
            tokens.append(_Token("var", int(text[i + 1 : j]), offset + i))
            i = j
        elif param is not None and ch == param:
            tokens.append(_Token("var", 1, offset + i))
            i += 1
        else:
            wanted = f"the parameter '{param}'" if param else "a polynomial token"
            raise ParseError(offset + i, wanted, ch)
    tokens.append(_Token("end", 0, offset + end))
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
        found = "end of input" if tok.kind == "end" else _lexeme(tok)
        return ParseError(tok.pos, expected, found)

    def expr(self) -> Polynomial:
        value = self.term()
        while self.peek().kind in "+-":
            if self.advance().kind == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> Polynomial:
        value = self.base()
        if self.peek().kind == "^":
            self.advance()
            if self.peek().kind != "num":
                raise self.fail("a natural-number exponent")
            if self.peek().value > MAX_EXPONENT:
                raise self.fail(f"an exponent of at most {MAX_EXPONENT}")
            value = value ** self.advance().value
        return value

    def base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return -self.base()
        if tok.kind == "num":
            self.advance()
            num = tok.value
            if self.peek().kind == "/":
                self.advance()
                if self.peek().kind != "num" or self.peek().value == 0:
                    raise self.fail("a nonzero natural-number denominator")
                return Polynomial.constant(self.n, Fraction(num, self.advance().value))
            return Polynomial.constant(self.n, Fraction(num))
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

    def finish(self, value: Polynomial) -> Polynomial:
        if self.peek().kind != "end":
            raise self.fail("'+', '-', '*' or end of input")
        return value


def _lexeme(tok: _Token) -> str:
    if tok.kind == "num":
        return str(tok.value)
    if tok.kind == "var":
        return f"z{tok.value}"
    return tok.kind


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
                raise UnknownVariableError(tok.pos, f"z{tok.value}")
    parser = _Parser(tokens, n)
    return parser.finish(parser.expr())


def _split_offsets(text: str) -> list[tuple[str, int]]:
    pieces = []
    offset = 0
    for piece in text.split(","):
        pieces.append((piece, offset))
        offset += len(piece) + 1
    return pieces


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rationals, e.g. "1,1/2,-3/4"."""
    values = []
    for piece, offset in _split_offsets(text):
        try:
            values.append(Fraction(piece))
        except (ValueError, ZeroDivisionError):
            found = piece.strip() or "nothing"
            raise ParseError(offset, "a rational number", found) from None
    return tuple(values)


def parse_point(text: str, n: int | None = None) -> Point:
    """Parse a point as comma-separated rationals, checking arity if n given."""
    values = parse_rationals(text)
    if n is not None and len(values) != n:
        raise DimensionMismatchError(
            f"point has {len(values)} coordinates, expected {n}"
        )
    return as_point(values)


def parse_curve(text: str, n: int | None = None) -> tuple[Polynomial, ...]:
    """Parse a parametric curve "t,0,0" into one-variable polynomials in t."""
    coords = []
    for piece, offset in _split_offsets(text):
        parser = _Parser(_tokenize(piece, param="t", offset=offset), 1)
        coords.append(parser.finish(parser.expr()))
    if n is not None and len(coords) != n:
        raise DimensionMismatchError(
            f"curve has {len(coords)} coordinates, expected {n}"
        )
    return tuple(coords)


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
            show_coeff = mag != 1
            if index == 0 and coeff < 0 and not show_coeff:
                # A leading "-z1^2" would re-parse as (-z1)^2; the explicit
                # coefficient keeps the minus bound to the whole term.
                first_exp = next(e for e in mono if e)
                show_coeff = first_exp > 1
            if show_coeff:
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
