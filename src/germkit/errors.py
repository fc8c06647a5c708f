"""Exception types shared across the toolkit."""

from __future__ import annotations


class GermkitError(Exception):
    """Base class for all toolkit-specific errors."""


class DimensionMismatchError(GermkitError):
    """Operands disagree on the ambient variable count."""


class VariableIndexError(GermkitError):
    """A 1-based variable index lies outside 1..n."""


class ZeroPolynomialError(GermkitError):
    """The operation is undefined for the zero polynomial."""


class NotAUnitError(GermkitError):
    """The series has zero constant term and is not invertible."""


class NotRegularError(GermkitError):
    """The germ vanishes identically on the distinguished axis."""


class OrderTooSmallError(GermkitError):
    """The requested truncation order is below the regularity order."""


class DegreeTooSmallError(GermkitError):
    """The discriminant needs degree at least two in the chosen variable."""


class NonConstantLeadingCoefficientError(GermkitError):
    """The leading coefficient in the chosen variable is not a constant."""


class DistinguishedVarDividesError(GermkitError):
    """The distinguished variable divides the germ."""


class ParseError(GermkitError):
    """Syntax error in a polynomial expression.

    Carries the byte offset of the offending lexeme, what token class was
    expected, and what was actually found.
    """

    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"expected {expected}, found {found!r} at offset {position}")


class UnknownVariableError(ParseError):
    """Variable token with index 0 or a non-numeric suffix."""

    def __init__(self, position: int, found: str):
        self.position = position
        self.expected = "variable z<k> with k >= 1"
        self.found = found
        Exception.__init__(
            self, f"unknown variable {found!r} at offset {position} (indices are 1-based)"
        )
