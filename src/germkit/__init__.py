"""Exact local analysis of polynomial germs at rational points.

The package answers, with exact rational arithmetic and machine-checkable
certificates, whether a polynomial is locally irreducible at a given point,
and scans parametric curves of base points for places where that answer
flips.  Everything is built from sparse exact polynomials, truncated power
series, Weierstrass preparation, and resultants; no floating point anywhere.

`import germkit` loads no submodule: a name below is imported from the
module that defines it when it is first used (PEP 562), so a program that
needs only the parser never loads the germ cascade or the resultants.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the module that defines it
_OWNERS = {name: module for module, names in {
    "algebra": ("Point", "Polynomial", "as_point", "as_rational", "rational_sqrt"),
    "series": ("TruncatedSeries", "ts_inverse", "ts_sqrt"),
    "weierstrass": ("RegularityReport", "WeierstrassData", "apply_shear", "make_regular",
                    "regular_order", "weierstrass_prepare"),
    "elimination": ("CoprimeReport", "coprime_at", "discriminant", "matrix_det", "resultant",
                    "zero_set_discrete"),
    "germs": ("BinomialCoprimeEdge", "DistinguishedVarDivides", "EdgePolynomialSplits",
              "GermQuery", "GermStatus", "IsolatedCriticalPoint", "LowestFormNotASquare",
              "MonomialUnitSquare", "MultiEdgePolygon", "NonzeroValue", "OddVariableOrder",
              "PolygonEdge", "PolynomialSquare", "ScanReport", "ScanSample", "SmoothPoint",
              "analyze_germ", "is_local_square", "newton_polygon", "polygon_verdict",
              "quadratic_germ_test", "scan_stability"),
    "parsing": ("format_poly", "parse_curve", "parse_point", "parse_poly", "parse_rationals"),
    "errors": ("GermkitError", "DimensionMismatchError", "VariableIndexError",
               "ZeroPolynomialError", "NotAUnitError", "NotRegularError", "OrderTooSmallError",
               "DegreeTooSmallError", "NonConstantLeadingCoefficientError",
               "DistinguishedVarDividesError", "ParseError", "UnknownVariableError"),
}.items() for name in names}

__all__ = ["__version__", *_OWNERS]


def __getattr__(name):
    """Import a public name's module on first use, and keep the name here."""
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNERS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
