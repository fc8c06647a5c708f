"""Command-line interface.

Subcommands: analyze, scan, prepare, resultant, discriminant, coprime, demo.
Text output is deterministic; --json switches to a machine-readable envelope
{tool, version, command, input, result, timing_ms} where every rational is a
"num/den" string and polynomials are [[exponents, coefficient], ...] term
lists.  Exit codes: 0 success (an Undetermined analysis is a success), 1
usage or domain error, 2 syntax error in an input expression.

Every text line and every `result` field come from one list of rows per
subcommand, each row a (text label, JSON key, value): `_lines` renders the
text and `_payload` the result, so the two cannot state a fact differently.

Each subcommand loads only the modules it runs: the germ cascade
(`germkit.germs`) for analyze, scan and demo, the resultants
(`germkit.elimination`) for resultant, discriminant and coprime, and `json`
under --json alone; the parser, the algebra and Weierstrass preparation are
loaded for every subcommand.  Results are germkit records (`germkit._record`),
so a certificate's fields are read from its `_fields`, and no subcommand
imports `dataclasses` or `inspect`.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from ._record import Record
from .algebra import Polynomial, as_point
from .errors import GermkitError, ParseError, VariableIndexError
from .parsing import _format_point, format_poly, parse_curve, parse_poly, parse_rationals
from .series import DEFAULT_ORDER, MAX_ORDER, TruncatedSeries
from .weierstrass import make_regular, weierstrass_prepare

if TYPE_CHECKING:
    from .germs import GermStatus, ScanReport

DEMO_POLY = "z3^2 - z1*z2^2"
DEMO_CURVE = "t,0,0"
DEMO_T_VALUES = "1,1/2,1/4,1/8"


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit on bad flags."""

    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # every germkit flag is --long, so "-1,0,0" or "-z1^2" is a value
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


# -- rows: the one serializer ------------------------------------------------
# A subcommand's output is one list of rows (text label, JSON key, value).  The
# text is label + _text(value) per row, one line per item of a list value; the
# JSON result maps each key to its value.  A row without a key is text only,
# one without a label JSON only, and the text skips a row whose value is None.


class _Rows(list):
    """A nested row list: its lines inline in the text, a dict in the JSON;
    as an item of a list value, one line of its labelled values."""


def _lines(rows):
    for label, _, value in rows:
        if label is None or value is None:
            continue
        if isinstance(value, _Rows):
            yield from _lines(value)
        else:
            for item in value if isinstance(value, list) else [value]:
                yield label + _text(item)


def _payload(rows) -> dict:
    def encode(value):
        if isinstance(value, _Rows):
            return _payload(value)
        return [encode(v) for v in value] if isinstance(value, list) else value

    return {key: encode(value) for _, key, value in rows if key is not None}


def _text(value) -> str:
    """How a value reads in the text output."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, Polynomial):
        return format_poly(value)
    if isinstance(value, TruncatedSeries):
        return format_poly(value.body)
    if isinstance(value, tuple):
        return _format_point(value)
    if isinstance(value, _Rows):
        return "".join(_lines(value))
    if isinstance(value, Record):  # a certificate; a series, a Record too, is tested above
        return _describe_certificate(value)
    return str(value)


def _encode(value):
    """json.dumps default: how every germkit value in a payload serializes."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Polynomial):
        return [[list(mono), str(coeff)] for mono, coeff in value.terms()]
    if isinstance(value, TruncatedSeries):
        return {"order": value.order, "terms": value.body}
    if isinstance(value, Record):  # a certificate; a series is tested above
        return {"kind": value.kind, **{name: getattr(value, name) for name in value._fields}}
    raise TypeError(f"cannot encode {type(value).__name__} as JSON")


def _describe_shear(change, j: int) -> str | None:
    if change is None:
        return None
    steps = []
    for i, c in enumerate(change, start=1):
        if c != 0:
            sign = "-" if c < 0 else "+"
            steps.append(f"z{i} <- z{i} {sign} {abs(c)}*z{j}")
    return ", ".join(steps)


def _describe_certificate(cert) -> str:
    """Kind(field = value, ...) over the certificate's fields, in JSON order."""
    if cert.kind == "MonomialUnitSquare":
        # the golden transcript pins this form; half_exponents and unit_root
        # are data for checkers, not for the reader
        if cert.symbolic:
            return "MonomialUnitSquare(square root exists but is not rational)"
        return f"MonomialUnitSquare(root = {_text(cert.root)})"
    parts = []
    for name in cert._fields:
        value = getattr(cert, name)
        # a variable is a 1-based index; the reader knows it as z<k>
        text = f"z{value}" if name == "variable" else _text(value)
        parts.append(f"{name} = {text}")
    return f"{cert.kind}(" + ", ".join(parts) + ")"


def _status_rows(status: GermStatus, j: int, label: str = "status: ") -> _Rows:
    factors = None if status.factors is None else [fac.body for fac in status.factors]
    return _Rows([
        (label, "status", status.kind),
        ("shear: ", None, _describe_shear(status.applied_change, j)),
        ("certificate: ", "certificate", status.certificate),
        ("factor: ", "factors", factors),
        ("reason: ", "reason", status.reason),
        (None, "applied_change", status.applied_change),
    ])


def _scan_rows(report: ScanReport, n: int, order: int) -> _Rows:
    witness_t = None if report.witness is None else report.witness.t
    return _Rows([
        ("base point = ", "base_point", report.base_point),
        ("", "base_status", _status_rows(report.base_status, n, "base status: ")),
        ("curve = ", "curve", tuple(format_poly(c).replace("z1", "t") for c in report.curve)),
        ("order = ", None, order),
        ("", "samples", [_Rows([
            ("t = ", "t", s.t),
            (": point ", "point", s.point),
            (", ", None, "on locus" if s.on_locus else "off locus"),
            (None, "on_locus", s.on_locus),
            (", ", "status", s.status.kind),
        ]) for s in report.samples]),
        ("verdict: ", "verdict", report.verdict),
        ("witness: t = ", "witness_t", witness_t),
        ("reason: ", "reason", report.reason),
    ])


# -- input plumbing -----------------------------------------------------------


def _parse_var_flag(text: str | None, n: int) -> int:
    """Index of the --var variable; the last of n variables when not given."""
    if not text:
        return n
    raw = text.strip()
    digits = raw[1:] if raw.startswith("z") else raw
    if not digits.isdecimal() or int(digits) == 0:  # decimal digits, as in parse_poly
        raise _UsageError(f"--var expects a variable like z2, got {text!r}")
    j = int(digits)
    if j > n:
        raise VariableIndexError(f"variable z{j} out of range for {n} variable(s)")
    return j


def _parse_inputs(ns, *poly_texts):
    """Parse polynomials, --point (default: origin) and --var in one dimension n.

    n is the largest variable count among the polynomials and the point, at
    least 1; polynomials in fewer variables widen to n, and a point shorter
    than n is an error.  Returns (polynomials, point, variable index), and
    puts the point and z<j> in place of the flags' text in ns, for the echo.
    """
    polys = [parse_poly(text) for text in poly_texts]
    values = () if getattr(ns, "point", None) is None else parse_rationals(ns.point)
    n = max(1, len(values), *(f.n for f in polys))
    point = as_point(values or (0,) * n, n)
    polys = [
        f if f.n == n else parse_poly(text, var_count=n)
        for f, text in zip(polys, poly_texts)
    ]
    j = _parse_var_flag(getattr(ns, "var", None), n)
    if "point" in ns:
        ns.point = point
    if "var" in ns:
        ns.var = f"z{j}"
    return polys, point, j


# -- subcommand handlers ------------------------------------------------------
# Each returns its rows.  The JSON input echo is every flag in argparse order,
# with --point and --var as parsed; demo has no input flags and puts the input
# it runs on in their place.


def _cmd_analyze(ns):
    from .germs import GermQuery, analyze_germ

    (f,), point, _ = _parse_inputs(ns, ns.poly)
    status = analyze_germ(GermQuery(f, point, ns.order))
    return [
        ("f = ", None, f),
        ("point = ", None, point),
        ("order = ", None, ns.order),
        *_status_rows(status, f.n),
    ]


def _cmd_scan(ns):
    from .germs import scan_stability

    (f,), point, _ = _parse_inputs(ns, ns.poly)
    curve = parse_curve(ns.curve, f.n)
    report = scan_stability(f, point, curve, parse_rationals(ns.t), ns.order)
    return [("f = ", None, f), *_scan_rows(report, f.n, ns.order)]


def _cmd_prepare(ns):
    (f,), point, j = _parse_inputs(ns, ns.poly)
    sheared, regularity = make_regular(f.shift(point), j)
    change = regularity.applied_change
    wd = weierstrass_prepare(sheared, j, ns.order)
    w = wd.weierstrass_polynomial
    embedded = w.coefficients_in(j)[wd.degree - 1::-1]  # e_1, ..., e_d: w's rows in z_j
    return [
        ("f = ", None, f),
        ("point = ", None, point),
        (None, "degree", wd.degree),
        ("distinguished variable: z", "distinguished_var", j),
        ("order = ", "order", ns.order),
        ("shear: ", None, _describe_shear(change, j)),
        (None, "applied_change", change),
        ("degree d = ", None, wd.degree),
        ("w = ", "weierstrass_polynomial", w),
        *((f"e_{i} = ", None, e) for i, e in enumerate(embedded, start=1)),
        (None, "coefficients", embedded),
        ("unit = ", "unit", wd.unit),
        (f"u*w agrees with f through total degree {ns.order}: ", "multiply_back_ok",
         wd.multiply_back() == TruncatedSeries(sheared, ns.order)),
    ]


def _cmd_eliminate(ns):
    """resultant of --f and --g, or discriminant of --poly, in --var."""
    from .elimination import discriminant, resultant

    if ns.command == "resultant":
        (f, g), _, j = _parse_inputs(ns, ns.f, ns.g)
        r = resultant(f, g, j)
    else:
        (f,), _, j = _parse_inputs(ns, ns.poly)
        r = discriminant(f, j)
    return [("", ns.command, format_poly(r)), (None, "terms", r), (None, "var", j)]


def _cmd_coprime(ns):
    from .elimination import coprime_at, zero_set_discrete

    (g, h), point, j = _parse_inputs(ns, ns.g, ns.h)
    rep = coprime_at(g, h, point, j)
    r = rep.resultant_poly
    return [
        ("g = ", None, g),
        ("h = ", None, h),
        ("point = ", None, point),
        ("eliminated variable: z", None, j),
        ("shear: ", None, _describe_shear(rep.applied_change, j)),
        ("resultant (remaining variables renumbered): ", "resultant", format_poly(r)),
        (None, "terms", r),
        (None, "var", j),
        (None, "applied_change", rep.applied_change),
        ("germs coprime at the point: ", "coprime", rep.coprime_germ_at_point),
        ("resultant vanishes at the point: ", "vanishes_at_point", rep.vanishing_at_point),
        ("resultant zero set discrete near the point: ", "zero_set_discrete",
         zero_set_discrete(r, tuple(Fraction(0) for _ in range(r.n)))),
    ]


def _cmd_demo(ns):
    from .germs import scan_stability

    N = ns.order
    f = parse_poly(DEMO_POLY)
    origin = (Fraction(0),) * 3
    curve = parse_curve(DEMO_CURVE, 3)
    report = scan_stability(f, origin, curve, parse_rationals(DEMO_T_VALUES), N)
    near = next(s for s in report.samples if s.t == 1)  # the sample at (1, 0, 0)
    # U(0) = 4 there has a rational square root, so the factors exist at every order
    a, b = near.status.factors
    target, _ = make_regular(f.shift(near.point), 3)
    multiply_back = a * b == TruncatedSeries(target, N)
    del ns.topic, ns.order  # the echo is the input the demo runs on
    vars(ns).update(poly=DEMO_POLY, point=origin, curve=DEMO_CURVE, t=DEMO_T_VALUES, order=N)

    # the scan's text is its samples and verdict alone; its JSON is all of it
    scan = _Rows((label if key in ("samples", "verdict") else None, key, value)
                 for label, key, value in _scan_rows(report, 3, N))
    return [
        ("counterexample: local irreducibility is not stable in three variables", None, ""),
        ("", None, ""),
        ("f = ", "poly", DEMO_POLY),
        ("", None, ""),
        ("[1] analyze at the origin", None, ""),
        ("", "origin", _Rows([(None, "point", origin),
                              *_status_rows(report.base_status, 3)])),
        ("", None, ""),
        ("", "nearby", _Rows([
            ("[2] analyze at ", "point", near.point),
            *_status_rows(near.status, 3),
            (f"factors multiply back to f at {_text(near.point)}: ", None,
             f"{_text(multiply_back)} (through total degree {N})"),
            (None, "factors_multiply_back", multiply_back),
        ])),
        ("", None, ""),
        ("[3] scan along (t, 0, 0) with t in {" + DEMO_T_VALUES.replace(",", ", ") + "}",
         None, ""),
        ("", "scan", scan),
        ("", None, ""),
        ("f is irreducible at the origin yet reducible at (t, 0, 0) for every", None, ""),
        ("sampled t != 0, so irreducibility fails arbitrarily close to the origin.", None, ""),
    ]


# -- parser and entry points --------------------------------------------------


def _add_common(sub, run, order=True):
    if order:
        sub.add_argument("--order", type=int, default=DEFAULT_ORDER,
                         help=f"series truncation order N, at most {MAX_ORDER} "
                              f"(default {DEFAULT_ORDER})")
    sub.add_argument("--json", action="store_true",
                     help="emit a JSON report instead of text")
    sub.set_defaults(run=run)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="germkit",
        description="Exact local irreducibility analysis of polynomial germs.",
    )
    parser.add_argument("--version", action="version",
                        version=f"germkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_ArgumentParser)

    p = sub.add_parser("analyze", help="classify the germ of a polynomial at a point")
    p.add_argument("--poly", required=True, help="polynomial in z1, z2, ...")
    p.add_argument("--point", required=True, help="comma-separated rationals")
    _add_common(p, _cmd_analyze)

    p = sub.add_parser("scan", help="classify germs along a parametric curve")
    p.add_argument("--poly", required=True, help="polynomial in z1, z2, ...")
    p.add_argument("--point", required=True, help="base point, comma-separated")
    p.add_argument("--curve", required=True,
                   help="curve through the base point, e.g. \"t,0,0\"")
    p.add_argument("--t", default=DEMO_T_VALUES,
                   help=f"parameter samples (default {DEMO_T_VALUES})")
    _add_common(p, _cmd_scan)

    p = sub.add_parser("prepare",
                       help="Weierstrass preparation at a point (default: origin)")
    p.add_argument("--poly", required=True, help="polynomial in z1, z2, ...")
    p.add_argument("--point", help="expansion point (default: origin)")
    p.add_argument("--var", help="distinguished variable (default: last)")
    _add_common(p, _cmd_prepare)

    p = sub.add_parser("resultant", help="eliminate one variable from two polynomials")
    p.add_argument("--f", required=True, help="first polynomial")
    p.add_argument("--g", required=True, help="second polynomial")
    p.add_argument("--var", required=True, help="variable to eliminate, e.g. z2")
    _add_common(p, _cmd_eliminate, order=False)

    p = sub.add_parser("discriminant",
                       help="discriminant with respect to one variable")
    p.add_argument("--poly", required=True, help="polynomial in z1, z2, ...")
    p.add_argument("--var", required=True, help="variable, e.g. z2")
    _add_common(p, _cmd_eliminate, order=False)

    p = sub.add_parser("coprime",
                       help="test two germs for a common factor at a point")
    p.add_argument("--g", required=True, help="first polynomial")
    p.add_argument("--h", required=True, help="second polynomial")
    p.add_argument("--point", help="base point (default: origin)")
    p.add_argument("--var", help="variable to eliminate (default: last)")
    _add_common(p, _cmd_coprime, order=False)

    p = sub.add_parser("demo", help="run a built-in worked example")
    p.add_argument("topic", nargs="?", default="counterexample", choices=["counterexample"],
                   help="demo name")
    _add_common(p, _cmd_demo)

    return parser


def run_cli(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out):  # --help and --version print here
            ns = _build_parser().parse_args(argv)
        started = time.perf_counter()
        rows = ns.run(ns)
        if ns.json:
            import json

            envelope = {
                "tool": "germkit",
                "version": __version__,
                "command": ns.command,
                "input": {k: v for k, v in vars(ns).items()
                          if k not in ("command", "json", "run")},
                "result": _payload(rows),
                "timing_ms": round((time.perf_counter() - started) * 1000, 3),
            }
            text = json.dumps(envelope, indent=2, default=_encode)
        else:
            text = "\n".join(_lines(rows))
    except SystemExit as exc:  # --help / --version print and exit themselves
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return 2
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except (GermkitError, ValueError) as exc:
        print(f"error: {_error_message(exc)}", file=err)
        return 1
    print(text, file=out)
    return 0


def _error_message(exc: Exception) -> str:
    """exc's message, save that a number too long to print is named in germkit's terms."""
    if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
        limit = sys.get_int_max_str_digits()
        return (f"the result holds a number of more than {limit} digits, over the "
                f"interpreter's limit for printing an integer (sys.get_int_max_str_digits() "
                f"= {limit}); it was computed but cannot be printed")
    return str(exc)


def main() -> None:
    try:
        code = run_cli()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early: let the interpreter's final flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
