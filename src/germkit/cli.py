"""Command-line interface.

Subcommands: analyze, scan, prepare, resultant, discriminant, coprime, demo.
Text output is deterministic; --json switches to a machine-readable envelope
{tool, version, command, input, result, timing_ms} where every rational is a
"num/den" string and polynomials are [[exponents, coefficient], ...] term
lists.  Exit codes: 0 success (an Undetermined analysis is a success), 1
usage or domain error, 2 syntax error in an input expression.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .algebra import Polynomial, as_point
from .elimination import coprime_at, discriminant, resultant, zero_set_discrete
from .errors import GermkitError, ParseError, VariableIndexError
from .germs import GermQuery, GermStatus, ScanReport, analyze_germ, scan_stability
from .germs import _format_point
from .parsing import format_poly, parse_curve, parse_poly, parse_rationals
from .series import TruncatedSeries
from .weierstrass import MAX_ORDER, make_regular, weierstrass_prepare

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


# -- JSON payloads ------------------------------------------------------------


def _encode(value):
    """json.dumps default: how every germkit value in a payload serializes."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Polynomial):
        return [[list(mono), str(coeff)] for mono, coeff in value.terms()]
    if isinstance(value, TruncatedSeries):
        return {"order": value.order, "terms": value.body}
    if dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return {"kind": value.kind, **fields}
    raise TypeError(f"cannot encode {type(value).__name__} as JSON")


def _status_payload(status: GermStatus) -> dict:
    factors = None
    if status.factors is not None:
        factors = [fac.body for fac in status.factors]
    return {
        "status": status.kind,
        "certificate": status.certificate,
        "factors": factors,
        "reason": status.reason,
        "applied_change": status.applied_change,
    }


def _scan_payload(report: ScanReport) -> dict:
    return {
        "base_point": report.base_point,
        "base_status": _status_payload(report.base_status),
        "curve": [_format_curve_coord(c) for c in report.curve],
        "samples": [
            {
                "t": s.t,
                "point": s.point,
                "on_locus": s.on_locus,
                "status": s.status.kind,
            }
            for s in report.samples
        ],
        "verdict": report.verdict,
        "witness_t": report.witness.t if report.witness is not None else None,
        "reason": report.reason,
    }


# -- text rendering -----------------------------------------------------------


def _format_curve_coord(c: Polynomial) -> str:
    return format_poly(c).replace("z1", "t")


def _describe_shear(change, j: int) -> str:
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
        return f"MonomialUnitSquare(root = {format_poly(cert.root.body)})"
    parts = []
    for field in dataclasses.fields(cert):
        value = getattr(cert, field.name)
        if field.name == "variable":
            text = f"z{value}"  # a 1-based index; the reader knows it as z<k>
        elif isinstance(value, Polynomial):
            text = format_poly(value)
        elif isinstance(value, tuple):
            text = _format_point(value)
        else:
            text = str(value)
        parts.append(f"{field.name} = {text}")
    return f"{cert.kind}(" + ", ".join(parts) + ")"


def _status_lines(status: GermStatus, j: int) -> list[str]:
    lines = [f"status: {status.kind}"]
    if status.applied_change is not None:
        lines.append(f"shear: {_describe_shear(status.applied_change, j)}")
    if status.certificate is not None:
        lines.append(f"certificate: {_describe_certificate(status.certificate)}")
    if status.factors is not None:
        for fac in status.factors:
            lines.append(f"factor: {format_poly(fac.body)}")
    if status.reason is not None:
        lines.append(f"reason: {status.reason}")
    return lines


def _sample_line(s) -> str:
    where = "on locus" if s.on_locus else "off locus"
    return f"t = {s.t}: point {_format_point(s.point)}, {where}, {s.status.kind}"


# -- input plumbing -----------------------------------------------------------


def _parse_var_flag(text: str | None, n: int) -> int:
    """Index of the --var variable; the last of n variables when not given."""
    if not text:
        return n
    raw = text.strip()
    digits = raw[1:] if raw.startswith("z") else raw
    if not digits.isdigit() or int(digits) == 0:
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
# Each returns (text lines, result payload); the JSON input echo is every
# flag in argparse order, with --point and --var as parsed.  demo has no
# input flags and returns the input it runs on as a third item.


def _cmd_analyze(ns):
    (f,), point, _ = _parse_inputs(ns, ns.poly)
    status = analyze_germ(GermQuery(f, point, ns.order))
    lines = [
        f"f = {format_poly(f)}",
        f"point = {_format_point(point)}",
        f"order = {ns.order}",
        *_status_lines(status, f.n),
    ]
    return lines, _status_payload(status)


def _cmd_scan(ns):
    (f,), point, _ = _parse_inputs(ns, ns.poly)
    curve = parse_curve(ns.curve, f.n)
    t_values = parse_rationals(ns.t)
    report = scan_stability(f, point, curve, t_values, ns.order)
    curve_text = "(" + ", ".join(_format_curve_coord(c) for c in curve) + ")"
    base = _status_lines(report.base_status, f.n)
    lines = [
        f"f = {format_poly(f)}",
        f"base point = {_format_point(point)}",
        "base " + base[0],
        *base[1:],
        f"curve = {curve_text}",
        f"order = {ns.order}",
    ]
    lines += [_sample_line(s) for s in report.samples]
    lines.append(f"verdict: {report.verdict}")
    if report.witness is not None:
        lines.append(f"witness: t = {report.witness.t}")
    if report.reason is not None:
        lines.append(f"reason: {report.reason}")
    return lines, _scan_payload(report)


def _cmd_prepare(ns):
    (f,), point, j = _parse_inputs(ns, ns.poly)
    shifted = f.shift(point)
    sheared, report = make_regular(shifted, j)
    change = report.applied_change
    wd = weierstrass_prepare(sheared, j, ns.order)
    w = wd.weierstrass_polynomial()
    ok = wd.multiply_back() == TruncatedSeries(sheared, ns.order)

    lines = [
        f"f = {format_poly(f)}",
        f"point = {_format_point(point)}",
        f"distinguished variable: z{j}",
        f"order = {ns.order}",
    ]
    if change is not None:
        lines.append(f"shear: {_describe_shear(change, j)}")
    lines.append(f"degree d = {wd.degree}")
    lines.append(f"w = {format_poly(w)}")
    embedded = [e.body.insert_variable(j) for e in wd.coefficients]
    for i, e in enumerate(embedded, start=1):
        lines.append(f"e_{i} = {format_poly(e)}")
    lines.append(f"unit = {format_poly(wd.unit.body)}")
    lines.append(f"u*w agrees with f through total degree {ns.order}: "
                 + ("yes" if ok else "NO"))

    result = {
        "degree": wd.degree,
        "distinguished_var": j,
        "order": ns.order,
        "applied_change": change,
        "weierstrass_polynomial": w,
        "coefficients": embedded,
        "unit": wd.unit,
        "multiply_back_ok": ok,
    }
    return lines, result


def _cmd_eliminate(ns):
    """resultant of --f and --g, or discriminant of --poly, in --var."""
    if ns.command == "resultant":
        (f, g), _, j = _parse_inputs(ns, ns.f, ns.g)
        r = resultant(f, g, j)
    else:
        (f,), _, j = _parse_inputs(ns, ns.poly)
        r = discriminant(f, j)
    return [format_poly(r)], {ns.command: format_poly(r), "terms": r, "var": j}


def _cmd_coprime(ns):
    (g, h), point, j = _parse_inputs(ns, ns.g, ns.h)
    rep = coprime_at(g, h, point, j)
    r = rep.resultant_poly
    discrete = zero_set_discrete(r, tuple(Fraction(0) for _ in range(r.n)))

    lines = [
        f"g = {format_poly(g)}",
        f"h = {format_poly(h)}",
        f"point = {_format_point(point)}",
        f"eliminated variable: z{j}",
    ]
    if rep.applied_change is not None:
        lines.append(f"shear: {_describe_shear(rep.applied_change, j)}")
    lines.append(f"resultant (remaining variables renumbered): {format_poly(r)}")
    lines.append("germs coprime at the point: "
                 + ("yes" if rep.coprime_germ_at_point else "no"))
    lines.append("resultant vanishes at the point: "
                 + ("yes" if rep.vanishing_at_point else "no"))
    lines.append("resultant zero set discrete near the point: "
                 + ("yes" if discrete else "no"))

    result = {
        "resultant": format_poly(r),
        "terms": r,
        "var": j,
        "applied_change": rep.applied_change,
        "coprime": rep.coprime_germ_at_point,
        "vanishes_at_point": rep.vanishing_at_point,
        "zero_set_discrete": discrete,
    }
    return lines, result


def _cmd_demo(ns):
    if ns.topic != "counterexample":
        raise _UsageError(f"unknown demo topic {ns.topic!r}")
    N = ns.order
    f = parse_poly(DEMO_POLY)
    origin = (Fraction(0),) * 3
    curve = parse_curve(DEMO_CURVE, 3)
    report = scan_stability(f, origin, curve, parse_rationals(DEMO_T_VALUES), N)
    near = next(s for s in report.samples if s.t == 1)  # the sample at (1, 0, 0)

    multiply_back = None
    if near.status.factors is not None:
        target, _ = make_regular(f.shift(near.point), 3)
        a, b = near.status.factors
        multiply_back = a * b == TruncatedSeries(target, N)

    lines = [
        "counterexample: local irreducibility is not stable in three variables",
        "",
        f"f = {format_poly(f)}",
        "",
        "[1] analyze at the origin",
        *_status_lines(report.base_status, 3),
        "",
        f"[2] analyze at {_format_point(near.point)}",
        *_status_lines(near.status, 3),
    ]
    if multiply_back is not None:
        lines.append(
            f"factors multiply back to f at {_format_point(near.point)}: "
            + ("yes" if multiply_back else "NO")
            + f" (through total degree {N})"
        )
    lines += [
        "",
        "[3] scan along (t, 0, 0) with t in {" + DEMO_T_VALUES.replace(",", ", ") + "}",
    ]
    lines += [_sample_line(s) for s in report.samples]
    lines += [
        f"verdict: {report.verdict}",
        "",
        "f is irreducible at the origin yet reducible at (t, 0, 0) for every",
        "sampled t != 0, so irreducibility fails arbitrarily close to the origin.",
    ]

    inputs = {
        "poly": DEMO_POLY,
        "point": origin,
        "curve": DEMO_CURVE,
        "t": DEMO_T_VALUES,
        "order": N,
    }
    result = {
        "poly": DEMO_POLY,
        "origin": {
            "point": origin,
            **_status_payload(report.base_status),
        },
        "nearby": {
            "point": near.point,
            **_status_payload(near.status),
            "factors_multiply_back": multiply_back,
        },
        "scan": _scan_payload(report),
    }
    return lines, result, inputs


_HANDLERS = {
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "prepare": _cmd_prepare,
    "resultant": _cmd_eliminate,
    "discriminant": _cmd_eliminate,
    "coprime": _cmd_coprime,
    "demo": _cmd_demo,
}


# -- parser and entry points --------------------------------------------------


def _add_common(sub, order=True):
    if order:
        sub.add_argument("--order", type=int, default=8,
                         help=f"series truncation order N, at most {MAX_ORDER} (default 8)")
    sub.add_argument("--json", action="store_true",
                     help="emit a JSON report instead of text")


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
    _add_common(p)

    p = sub.add_parser("scan", help="classify germs along a parametric curve")
    p.add_argument("--poly", required=True, help="polynomial in z1, z2, ...")
    p.add_argument("--point", required=True, help="base point, comma-separated")
    p.add_argument("--curve", required=True,
                   help="curve through the base point, e.g. \"t,0,0\"")
    p.add_argument("--t", default=DEMO_T_VALUES,
                   help=f"parameter samples (default {DEMO_T_VALUES})")
    _add_common(p)

    p = sub.add_parser("prepare",
                       help="Weierstrass preparation at a point (default: origin)")
    p.add_argument("--poly", required=True, help="polynomial in z1, z2, ...")
    p.add_argument("--point", help="expansion point (default: origin)")
    p.add_argument("--var", help="distinguished variable (default: last)")
    _add_common(p)

    p = sub.add_parser("resultant", help="eliminate one variable from two polynomials")
    p.add_argument("--f", required=True, help="first polynomial")
    p.add_argument("--g", required=True, help="second polynomial")
    p.add_argument("--var", required=True, help="variable to eliminate, e.g. z2")
    _add_common(p, order=False)

    p = sub.add_parser("discriminant",
                       help="discriminant with respect to one variable")
    p.add_argument("--poly", required=True, help="polynomial in z1, z2, ...")
    p.add_argument("--var", required=True, help="variable, e.g. z2")
    _add_common(p, order=False)

    p = sub.add_parser("coprime",
                       help="test two germs for a common factor at a point")
    p.add_argument("--g", required=True, help="first polynomial")
    p.add_argument("--h", required=True, help="second polynomial")
    p.add_argument("--point", help="base point (default: origin)")
    p.add_argument("--var", help="variable to eliminate (default: last)")
    _add_common(p, order=False)

    p = sub.add_parser("demo", help="run a built-in worked example")
    p.add_argument("topic", nargs="?", default="counterexample",
                   help="demo name (counterexample)")
    _add_common(p)

    return parser


def run_cli(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        ns = _build_parser().parse_args(argv)
        started = time.perf_counter()
        lines, result, *fixed_input = _HANDLERS[ns.command](ns)
    except SystemExit as exc:  # --help / --version print and exit themselves
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return 2
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except (GermkitError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 1

    if ns.json:
        flags = {k: v for k, v in vars(ns).items() if k not in ("command", "json")}
        envelope = {
            "tool": "germkit",
            "version": __version__,
            "command": ns.command,
            "input": fixed_input[0] if fixed_input else flags,
            "result": result,
            "timing_ms": round((time.perf_counter() - started) * 1000, 3),
        }
        print(json.dumps(envelope, indent=2, default=_encode), file=out)
    else:
        print("\n".join(lines), file=out)
    return 0


def main() -> None:
    try:
        code = run_cli()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early: let the interpreter's final flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
