"""Timed operations and their checks, one list per workload.

An Op's `run` is the single germkit call that gets timed; `check` turns its
result into a list of problems through the independent checkers.  Inputs
(Polynomial objects, queries, curves, command lines) are built here, in
set-up, so a timed call does nothing but the library's own work.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import checks
import corpus
from checks import (
    check_discriminant,
    check_resultant,
    check_status,
    localize,
    peval,
    poly_dict,
    status_view,
)
import germkit
from germkit import GermQuery, Polynomial, parse_poly


@dataclass
class Op:
    name: str
    cost_class: str
    run: Callable
    check: Callable
    trace_run: Callable | None = None  # in-process stand-in for `run` in a traced run


def build(workload, seed, root):
    return BUILDERS[workload](seed, root)


def _call(name, *args):
    """germkit.<name>(*args), looked up at call time so a traced run sees it."""
    return getattr(germkit, name)(*args)


# -- classify -------------------------------------------------------------------------


def classify_ops(seed, root):
    ops = []
    for c in corpus.classify_corpus(seed):
        query = GermQuery(Polynomial(c.n, c.f), c.point, c.order)
        ops.append(Op(c.name, c.family, partial(_call, "analyze_germ", query), partial(_check_germ, c)))
    return ops


def _check_germ(c, status):
    return check_status(c.f, c.point, c.n, c.order, c.truth, status_view(status),
                        c.extra.get("symbolic"))


# -- scan -------------------------------------------------------------------------------


def scan_ops(seed, root):
    ops = []
    for c in corpus.scan_corpus(seed):
        f = Polynomial(c.n, c.f)
        curve = tuple(Polynomial(1, coord) for coord in c.extra["curve"])
        run = partial(_call, "scan_stability", f, c.point, curve, c.extra["t"], c.order)
        ops.append(Op(c.name, c.family, run, partial(_check_scan, c)))
    return ops


def _check_scan(c, report):
    problems = []
    if report.verdict != c.truth:
        return [f"verdict {report.verdict}, truth {c.truth}"]
    problems += check_status(c.f, c.point, c.n, c.order, "irreducible",
                             status_view(report.base_status))
    ts = c.extra["t"]
    if tuple(s.t for s in report.samples) != ts:
        return problems + ["samples out of input order"]
    for s in report.samples:
        q = tuple(peval(coord, (s.t,)) for coord in c.extra["curve"])
        if tuple(s.point) != q or not s.on_locus or peval(c.f, q) != 0:
            problems.append(f"sample t={s.t}: point or locus flag wrong")
            continue
        if c.truth == "Stable-evidence":
            truth, symbolic = "smooth", None
        else:
            truth, symbolic = "reducible", s.t not in c.extra["squares"]
        problems += [f"t={s.t}: {p}" for p in check_status(
            c.f, q, c.n, c.order, truth, status_view(s.status), symbolic)]
    witness = None if report.witness is None else report.witness.t
    if witness != (ts[0] if c.truth == "Unstable" else None):
        problems.append(f"witness t={witness}")
    return problems


# -- eliminate ------------------------------------------------------------------------------


def eliminate_ops(seed, root):
    ops = []
    for c in corpus.eliminate_corpus(seed):
        x = c.extra
        f = Polynomial(c.n, c.f)
        if c.family == "discriminant":
            run = partial(_call, "discriminant", f, x["j"])
        elif c.family == "resultant":
            run = partial(_call, "resultant", f, Polynomial(c.n, x["g"]), x["j"])
        else:
            run = partial(_call, "coprime_at", f, Polynomial(c.n, x["g"]), c.point, x["j"])
        ops.append(Op(c.name, f"size{x['size']}", run, partial(_check_elim, c)))
    return ops


def _check_elim(c, result):
    x = c.extra
    if c.family == "discriminant":
        return check_discriminant(poly_dict(result), c.f, x["j"], x["points"])
    if c.family == "resultant":
        return check_resultant(poly_dict(result), c.f, x["g"], x["j"], x["points"])
    problems = []
    if result.coprime_germ_at_point != (c.truth == "coprime"):
        problems.append(f"coprime = {result.coprime_germ_at_point}, truth {c.truth}")
    change = result.applied_change
    g = localize(c.f, c.point, x["j"], change)
    h = localize(x["g"], c.point, x["j"], change)
    R = poly_dict(result.resultant_poly)
    problems += check_resultant(R, g, h, x["j"], x["points"], drop=True)
    if result.vanishing_at_point != (peval(R, (0,) * (c.n - 1)) == 0):
        problems.append("vanishing_at_point disagrees with the resultant")
    return problems


# -- cli ------------------------------------------------------------------------------------


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def cli_ops(seed, root):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    ops = []
    for c in corpus.cli_corpus(seed):
        argv = _cli_argv(c)
        for fmt in ("text", "json"):
            args = argv + (["--json"] if fmt == "json" else [])
            ops.append(Op(f"{c.name}-{fmt}", c.name, partial(_spawn, args, env, root),
                          partial(_check_cli, c, fmt), partial(_in_process, args)))
    return ops


def _cli_argv(c):
    """Command line of one case; values go in --flag=value form, because
    argparse takes a separate value that starts with '-' for an option."""
    t, pt = corpus.poly_text, corpus.point_text
    if c.name == "analyze":
        flags = {"poly": t(c.f), "point": pt(c.point)}
    elif c.name == "scan":
        flags = {"poly": t(c.f), "point": pt(c.point),
                 "curve": ",".join(_curve_text(coord) for coord in c.extra["curve"]),
                 "t": pt(c.extra["t"])}
    elif c.name == "prepare":
        flags = {"poly": t(c.f), "point": pt(c.point)}
    elif c.name == "resultant":
        flags = {"f": t(c.f), "g": t(c.extra["g"]), "var": f"z{c.extra['j']}"}
    elif c.name == "discriminant":
        flags = {"poly": t(c.f), "var": f"z{c.extra['j']}"}
    elif c.name == "coprime":
        flags = {"g": t(c.f), "h": t(c.extra["g"]), "point": pt(c.point),
                 "var": f"z{c.extra['j']}"}
    else:
        return ["demo", "counterexample"]
    return [c.name] + [f"--{k}={v}" for k, v in flags.items()]


def _curve_text(coord):
    return " + ".join(f"({c})*t^{m[0]}" if m[0] else f"({c})" for m, c in sorted(coord.items()))


def _spawn(args, env, cwd):
    """Run `python -m germkit args` as a fresh process; collect its peak RSS."""
    proc = subprocess.Popen([sys.executable, "-m", "germkit", *args], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out, err, usage.ru_maxrss)


def _in_process(args):
    """The same command through germkit.cli.run_cli, for the traced run."""
    from germkit import cli  # imported here, so set-up of other workloads never pays for it

    out, err = io.StringIO(), io.StringIO()
    rc = cli.run_cli(args, stdout=out, stderr=err)
    return CliResult(rc, out.getvalue(), err.getvalue(), 0)


def _check_cli(c, fmt, result):
    if result.returncode != 0 or result.stderr:
        return [f"exit {result.returncode}: {result.stderr.strip()[:200]}"]
    if fmt == "json":
        try:
            doc = json.loads(result.stdout)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        return _CLI_JSON_CHECKS[c.name](c, doc["result"])
    return _CLI_TEXT_CHECKS[c.name](c, result.stdout.splitlines())


def _line_value(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def _terms(payload):
    return {tuple(m): Fraction(c) for m, c in payload}


def _want(got, want, what):
    return [] if got == want else [f"{what}: {got!r}, expected {want!r}"]


def _text_poly(text, n):
    return poly_dict(parse_poly(text, var_count=n))


def _check_prepare_json(c, r):
    # unit * w must reproduce the shifted (sheared) germ through the order
    j, N, change = r["distinguished_var"], r["order"], r["applied_change"]
    if change is not None:
        change = [Fraction(x) for x in change]
    local = checks.ptrunc(localize(c.f, c.point, j, change), N)
    product = checks.ptrunc(checks.pmul(_terms(r["unit"]["terms"]),
                                        _terms(r["weierstrass_polynomial"])), N)
    return (_want(r["multiply_back_ok"], True, "multiply_back_ok")
            + _want(r["degree"], 2, "degree")
            + _want(product == local, True, "unit*w == f through the order"))


def _check_elim_cli(c, R):
    x = c.extra
    if c.name == "discriminant":
        return check_discriminant(R, c.f, x["j"], x["points"])
    return check_resultant(R, c.f, x["g"], x["j"], x["points"])


_CLI_TEXT_CHECKS = {
    "analyze": lambda c, ls: _want(_line_value(ls, "status:"), "SingularIrreducible", "status"),
    "scan": lambda c, ls: _want(_line_value(ls, "verdict:"), "Unstable", "verdict"),
    "prepare": lambda c, ls: (
        _want(_line_value(ls, "degree d ="), "2", "degree")
        + _want(_line_value(ls, "u*w agrees with f through total degree 8:"), "yes", "multiply-back")),
    "resultant": lambda c, ls: _check_elim_cli(c, _text_poly(ls[0], c.n)),
    "discriminant": lambda c, ls: _check_elim_cli(c, _text_poly(ls[0], c.n)),
    "coprime": lambda c, ls: _want(_line_value(ls, "germs coprime at the point:"),
                                   "yes" if c.truth == "coprime" else "no", "coprime"),
    "demo": lambda c, ls: (
        _want(_line_value(ls, "verdict:"), "Unstable", "verdict")
        + _want(_line_value(ls, "factors multiply back to f at (1, 0, 0):"),
                "yes (through total degree 8)", "multiply-back")),
}

_CLI_JSON_CHECKS = {
    "analyze": lambda c, r: _want(r["status"], "SingularIrreducible", "status"),
    "scan": lambda c, r: (_want(r["verdict"], "Unstable", "verdict")
                          + _want(r["witness_t"], str(c.extra["t"][0]), "witness")),
    "prepare": _check_prepare_json,
    "resultant": lambda c, r: _check_elim_cli(c, _terms(r["terms"])),
    "discriminant": lambda c, r: _check_elim_cli(c, _terms(r["terms"])),
    "coprime": lambda c, r: _want(r["coprime"], c.truth == "coprime", "coprime"),
    "demo": lambda c, r: (_want(r["scan"]["verdict"], "Unstable", "verdict")
                          + _want(r["nearby"]["factors_multiply_back"], True,
                                  "factors_multiply_back")),
}


BUILDERS = {
    "classify": classify_ops,
    "scan": scan_ops,
    "eliminate": eliminate_ops,
    "cli": cli_ops,
}
