"""Traced run: per-layer call counts, inclusive and self times, work counts.

The timed runs never trace.  Here untraced and traced passes over the corpus
alternate; the difference of their medians is the tracing overhead.  The
wrappers are installed from outside the package: a function is replaced
wherever a germkit module holds it (germs and elimination import
`make_regular` and `weierstrass_prepare` by name, cli imports most entry
points by name), and a method everywhere its class holds it.

A layer's self time is the time inside its wrapped functions minus the time
of wrapped calls they made (spans nest on a stack).  Work counts are exact,
so two traced runs of one seed report identical counts.
"""

from __future__ import annotations

import importlib
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

# (layer, metric name, module, attribute path)
TARGETS = [
    ("algebra", "mul", "germkit.algebra", "Polynomial.__mul__"),
    ("algebra", "shift", "germkit.algebra", "Polynomial.shift"),
    ("algebra", "exact_div", "germkit.algebra", "Polynomial.exact_div"),
    ("algebra", "evaluate", "germkit.algebra", "Polynomial.evaluate"),
    ("algebra", "substitute", "germkit.algebra", "Polynomial.substitute"),
    ("series", "mul", "germkit.series", "TruncatedSeries.__mul__"),
    ("series", "ts_inverse", "germkit.series", "ts_inverse"),
    ("series", "ts_sqrt", "germkit.series", "ts_sqrt"),
    ("weierstrass", "make_regular", "germkit.weierstrass", "make_regular"),
    ("weierstrass", "weierstrass_prepare", "germkit.weierstrass", "weierstrass_prepare"),
    ("elimination", "resultant", "germkit.elimination", "resultant"),
    ("elimination", "matrix_det", "germkit.elimination", "matrix_det"),
    ("elimination", "discriminant", "germkit.elimination", "discriminant"),
    ("elimination", "coprime_at", "germkit.elimination", "coprime_at"),
    ("germs", "analyze_germ", "germkit.germs", "analyze_germ"),
    ("germs", "is_local_square", "germkit.germs", "is_local_square"),
    ("germs", "newton_polygon", "germkit.germs", "newton_polygon"),
    ("germs", "scan_stability", "germkit.germs", "scan_stability"),
    ("parsing", "parse_poly", "germkit.parsing", "parse_poly"),
    ("parsing", "format_poly", "germkit.parsing", "format_poly"),
    ("cli", "run_cli", "germkit.cli", "run_cli"),
]
LAYERS = ("algebra", "series", "weierstrass", "elimination", "germs", "parsing", "cli")
CERTIFICATE_KINDS = (
    "NonzeroValue", "SmoothPoint", "DegreeOne", "OddVariableOrder", "MonomialUnitSquare",
    "LowestFormNotASquare", "DistinguishedVarDivides", "MultiEdgePolygon",
    "BinomialCoprimeEdge", "BinomialNoncoprimeEdge", "EdgePolynomialSplits", "Undetermined",
)
IMPORTED_MODULES = (
    "germkit", "germkit.algebra", "germkit.series", "germkit.weierstrass",
    "germkit.elimination", "germkit.germs", "germkit.parsing", "germkit.cli",
    "argparse", "json", "fractions",
)
WORK_COUNTS = (
    "algebra.mul.term_pairs", "algebra.exact_div.quotient_terms",
    "elimination.matrix_det.max_size", "weierstrass.make_regular.sheared",
) + tuple(f"germs.decided.{kind}" for kind in CERTIFICATE_KINDS)
IMPORT_PROBES = 3
TIMING_PASSES = 3  # untraced/traced pairs; the overhead compares their medians


def metric_names():
    """Every per-layer metric, in BENCHMARK.json order."""
    names = []
    for layer, fn, _, _ in TARGETS:
        names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.ms"]
    names += [f"{layer}.self_ms" for layer in LAYERS]
    names += WORK_COUNTS
    names += [f"cli.import_ms.{mod}" for mod in IMPORTED_MODULES]
    names += ["trace.untraced_ms", "trace.traced_ms", "trace.overhead_ms"]
    return names


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.stack = []  # child time accumulated by each open span
        self.restore = []

    def wrap(self, layer, key, fn, count=None):
        stack = self.stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[key] += 1
                self.seconds[key] += dt
                self.self_seconds[layer] += dt - child
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for _, _, module, _ in TARGETS:
            importlib.import_module(module)
        modules = [m for name, m in sys.modules.items()
                   if name == "germkit" or name.startswith("germkit.")]
        for layer, fn, module, path in TARGETS:
            owner = sys.modules[module]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
            wrapper = self.wrap(layer, f"{layer}.{fn}", original, COUNTERS.get(f"{layer}.{fn}"))
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self.restore.append((holder, name, original))

    def uninstall(self):
        for holder, name, original in reversed(self.restore):
            setattr(holder, name, original)
        self.restore.clear()


def _count_mul(counts, args, result):
    a, b = args
    counts["algebra.mul.term_pairs"] += a.term_count() * (
        b.term_count() if hasattr(b, "term_count") else 1)


def _count_exact_div(counts, args, result):
    counts["algebra.exact_div.quotient_terms"] += result.term_count()


def _count_det(counts, args, result):
    key = "elimination.matrix_det.max_size"
    counts[key] = max(counts[key], len(args[0]))


def _count_regular(counts, args, result):
    change = result[1].applied_change
    if change is not None and any(change):
        counts["weierstrass.make_regular.sheared"] += 1


def _count_decided(counts, args, result):
    kind = result.certificate.kind if result.certificate is not None else result.kind
    counts[f"germs.decided.{kind}"] += 1


COUNTERS = {
    "algebra.mul": _count_mul,
    "algebra.exact_div": _count_exact_div,
    "elimination.matrix_det": _count_det,
    "weierstrass.make_regular": _count_regular,
    "germs.analyze_germ": _count_decided,
}


def import_times(root):
    """Cumulative import ms per module, median over fresh `-X importtime` runs."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    samples = defaultdict(list)
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "germkit", "--version"],
                              cwd=root, env=env, capture_output=True, text=True, check=True)
        seen = {}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = (part.strip() for part in line[12:].split("|"))
            if cumulative.isdigit():
                seen[name] = int(cumulative) / 1000
        for mod in IMPORTED_MODULES:
            samples[mod].append(seen.get(mod, 0.0))
    return {mod: statistics.median(xs) for mod, xs in samples.items()}


def _one_pass(ops):
    total, attempted, failed, problems = 0.0, 0, 0, []
    for op in ops:
        run = op.trace_run or op.run
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # counted as failed, like the timed runs
            total += time.perf_counter() - t0
            found = [f"{type(exc).__name__}: {exc}"]
        else:
            total += time.perf_counter() - t0
            found = op.check(result)
        attempted += 1
        if found:
            failed += 1
            problems.append(f"{op.name}: {found[0]}")
    return total, attempted, failed, problems


def traced_run(workload, ops, root):
    """Alternate untraced and traced passes; layer numbers come from the first traced one."""
    untraced, traced, problems = [], [], []
    attempted = failed = 0
    first = None
    for _ in range(TIMING_PASSES):
        for tracing in (False, True):
            tracer = Tracer()
            if tracing:
                tracer.install()
            try:
                seconds, att, fail, probs = _one_pass(ops)
            finally:
                tracer.uninstall()
            (traced if tracing else untraced).append(seconds)
            attempted, failed, problems = attempted + att, failed + fail, problems + probs
            if tracing and first is None:
                first = tracer
    tracer = first
    untraced, traced = statistics.median(untraced), statistics.median(traced)

    values = {}
    for layer, fn, _, _ in TARGETS:
        key = f"{layer}.{fn}"
        values[f"{key}.calls"] = (tracer.calls[key], "count")
        values[f"{key}.ms"] = (tracer.seconds[key] * 1000, "ms")
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = (tracer.self_seconds[layer] * 1000, "ms")
    for name in WORK_COUNTS:
        values[name] = (tracer.counts[name], "count")
    for mod, ms in import_times(root).items():
        values[f"cli.import_ms.{mod}"] = (ms, "ms")
    values["trace.untraced_ms"] = (untraced * 1000, "ms")
    values["trace.traced_ms"] = (traced * 1000, "ms")
    values["trace.overhead_ms"] = ((traced - untraced) * 1000, "ms")

    metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in metric_names()}
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "corpus_size": len(ops),
    }
