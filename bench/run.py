#!/usr/bin/env python3
"""Fixed-corpus benchmark for germkit.

    python3 bench/run.py --workload {classify,scan,eliminate,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/germkit`.  The seed builds a
fixed corpus (see corpus.py); the timed run then makes whole passes over it
in a closed loop from this single process, one operation after the other,
until S seconds have gone by (at least MIN_PASSES passes).  Every result of
every pass is checked (checks.py); a wrong or Undetermined answer, or an
exception, counts as a failed operation.  Every timing is scaled to a fixed
host speed by a yardstick computation measured beside it (yardstick.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes instead and prints the per-layer metrics (tracing.py).  The
last line of standard output is one JSON object {correct, attempted,
failed, metrics}; a fuller record goes to bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("classify", "scan", "eliminate", "cli")
MIN_PASSES = 5
SETUP_PROBES = 5  # spread over the run, between passes, like the passes themselves
REF_EVERY = 0.25  # seconds of run between two yardsticks inside a long pass
# a percentile sits on a cost-class boundary when the operations this share
# of the corpus below and above it differ by more than BOUNDARY_RATIO
BOUNDARY_SPAN = 0.05
BOUNDARY_RATIO = 2.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up only and print the wall-clock time when ready")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "germkit", "__init__.py")):
        print(f"germkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    if args.setup_probe:
        setup(args.workload, args.seed)
        print(repr(time.time()))
        return 0

    import checks

    failures = checks.self_test()
    if failures:
        print("checker self-test failed:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 3

    ops = setup(args.workload, args.seed)
    if args.trace:
        import tracing

        record = tracing.traced_run(args.workload, ops, ROOT)
    else:
        record = timed_run(args.workload, args.seed, ops, args.seconds)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace)

    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for problem in record["problems"][:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def setup(workload, seed):
    """Import germkit, build the inputs, warm up with the corpus's first operation."""
    import ops as ops_module

    ops = ops_module.build(workload, seed, ROOT)
    ops[0].run()
    return ops


def setup_probe(workload, seed):
    """Seconds from starting a fresh process to its being ready for the first op,
    and the fresh-process yardstick measured right after it."""
    import yardstick

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    started = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    ready = float(done.stdout.strip().splitlines()[-1]) - started
    return ready, yardstick.measure(fresh_process=True)


def timed_run(workload, seed, ops, seconds):
    """Whole passes until `seconds` have gone by; every timing host-scaled.

    The yardstick (yardstick.py) is measured after every pass, and also
    between the operations of a pass once REF_EVERY seconds have gone by
    since the last one.  Each timing is multiplied by NOMINAL_S / (the mean
    of the two yardsticks around it), which removes the host's changes of
    speed, even those that last only a second.  For `cli`, and for the
    set-up probes, the yardstick runs as a fresh process, as those
    operations do.
    """
    import yardstick

    fresh = workload == "cli"  # the yardstick runs the way the operations run
    nominal = yardstick.NOMINAL_FRESH_S if fresh else yardstick.NOMINAL_S
    samples = [[] for _ in ops]  # per op: (segment, seconds)
    passes = []  # per pass: [(segment, seconds), ...]
    attempted, failed, problems = 0, 0, []
    first = [None] * len(ops)
    consistent = True
    rss_kb = 0
    probes = []  # (set-up seconds, fresh-process yardstick seconds beside it)
    refs = [yardstick.measure(fresh)]
    last_ref = time.perf_counter()
    start = last_ref
    deadline = start + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        if time.perf_counter() - start >= len(probes) * seconds / SETUP_PROBES:
            probes.append(setup_probe(workload, seed))
        gc.collect()
        this_pass = []
        for i, op in enumerate(ops):
            if time.perf_counter() - last_ref >= REF_EVERY:
                refs.append(yardstick.measure(fresh))
                last_ref = time.perf_counter()
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a crash is a failed operation, not a dead run
                dt = time.perf_counter() - t0
                result, found = None, [f"{type(exc).__name__}: {exc}"]
            else:
                dt = time.perf_counter() - t0
                found = op.check(result)
            attempted += 1
            samples[i].append((len(refs) - 1, dt))
            this_pass.append((len(refs) - 1, dt))
            if found:
                failed += 1
                problems.append(f"{op.name}: {found[0]}")
            rss_kb = max(rss_kb, getattr(result, "maxrss_kb", 0))
            if not found and getattr(result, "maxrss_kb", None) is None:
                if first[i] is None:
                    first[i] = result
                elif first[i] != result:
                    consistent = False
                    problems.append(f"{op.name}: result changed between passes")
        passes.append(this_pass)
        refs.append(yardstick.measure(fresh))
        last_ref = time.perf_counter()

    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload, seed))
    # segment k, the timings between refs[k] and refs[k + 1], is scaled by their mean
    scale = [nominal * 2 / (a + b) for a, b in zip(refs, refs[1:])]
    if workload != "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics, per_op, pass_s = summary(
        ops,
        [[dt * scale[seg] for seg, dt in xs] for xs in samples],
        [sum(dt * scale[seg] for seg, dt in p) for p in passes],
        [dt * yardstick.NOMINAL_FRESH_S / y for dt, y in probes],
        rss_kb,
    )
    raw_metrics, _, raw_pass_s = summary(
        ops,
        [[dt for _, dt in xs] for xs in samples],
        [sum(dt for _, dt in p) for p in passes],
        [dt for dt, _ in probes],
        rss_kb,
    )
    return {
        "correct": consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw_metrics": raw_metrics,
        "problems": problems,
        "passes": len(passes),
        "corpus_size": len(ops),
        "samples": attempted,
        "pass_s": pass_s,
        "raw_pass_s": raw_pass_s,
        "yardstick_s": refs,
        "setup_samples_s": probes,
        "boundary": boundary_check(per_op),
        "per_op_median_ms": [(name, cls, round(t * 1000, 3)) for t, name, cls in per_op],
    }


def summary(ops, times, pass_s, setup_s, rss_kb):
    """End-to-end metrics, per-op medians and pass times from the timings."""
    pooled = sorted(x for xs in times for x in xs)
    metrics = {
        "ops_per_s": (len(ops) / statistics.median(pass_s), "1/s"),
        "latency_p50_ms": (statistics.median(pooled) * 1000, "ms"),
        "latency_p90_ms": (statistics.quantiles(pooled, n=10, method="inclusive")[8] * 1000, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    per_op = sorted(
        (statistics.median(xs), op.name, op.cost_class) for xs, op in zip(times, ops)
    )
    return {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}, per_op, pass_s


def boundary_check(per_op):
    """For p50 and p90: cost ratio of the operations BOUNDARY_SPAN around them."""
    n = len(per_op)
    k = max(1, round(BOUNDARY_SPAN * n))
    out = {}
    for label, q in (("p50", 0.5), ("p90", 0.9)):
        r = round(q * (n - 1))
        lo, hi = per_op[max(r - k, 0)], per_op[min(r + k, n - 1)]
        ratio = hi[0] / lo[0] if lo[0] > 0 else float("inf")
        out[label] = {"ratio": round(ratio, 3), "below": lo[1], "above": hi[1],
                      "on_boundary": ratio > BOUNDARY_RATIO}
        if ratio > BOUNDARY_RATIO:
            print(f"warning: {label} sits on a cost-class boundary "
                  f"({lo[1]} -> {hi[1]}, x{ratio:.2f})", file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.exit(main())
