#!/usr/bin/env python3
"""Benchmark of the rees package: one workload per run, result as JSON.

    python3 perfbench/run.py --workload tower-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the rees package is imported from its `src`
directory and nowhere else.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it alternates plain and traced passes and reports the
per-layer metrics.  The last line of standard output is the result,
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 when every output
checked out, 1 when a check failed, 2 when rees cannot be imported.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from tracing import SPAN_NAMES, Tracer, summarize

# One thread: keep numpy's BLAS from starting a worker pool when rees imports it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SETUP_REPS = 5
WORKLOAD_NAMES = ("tower-large", "saturate", "check-small")
# Spans that wrap a whole operation: their self time is work the layer spans
# below them do not account for, so trace.layer_share leaves it out.
OUTER_SPANS = ("cli.main", "oracle.saturated_ideal")


def import_rees():
    """Import rees from the checkout's src directory; seconds taken."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import rees
    elapsed = time.perf_counter() - start
    where = os.path.dirname(os.path.abspath(rees.__file__))
    if where != os.path.join(src, "rees"):
        raise ImportError(f"rees was imported from {where}, not from {src}")
    return elapsed


def fresh_import_seconds():
    """Seconds to import rees in a new interpreter, as import_rees does."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import rees; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src")],
                          capture_output=True, text=True, check=True,
                          cwd=ROOT, timeout=60)
    return float(proc.stdout)


def run_pass(workload, instances, tracer, label, problems, kept):
    """Time one operation per instance.

    An instance's first output is kept in `kept` for the checks that follow
    the timed passes; later outputs must equal it.  Returns (operation times,
    failed count): an operation that raises counts as failed, an output that
    differs adds to problems.
    """
    times = []
    failed = 0
    gc.collect()
    for inst in instances:
        workload.prepare(inst)
        scope = tracer.installed() if tracer else contextlib.nullcontext()
        if tracer:
            tracer.instance = f"{label}:{inst.label}"
        out = None
        with scope:
            start = time.perf_counter()
            try:
                out = workload.op(inst)
            except Exception:  # noqa: BLE001 - counted as a failed operation
                failed += 1
                print(f"{inst.label}: operation raised\n"
                      + traceback.format_exc(limit=4), file=sys.stderr)
            elapsed = time.perf_counter() - start
        times.append(elapsed)
        if out is None:
            continue
        if inst.label not in kept:
            kept[inst.label] = out
        elif out != kept[inst.label]:
            problems.append(f"{inst.label}: output differs from its output "
                            f"in an earlier pass")
    return times, failed


def layer_metrics(spans, traced, setup_ranges):
    """Per-layer metrics: medians over traced passes of per-pass totals."""
    per_pass = [(summarize(spans, lo, hi), wall) for lo, hi, wall in traced]

    def med(name, key):
        # median_low keeps counts whole
        return statistics.median_low(
            agg.get(name, {}).get(key, 0) for agg, _ in per_pass)

    metrics = {}
    for name in SPAN_NAMES:
        if name == "cli.load_instance":
            continue
        metrics[f"{name}.s"] = (med(name, "s"), "s")
        metrics[f"{name}.self_s"] = (med(name, "self_s"), "s")
        metrics[f"{name}.calls"] = (med(name, "calls"), "count")
    for name, key in (("generators.recursion_generators", "records"),
                      ("generators.slice_generators", "records"),
                      ("generators.tower_generators", "records"),
                      ("linalg.rref", "cells"),
                      ("linalg.rank", "cells")):
        metrics[f"{name}.{key}"] = (med(name, "work"), "count")
    metrics["oracle.buchberger.basis_max"] = (
        med("oracle.buchberger", "work_max"), "count")
    metrics["oracle.saturate_m.rounds"] = (statistics.median_low(
        agg.get("oracle.buchberger", {}).get("under", {})
        .get("oracle.saturate_m", 0) for agg, _ in per_pass), "count")
    metrics["cli.load_instance.s"] = (statistics.median(
        summarize(spans, lo, hi).get("cli.load_instance", {}).get("s", 0.0)
        for lo, hi in setup_ranges), "s")
    metrics["trace.layer_share"] = (statistics.median(
        sum(agg[name]["self_s"] for name in agg
            if name not in OUTER_SPANS) / wall
        for agg, wall in per_pass), "ratio")
    return metrics


def run(args):
    try:
        import_s = import_rees()
    except ImportError as exc:
        print(f"cannot import rees from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import workloads

    # the import is timed in fresh interpreters too, so setup_s is a median
    imports = [import_s] + [fresh_import_seconds()
                            for _ in range(SETUP_REPS - 1)]

    os.environ.pop("REES_FIELD_P", None)
    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    problems = []
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        setups, setup_ranges = [], []
        for _ in range(SETUP_REPS):
            lo = len(tracer.spans) if tracer else 0
            scope = tracer.installed() if tracer else contextlib.nullcontext()
            with scope:
                if tracer:
                    tracer.instance = "setup"
                start = time.perf_counter()
                instances = workloads.set_up(workload, args.seed, workdir,
                                             args.small)
                setups.append(time.perf_counter() - start)
            if tracer:
                setup_ranges.append((lo, len(tracer.spans)))

        # Passes run until the timed operations add up to --seconds; a traced
        # run alternates plain and traced passes, starting with a plain one.
        plain, traced, kept = [], [], {}
        per_instance = {inst.label: [] for inst in instances}
        attempted = failed = 0
        measured = 0.0
        while not plain or measured < args.seconds or (tracer and not traced):
            use = tracer if tracer and len(plain) > len(traced) else None
            lo = len(tracer.spans) if tracer else 0
            times, bad = run_pass(workload, instances, use,
                                  f"pass{len(plain) + len(traced)}", problems,
                                  kept)
            attempted += len(times)
            failed += bad
            measured += sum(times)
            if use:
                traced.append((lo, len(tracer.spans), sum(times)))
            else:
                plain.append(sum(times))
                for inst, t in zip(instances, times):
                    per_instance[inst.label].append(t)

        # the peak is read before the checks, whose own arrays would set it
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for inst in instances:
            if inst.label in kept:
                problems.extend(workload.check(inst, kept[inst.label]))

    if tracer:
        metrics = layer_metrics(tracer.spans, traced, setup_ranges)
        metrics["trace.overhead_s"] = (
            statistics.median(w for _, _, w in traced)
            - statistics.median(plain), "s")
        tracer.dump(os.path.join(
            WORK, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {
            "wall_s": (statistics.median(plain), "s"),
            "instance_s_p50": (statistics.median(
                statistics.median(t) for t in per_instance.values()), "s"),
            "setup_s": (statistics.median(imports)
                        + statistics.median(setups), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    print("imports " + " ".join(f"{t:.4f}" for t in imports) + " s; set-ups "
          + " ".join(f"{t:.4f}" for t in setups) + " s; plain passes "
          + " ".join(f"{w:.3f}" for w in plain) + " s", file=sys.stderr)
    for label, times in per_instance.items():
        print(f"{label}: median {statistics.median(times):.4f} s over "
              f"{len(times)} plain passes", file=sys.stderr)
    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more problems", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed seconds; whole passes run until reached")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smallest inputs, to exercise the checks quickly")
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
