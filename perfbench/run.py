#!/usr/bin/env python3
"""Benchmark of the hadaldp package, run from the root of a checkout.

    python3 perfbench/run.py --workload {oracle,heavy,table} --seed N \
        --seconds S --trace {0,1}

One process, no threads.  The run sets the workload up several times and
reports the median as setup_s, runs one warm-up op, then runs ops back to
back for S seconds (and at least MIN_OPS), checking every op's outputs.
With --trace 0 it then runs one more, untimed op under tracemalloc for
op_peak_mb, and prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs every op twice, plain and traced, and prints the
per-layer metrics, from spans recorded by wrapping the package's public
functions (see tracer.py).  Informational lines start with "#"; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.

The package is imported from src/ next to this directory; without it the
run exits with an error and prints no result.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "hadaldp" / "__init__.py").is_file():
    sys.exit(f"run.py: no hadaldp sources under {SRC}; "
             "run it from the root of a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from hadaldp import backend  # noqa: E402

SETUP_REPEATS = 5
MIN_OPS = 3


def tail(values, better):
    """The tail on the bad side: p90 (p10 where higher is better) from ten
    samples on, the worst sample below that."""
    high = better == "higher"
    if len(values) < 10:
        return ("min", min(values)) if high else ("max", max(values))
    p = 10 if high else 90
    return f"p{p}", float(np.percentile(values, p))


def report(log, name, unit, values, better):
    label, t = tail(values, better)
    log(f"# {name}: median {statistics.median(values):.6g} {unit}, "
        f"{label} {t:.6g} {unit}, n={len(values)}")
    return statistics.median(values)


def stamp():
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=10,
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "hadaldp").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {"commit": commit, "src_sha256": src.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "backend": backend.get_backend(), "numba": have_numba}



def measure(wl, seconds, trace, log=print):
    """Set up, warm up, run ops for `seconds`; return the result object."""
    setups, inputs = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs.add(wl.setup())
        setups.append(time.perf_counter() - t0)
    correct = len(inputs) == 1     # the seed alone fixes the inputs
    log("# stamp " + json.dumps(stamp(), sort_keys=True))
    t0 = time.perf_counter()
    correct = wl.check_setup() and correct
    log(f"# set-up checks: {'pass' if correct else 'FAIL'} "
        f"in {time.perf_counter() - t0:.3f} s")

    tr = tracer.Tracer() if trace else None
    plain, traced = [], []
    warm = wl.op(0)
    attempted, failed = 1, int(not warm.ok)
    start = time.perf_counter()
    i = 1
    # quality metrics pool the first wl.quality_ops ops, so a seed gives
    # the same figures however many ops fit in the time
    min_ops = max(MIN_OPS, 0 if trace else wl.quality_ops)
    while len(plain) < min_ops or time.perf_counter() - start < seconds:
        if trace:
            # the traced op repeats op i, in alternating order, so both
            # do the same work and must give the same estimates
            if i % 2:
                p = wl.op(i)
                t = wl.op(i, tr)
            else:
                t = wl.op(i, tr)
                p = wl.op(i)
            t.ok = t.ok and t.digest == p.digest
            traced.append(t)
        else:
            p = wl.op(i)
        plain.append(p)
        for op in (p, t) if trace else (p,):
            attempted += 1
            failed += int(not op.ok)
            log(f"# op {i}{' traced' if op is not p else ''}: "
                f"wall {op.wall_s:.4f} s (build {op.build_s:.4f} s, "
                f"queries {op.query_s:.4f} s), {'ok' if op.ok else 'FAILED'}, "
                f"digest {op.digest}")
        i += 1

    if trace:
        metrics = layer_metrics(wl, tr, traced, plain, log)
    else:
        op, peak_mb = op_peak(wl, i)
        attempted += 1
        failed += int(not op.ok)
        log(f"# op {i} under tracemalloc: peak {peak_mb:.6g} MB, "
            f"{'ok' if op.ok else 'FAILED'}, digest {op.digest}")
        metrics = end_to_end(wl, setups, plain, peak_mb, log)
    return {"correct": bool(correct and failed == 0), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def op_peak(wl, i):
    """Run op i untimed under tracemalloc; return it and the peak, in MB,
    of the memory it allocates (numpy buffers included), on top of what
    set-up holds."""
    tracemalloc.start()
    try:
        op = wl.op(i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return op, peak / 2**20


def end_to_end(wl, setups, ops, peak_mb, log):
    first = ops[:wl.quality_ops]
    quality = workloads.pooled([o.quality for o in first])
    log(f"# p99_abs_err: {quality['p99_abs_err']:.6g} count over "
        f"{sum(o.quality.abs_err.size for o in first)} estimates (not gated)")
    vals = {
        "setup_s": ("s", "lower", setups),
        "run_s": ("s", "lower", [o.wall_s for o in ops]),
        "users_per_s": ("1/s", "higher", [wl.n / o.build_s for o in ops]),
        "queries_per_s": ("1/s", "higher",
                          [o.queries / o.query_s for o in ops]),
        "mean_abs_err": ("count", "lower", [quality["mean_abs_err"]]),
        "recall": ("ratio", "higher", [quality["recall"]]),
        "precision": ("ratio", "higher", [quality["precision"]]),
        "state_bytes": ("bytes", "lower", [o.state_bytes for o in first]),
        "op_peak_mb": ("MB", "lower", [peak_mb]),
    }
    return {name: {"value": float(report(log, name, unit, v, better)),
                   "unit": unit}
            for name, (unit, better, v) in vals.items()}


def layer_metrics(wl, tr, traced, plain, log):
    """Per-op means over the traced ops, so that self times plus the
    uncovered remainder add up to the traced wall, and the tracing
    overhead as the median of traced minus plain wall over op pairs."""
    k = len(traced)
    vals = tr.layer_values(k)
    levels = range(1, workloads.LEVELS + 1)

    def by_round(counter, rnd, scale=1):
        # rounds are tree levels (1..L) and the refinement (L + 1) only
        # inside hh.run; other workloads count builds by op
        return counter[rnd] * scale / k if wl.name == "heavy" else 0.0

    for tau in levels:
        pre = f"heavy_hitters.level{tau}"
        vals[f"{pre}.build_s"] = by_round(tr.build_ns, tau, 1e-9)
        vals[f"{pre}.candidates"] = by_round(tr.query_calls, tau)
        vals[f"{pre}.survivors"] = sum(o.level_sizes[tau - 1] for o in traced
                                       if len(o.level_sizes) >= tau) / k
        vals[f"{pre}.query_s"] = by_round(tr.query_ns, tau, 1e-9)
    vals["heavy_hitters.refine.build_s"] = by_round(
        tr.build_ns, workloads.LEVELS + 1, 1e-9)
    cand = sum(vals[f"heavy_hitters.level{t}.candidates"] for t in levels)
    surv = sum(vals[f"heavy_hitters.level{t}.survivors"] for t in levels)
    vals["heavy_hitters.survival_ratio"] = surv / cand if cand else 0.0
    vals["quality.false_pos"] = sum(o.quality.false_pos for o in traced) / k

    wall = sum(o.wall_s for o in traced) / k
    vals["trace.wall_s"] = wall
    vals["trace.uncovered_s"] = wall - tr.root_ns / 1e9 / k
    vals["trace.overhead_s"] = statistics.median(
        t.wall_s - p.wall_s for p, t in zip(plain, traced))
    covered = sum(v for name, v in vals.items()
                  if name.endswith(".self_s"))
    log(f"# traced ops: {k}, wall {wall:.4f} s = self times {covered:.4f} s"
        f" + uncovered {vals['trace.uncovered_s']:.4f} s")
    for layer, st in tr.stats.items():
        log(f"#   {layer}: self {st.self_ns / 1e9 / k:.4f} s "
            f"({100 * st.self_ns / 1e9 / k / wall:.1f}% of traced wall), "
            f"inclusive {st.total_ns / 1e9 / k:.4f} s per op")
    return {name: {"value": float(v), "unit": unit_of(name)}
            for name, v in vals.items()}


def unit_of(name):
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("bytes"):
        return "bytes"
    if stat == "survival_ratio":
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    result = measure(wl, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
