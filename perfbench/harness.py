"""Run one workload for a fixed time and turn its operations into metrics.

An untraced run reports the end-to-end metrics. A traced run alternates an
untraced and a traced operation on the same inputs: the traced ones give the
per-layer metrics, and each pair gives the tracing overhead.
"""

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import probe
import tracing
import workloads
from workloads import OpResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WARMUP_OPS = 1
P90_MIN_OPS = 100

# name -> unit; what the last output line carries with --trace 0
END_TO_END = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; what the last output line carries with --trace 1
PER_LAYER = {
    "smoothers.ilu0_apply_s": "s",
    "smoothers.ilu0_applies": "count",
    "smoothers.ilu0_apply_mflops_computed": "MFLOP/s",
    "smoothers.ilu0_factor_s": "s",
    "smoothers.chebyshev_s": "s",
    "smoothers.chebyshev_applies": "count",
    "smoothers.power_iteration_s": "s",
    "smoothers.jacobi_applies": "count",
    "schwarz.setup_s": "s",
    "schwarz.partition_s": "s",
    "schwarz.overlap_s": "s",
    "schwarz.apply_s": "s",
    "schwarz.apply_self_s": "s",
    "schwarz.applies": "count",
    "schwarz.subdomains": "count",
    "schwarz.max_subdomain_rows": "count",
    "amg.setup_s": "s",
    "amg.strength_s": "s",
    "amg.aggregate_s": "s",
    "amg.prolongator_s": "s",
    "amg.vcycle_s": "s",
    "amg.vcycles": "count",
    "amg.levels.phi_s": "count",
    "amg.levels.phi_l": "count",
    "amg.levels.p": "count",
    "amg.operator_complexity.phi_s": "1",
    "amg.operator_complexity.phi_l": "1",
    "amg.operator_complexity.p": "1",
    "sparse.triple_product_s": "s",
    "sparse.triple_product_calls": "count",
    "sparse.dense_factor_s": "s",
    "krylov.outer_iterations": "count",
    "krylov.iterations": "count",
    "krylov.inner_iterations.voltage": "count",
    "krylov.inner_iterations.nonvoltage": "count",
    "krylov.inner_solves": "count",
    "krylov.inner_unconverged": "count",
    "krylov.inner_s.voltage": "s",
    "krylov.inner_s.nonvoltage": "s",
    "krylov.self_s": "s",
    "blockprec.setup_s": "s",
    "blockprec.submatrix_s": "s",
    "blockprec.apply_calls": "count",
    "blockprec.apply_self_s": "s",
    "blockprec.bgs_calls.voltage": "count",
    "blockprec.bgs_calls.nonvoltage": "count",
    "blockprec.bgs_self_s.voltage": "s",
    "blockprec.bgs_self_s.nonvoltage": "s",
    "battery.build_case_s": "s",
    "battery.build_grid_s": "s",
    "mmio.store_s": "s",
    "mmio.load_s": "s",
    "mmio.bytes_written": "B",
    "mmio.store_mb_per_s": "MB/s",
    "mmio.load_mb_per_s": "MB/s",
    "trace_overhead_frac": "1",
}

# per-layer counts and set-up facts, from the first traced operation:
# calls of a span, sums of recorded events, and maxima of recorded facts
CALLS = {
    "smoothers.ilu0_applies": "smoothers.ilu0_apply",
    "smoothers.chebyshev_applies": "smoothers.chebyshev",
    "smoothers.jacobi_applies": "smoothers.jacobi_apply",
    "schwarz.applies": "schwarz.apply",
    "amg.vcycles": "amg.vcycle",
    "sparse.triple_product_calls": "sparse.triple_product",
    "blockprec.apply_calls": "blockprec.apply",
    "blockprec.bgs_calls.voltage": "blockprec.bgs.voltage",
    "blockprec.bgs_calls.nonvoltage": "blockprec.bgs.nonvoltage",
}
EVENT_SUMS = ("krylov.outer_iterations", "krylov.iterations",
              "krylov.inner_iterations.voltage", "krylov.inner_iterations.nonvoltage",
              "krylov.inner_solves", "krylov.inner_unconverged", "mmio.bytes_written")
EVENT_MAX = ("schwarz.subdomains", "schwarz.max_subdomain_rows",
             "amg.levels.phi_s", "amg.levels.phi_l", "amg.levels.p",
             "amg.operator_complexity.phi_s", "amg.operator_complexity.phi_l",
             "amg.operator_complexity.p")

# per-layer times: seconds per traced operation; ("self", ...) takes self time
TIMES = {
    "smoothers.ilu0_apply_s": ("incl", "smoothers.ilu0_apply"),
    "smoothers.ilu0_factor_s": ("incl", "smoothers.ilu0_factor"),
    "smoothers.chebyshev_s": ("incl", "smoothers.chebyshev"),
    "smoothers.power_iteration_s": ("incl", "smoothers.power_iteration"),
    "schwarz.setup_s": ("incl", "schwarz.partition", "schwarz.overlap", "schwarz.ras_setup"),
    "schwarz.partition_s": ("incl", "schwarz.partition"),
    "schwarz.overlap_s": ("incl", "schwarz.overlap"),
    "schwarz.apply_s": ("incl", "schwarz.apply"),
    "schwarz.apply_self_s": ("self", "schwarz.apply"),
    "amg.setup_s": ("incl", "amg.setup"),
    "amg.strength_s": ("incl", "amg.strength"),
    "amg.aggregate_s": ("incl", "amg.aggregate"),
    "amg.prolongator_s": ("incl", "amg.prolongator"),
    "amg.vcycle_s": ("incl", "amg.vcycle"),
    "sparse.triple_product_s": ("incl", "sparse.triple_product"),
    "sparse.dense_factor_s": ("incl", "sparse.dense_factor"),
    "krylov.inner_s.voltage": ("incl", "krylov.inner.voltage"),
    "krylov.inner_s.nonvoltage": ("incl", "krylov.inner.nonvoltage"),
    "krylov.self_s": ("self", "krylov.outer", "krylov.gmres",
                      "krylov.inner.voltage", "krylov.inner.nonvoltage"),
    "blockprec.setup_s": ("incl", "blockprec.setup"),
    "blockprec.submatrix_s": ("incl", "blockprec.submatrix"),
    "blockprec.apply_self_s": ("self", "blockprec.apply"),
    "blockprec.bgs_self_s.voltage": ("self", "blockprec.bgs.voltage"),
    "blockprec.bgs_self_s.nonvoltage": ("self", "blockprec.bgs.nonvoltage"),
    "battery.build_case_s": ("incl", "battery.build_case"),
    "battery.build_grid_s": ("incl", "battery.build_grid"),
    "mmio.store_s": ("incl", "mmio.store"),
    "mmio.load_s": ("incl", "mmio.load"),
}


def run_op(wl, i, watch):
    """One operation; an exception counts as a failed operation."""
    try:
        res = wl.run(i, watch)
    except Exception as err:  # the benchmark must keep running and report it
        traceback.print_exc(file=sys.stderr)
        return OpResult(failure=f"raised {type(err).__name__}: {err}")
    # keep no solution vectors, so peak_rss_mb does not grow with the number
    # of operations a run fits in
    res.solution = None
    return res


def measure(seconds, step):
    """Call ``step(i)`` for i = 1, 2, ... until the next call would overrun
    ``seconds``; at least once."""
    out, walls = [], []
    start = time.perf_counter()
    i = WARMUP_OPS
    while True:
        t0 = time.perf_counter()
        out.append(step(i))
        walls.append(time.perf_counter() - t0)
        i += 1
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name, ops):
    """Every end-to-end metric of the untraced operations (value, unit).

    Times are at the speed probe's reference speed (see probe.py); the
    ``*_wall_s`` metrics are the same times as measured.
    """
    n = len(ops)
    setup = [op.ref.get("setup", 0.0) for op in ops]
    tts = [sum(op.ref.values()) for op in ops]
    solve = [t - s for t, s in zip(tts, setup)]
    m = {
        "setup_s": (statistics.median(setup), "s"),
        # means, not medians: at refinement 3 some x* stop after one outer
        # iteration and others take two, and a median of such a two-mode
        # sample jumps between the modes from run to run
        "solve_s": (statistics.fmean(solve), "s"),
        "time_to_solution_s": (statistics.fmean(tts), "s"),
        "solve_median_s": (statistics.median(solve), "s"),
        "time_to_solution_median_s": (statistics.median(tts), "s"),
        "setup_wall_s": (statistics.median(op.setup_s for op in ops), "s"),
        "time_to_solution_wall_s": (statistics.fmean(op.time_to_solution_s for op in ops), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if n >= P90_MIN_OPS:
        m["time_to_solution_p90_s"] = (float(np.quantile(tts, 0.9)), "s")
    errors = [op.forward_error for op in ops if op.forward_error]
    if errors:
        worst = [max(e.values()) for e in errors]
        m["forward_rel_error"] = (statistics.median(worst), "1")
        m["forward_rel_error_max"] = (max(worst), "1")
        for f in errors[0]:
            m[f"forward_rel_error.{f}"] = (statistics.median(e[f] for e in errors), "1")
    if name == "case_io":
        for k in ("write_s", "read_s"):
            m[k] = (statistics.median(op.ref[k[:-2]] for op in ops), "s")
    return m


def per_layer(tracer, traced_ids, pairs, name):
    """Every per-layer metric from the traced operations (value, unit)."""
    n = len(traced_ids)
    totals = tracing.layer_totals(tracer.spans, set(traced_ids))
    first = tracing.layer_totals(tracer.spans, {traced_ids[0]})
    m = {}
    for metric, (kind, *spans) in TIMES.items():
        col = 0 if kind == "incl" else 1
        m[metric] = sum(totals.get(s, (0.0, 0.0, 0))[col] for s in spans) / n
    for metric, span in CALLS.items():
        m[metric] = first.get(span, (0.0, 0.0, 0))[2]
    events = [(k, v) for op, k, v in tracer.events if op == traced_ids[0]]
    for metric in EVENT_SUMS:
        m[metric] = sum(v for k, v in events if k == metric)
    for metric in EVENT_MAX:
        m[metric] = max((v for k, v in events if k == metric), default=0)

    def rate(key, span, scale):
        amount = sum(v for op, k, v in tracer.events if k == key and op in traced_ids)
        busy = totals.get(span, (0.0, 0.0, 0))[0]
        return amount / busy / scale if busy > 0 else 0.0

    m["smoothers.ilu0_apply_mflops_computed"] = rate("smoothers.ilu0_flops", "smoothers.ilu0_apply", 1e6)
    m["mmio.store_mb_per_s"] = rate("mmio.bytes_written", "mmio.store", 1e6)
    m["mmio.load_mb_per_s"] = rate("mmio.bytes_read", "mmio.load", 1e6)
    # case_io has no solver, so its overhead is taken on the write + read time
    key = (lambda op: op.solve_s) if name == "case_io" else (lambda op: op.time_to_solution_s)
    plain = sum(key(u) for u, _ in pairs)
    m["trace_overhead_frac"] = sum(key(t) for _, t in pairs) / plain - 1.0
    return {k: (m[k], PER_LAYER[k]) for k in PER_LAYER}


def self_time_table(tracer, traced_ids):
    totals = tracing.layer_totals(tracer.spans, set(traced_ids))
    n = len(traced_ids)
    rows = sorted(totals.items(), key=lambda kv: -kv[1][1])
    return {name: {"self_s": t[1] / n, "incl_s": t[0] / n, "calls": t[2] / n}
            for name, t in rows}


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def provenance(name, seed, seconds, trace, attempted):
    nproc = os.cpu_count()
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_openmp_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "operations_attempted": attempted,
        "warmup_operations_discarded": WARMUP_OPS,
        "speed_probe": (None if trace else
                        {"reference_s": probe.REFERENCE_S, "probe_share": probe.PROBE_SHARE,
                         "note": "end-to-end times are scaled to the probe's reference "
                                 "speed; *_wall_s metrics are as measured"}),
        "note": (f"{nproc}-core box, one process per workload: no wall-clock "
                 "scaling or fit_strong_efficiency numbers are reported"),
        "page_cache": ("case_io reads files it has just written, so every read "
                       "is served from the page cache" if name == "case_io" else None),
    }


def run(name, seed, seconds, trace):
    """Run one workload; return (result line, results file contents)."""
    io_dir = RESULTS / f"io-{name}-{os.getpid()}"
    io_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(name, seed, str(io_dir))
        watch = probe.Stopwatch(probing=not trace)
        warm = [run_op(wl, i, watch) for i in range(WARMUP_OPS)]
        if trace:
            tracer = tracing.Tracer()
            tracer.matrix_labels = wl.matrix_labels()

            def pair(i):
                plain = run_op(wl, i, watch)
                tracer.op = i
                with tracer.attach():
                    traced = run_op(wl, i, watch)
                tracer.op = None
                return plain, traced

            pairs = measure(seconds, pair)
            ops = [op for p in pairs for op in p]
            traced_ids = list(range(WARMUP_OPS, WARMUP_OPS + len(pairs)))
            metrics = per_layer(tracer, traced_ids, pairs, name)
            extra = {"self_time_per_op": self_time_table(tracer, traced_ids),
                     "spans": tracer.spans}
        else:
            ops = measure(seconds, lambda i: run_op(wl, i, watch))
            metrics = end_to_end(name, ops)
            extra = {"probes_s": watch.probes}
    finally:
        shutil.rmtree(io_dir, ignore_errors=True)
    every = warm + ops
    failed = sum(op.failure is not None for op in every)
    metrics["failed_frac"] = (failed / len(every), "1")
    wanted = PER_LAYER if trace else END_TO_END
    line = {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }
    record = {
        "provenance": provenance(name, seed, seconds, trace, len(every)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": [op.failure for op in every if op.failure],
        "operations": [
            {"wall_s": op.wall, "ref_s": op.ref, "forward_error": op.forward_error,
             "facts": op.facts, "failure": op.failure}
            for op in every
        ],
        **extra,
    }
    return line, record


def write_record(record):
    p = record["provenance"]
    path = RESULTS / f"{p['workload']}-seed{p['seed']}-trace{p['trace']}.json"
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return path
