"""Golden solve facts: the counts and results of a fixed set of solves.

The set is every suite cell at refinements 0-2 (eight systems, P = 4 for
the systems that partition the species block), and the benchmark's
``e2e_small`` operations 0-3, ``e2e_large`` operations 0-1 and
``voltage_amg`` operation 0 at seed 0, run under the benchmark's tracer.
For each solve the file keeps

- counts: the Krylov statistics of a suite cell, or the calls of every
  traced span and every recorded event of a benchmark operation;
- results: the final relative residual and the per-field forward error
  against the exact solution, and for a benchmark operation per field a
  fingerprint of the solution (its 2-norm and its entries at 16 evenly
  spaced indices). Suite cells keep no fingerprint: the r = 1 solid voltage
  solve leaves a forward error of 0.78, and a one-ulp change of its
  right-hand side moves its solution by up to 8e-7 relative.

``tests/test_solve_facts.py`` compares a fresh run with
``tests/golden/solve_facts.json``: counts exactly, results to 1e-6
relative. A change that moves a count regenerates the file with

    python tests/solve_facts.py --write

which prints the difference to the old file; without ``--write`` the
script only prints it, and exits with status 1 if there is one. The script
runs BLAS on one thread, as the benchmark does: with more, numpy's
reductions can round differently, and the ``voltage_amg`` counts move.
"""

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

if __name__ == "__main__":
    # before numpy is imported, so the BLAS pools are created with one thread
    os.environ.update(dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from blocksolve import bench  # noqa: E402
from blocksolve.battery import build_case  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "solve_facts.json"
REFINEMENTS = (0, 1, 2)
SUBDOMAINS = 4
BENCHMARK_OPS = {"e2e_small": (0, 1, 2, 3), "e2e_large": (0, 1), "voltage_amg": (0,)}
SEED = 0
SAMPLES = 16
RTOL = 1e-6


def fingerprint(x):
    """2-norm of ``x`` and its entries at ``SAMPLES`` evenly spaced indices."""
    picks = np.linspace(0, x.shape[0] - 1, SAMPLES).round().astype(np.int64)
    return {"norm": float(np.linalg.norm(x)), "sample": x[picks].tolist()}


def results(parts, exact, residual):
    """Result facts of one solve from per-field solution ``parts`` and
    ``exact`` parts."""
    return {"final_relative_residual": float(residual),
            "forward_error": {f: workloads.relative_error(parts[f], exact[f]) for f in parts}}


def suite_facts():
    """One entry per suite cell, keyed ``r<refinement>/<system>/P<p>``."""
    suite = bench.SuiteConfig(systems=list(bench.SYSTEMS), subdomains=[SUBDOMAINS],
                              repetitions=1, seed=SEED)
    out = {}
    for r in REFINEMENTS:
        case = build_case(replace(suite.case, refinement=r))
        exact = case.system.split(case.solution)
        for name, spec in bench.SYSTEMS.items():
            p = SUBDOMAINS if "x" in spec.fields else 1
            _, _, stats, x = bench.run_experiment(case, name, suite, p)
            offsets = np.cumsum([0] + [case.system.dims[f] for f in spec.fields])
            parts = {f: x[lo:hi] for f, lo, hi in zip(spec.fields, offsets, offsets[1:])}
            out[f"r{r}/{name}/P{p}"] = {
                "counts": {"iterations": stats.iterations, "restarts": stats.restarts,
                           "converged": stats.converged,
                           "precond_applications": stats.precond_applications},
                **results(parts, {f: exact[f] for f in spec.fields},
                          stats.final_relative_residual)}
    return out


def benchmark_facts():
    """One entry per benchmark operation, keyed ``<workload>/op<i>``."""
    out = {}
    for name, ops in BENCHMARK_OPS.items():
        wl = workloads.make(name, SEED, None)
        for i in ops:
            tracer = tracing.Tracer()
            tracer.matrix_labels = wl.matrix_labels()
            tracer.op = i
            with tracer.attach():
                res = wl.run(i, probe.Stopwatch(probing=False))
            calls = {span: t[2] for span, t in
                     sorted(tracing.layer_totals(tracer.spans, {i}).items())}
            xs = workloads.exact_solution(wl.case.grid, wl.phases(i))
            if name == "voltage_amg":
                n = wl.case.grid.n
                parts = {f: res.solution[k * n:(k + 1) * n] for k, f in enumerate(wl.blocks)}
                residual = max(workloads.relative_residual(wl.A[f], parts[f], wl.A[f] @ xs[f])
                               for f in wl.blocks)
            else:
                parts = wl.system.split(res.solution)
                x_star = np.concatenate([xs[f] for f in workloads.FIELDS])
                residual = workloads.relative_residual(wl.A, res.solution, wl.A @ x_star)
            out[f"{name}/op{i}"] = {
                "counts": {"failure": res.failure, "facts": res.facts, "calls": calls,
                           "events": [[key, value] for _, key, value in tracer.events]},
                **results(parts, {f: xs[f] for f in parts}, residual),
                "solution": {f: fingerprint(parts[f]) for f in parts}}
    return out


def collect():
    return {"suite": suite_facts(), "benchmark": benchmark_facts()}


def differences(new, old):
    """Lines naming every fact of ``new`` that differs from ``old``: counts
    when not equal, results when not within ``RTOL``. A final relative
    residual or forward error is already relative to the norm of b or of the
    exact solution, so it is compared to ``RTOL`` itself; a fingerprint's
    norm and sample to ``RTOL`` times their stored norms. Each line ends in
    ``[count]`` or ``[result]``."""
    lines = []
    for group in ("suite", "benchmark"):
        for key in sorted(old[group].keys() | new[group].keys()):
            if key not in old[group] or key not in new[group]:
                lines.append(f"{group}/{key}: only in the "
                             f"{'new' if key in new[group] else 'old'} facts [count]")
                continue
            a, b = new[group][key], old[group][key]
            lines += [f"{group}/{key}: {line}" for line in _entry_differences(a, b)]
    return lines


def _entry_differences(a, b):
    out = []
    for name in sorted(a["counts"].keys() | b["counts"].keys()):
        if a["counts"].get(name) != b["counts"].get(name):
            out.append(f"{name} {b['counts'].get(name)!r} -> {a['counts'].get(name)!r} [count]")
    pairs = [("final_relative_residual", a["final_relative_residual"],
              b["final_relative_residual"], 1.0)]
    pairs += [(f"forward_error.{f}", a["forward_error"].get(f), v, 1.0)
              for f, v in b["forward_error"].items()]
    for f, g in b.get("solution", {}).items():
        mine = a.get("solution", {}).get(f)
        pairs.append((f"solution.{f}.norm", mine and mine["norm"], g["norm"], g["norm"]))
        gap = mine and float(np.linalg.norm(np.subtract(mine["sample"], g["sample"])))
        pairs.append((f"solution.{f}.sample gap", gap, 0.0, np.linalg.norm(g["sample"])))
    for name, new, old, scale in pairs:
        if new is None or not abs(new - old) <= RTOL * scale:
            out.append(f"{name} {old!r} -> {new!r} [result]")
    return out


def main(argv):
    write = "--write" in argv
    new = collect()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"suite": {}, "benchmark": {}}
    lines = differences(new, old)
    print("\n".join(lines) if lines else "no difference from " + str(GOLDEN.relative_to(ROOT)))
    if write:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return int(bool(lines) and not write)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
