#!/usr/bin/env python3
"""Benchmark of the blocksolve library: time to solution on four workloads.

One workload per process:

    python3 perfbench/run.py --workload e2e_large --seed 0 --seconds 30 --trace 0

prints the metrics, writes ``perfbench/results/<workload>-seed<n>-trace<t>.json``
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

All four workloads, each in its own process, with a table of every metric:

    python3 perfbench/run.py --all --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("e2e_large", "e2e_small", "voltage_amg", "case_io")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS/OpenMP thread: the library's dense work is vector-sized, and on a
# small box a second BLAS thread only adds run-to-run noise.
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=NAMES)
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_all(args):
    """Run each workload in a child process and print its metrics."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        line = json.loads(lines[-1])
        print(f"== {name}: attempted {line['attempted']}, failed {line['failed']}")
        print("\n".join(lines[:-1]))
        status = status or int(not line["correct"])
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    if not (ROOT / "src" / "blocksolve" / "__init__.py").is_file():
        print(f"error: no library sources at {ROOT / 'src' / 'blocksolve'}; "
              "run from the root of a blocksolve checkout", file=sys.stderr)
        return 2
    # before numpy is imported, so the BLAS pool is created with this size
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    line, record = harness.run(args.workload, args.seed, args.seconds, args.trace)
    path = harness.write_record(record)
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"results: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
