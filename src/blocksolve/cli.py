"""Command-line harness: generate cases, run solves and suites, and fit the
scaling exponents of iteration series.

Exit codes: 0 full success, 1 a recorded solver failure, 2 configuration
errors.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .battery import build_case
from .bench import (
    SuiteConfig,
    fit_exponent,
    load_records_json,
    records_to_csv,
    records_to_json,
    records_to_markdown,
    run_experiment,
    run_suite,
    scaling_series,
)
from .blockprec import FIELDS
from .mmio import store_matrix_market
from .sparse import as_csr

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(Exception):
    pass


def _load_suite_config(path, **overrides):
    """Suite config at ``path`` (None: the defaults) with the non-None overrides."""
    try:
        suite = SuiteConfig() if path is None else SuiteConfig.from_json(path)
        return replace(suite, **{k: v for k, v in overrides.items() if v is not None})
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as err:
        raise ConfigError(f"suite config {path or '(defaults)'}: {err}") from err


def _load_records(path):
    try:
        with open(path) as fh:
            return load_records_json(fh.read())
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as err:
        raise ConfigError(f"cannot read records {path}: {err}") from err


def _emit_json(result, out, filename):
    """Print ``result`` as JSON; write it to ``out``/``filename`` if given."""
    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        with open(Path(out) / filename, "w") as fh:
            fh.write(text + "\n")


def _vector_as_column(v):
    return as_csr(np.asarray(v, dtype=np.float64).reshape(-1, 1))


def cmd_generate(args):
    suite = _load_suite_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for refinement in suite.refinements:
        cfg = replace(suite.case, refinement=refinement)
        case = build_case(cfg)
        prefix = out / f"{cfg.case_id}_r{refinement}"
        store_matrix_market(case.system.monolithic(), f"{prefix}_monolithic.mtx")
        for (rf, cf), block in sorted(case.system.blocks.items()):
            store_matrix_market(block, f"{prefix}_{rf}_{cf}.mtx")
        store_matrix_market(_vector_as_column(case.system.rhs_vector()),
                            f"{prefix}_rhs.mtx")
        store_matrix_market(_vector_as_column(case.solution),
                            f"{prefix}_solution.mtx")
        meta = {"config": asdict(cfg), "regime": case.regime,
                "fields": list(FIELDS),
                "dims": {f: case.system.dims[f] for f in case.system.fields}}
        with open(f"{prefix}_meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        print(f"wrote {prefix}_* ({case.system.total_dim} dofs)")
    return EXIT_OK


def cmd_solve(args):
    # the one cell to solve, checked like a suite
    suite = _load_suite_config(args.config, seed=args.seed, systems=[args.system],
                               refinements=[args.refinement], subdomains=[args.p])
    case = build_case(replace(suite.case, refinement=args.refinement))
    setup_s, solve_s, stats, _ = run_experiment(case, args.system, suite, p=args.p)
    result = {
        "system": args.system,
        "refinement": args.refinement,
        "p": args.p,
        "dofs": case.system.total_dim,
        "setup_seconds": setup_s,
        "solve_seconds": solve_s,
        **asdict(stats),
    }
    # the per-iteration residuals are too long for a summary
    del result["residual_history"]
    _emit_json(result, args.out, f"solve_{args.system}_r{args.refinement}.json")
    return EXIT_OK if stats.converged else EXIT_SOLVER_FAILURE


def cmd_suite(args):
    suite = _load_suite_config(args.config, seed=args.seed, repetitions=args.reps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def progress(rec):
        flag = "ok" if rec.converged else "FAIL"
        print(f"[{flag}] r={rec.refinement} {rec.system} P={rec.p}: "
              f"{rec.iterations} iterations")

    records = run_suite(suite, progress=progress)
    for name, write in (("records.csv", records_to_csv), ("records.json", records_to_json),
                        ("table.md", records_to_markdown)):
        (out / name).write_text(write(records))
    print(f"wrote {out}/records.csv, {out}/records.json, {out}/table.md")
    failed = [r for r in records if not r.converged]
    return EXIT_SOLVER_FAILURE if failed else EXIT_OK


def _fitted(points):
    exponent, residual = fit_exponent(points)
    return {"points": points, "exponent": exponent, "residual": residual}


def cmd_fit(args):
    rows = [r for r in _load_records(args.records) if r.system == args.system]
    weak, strong = scaling_series(rows)
    if not weak and not strong:
        raise ConfigError(f"{args.records} holds no converged {args.system!r} "
                          "series of two or more points; run the suite with two or "
                          "more subdomains (a strong series) or with P growing with "
                          "the refinement, fourfold like the dofs, as subdomains "
                          "[4, 16] over refinements [0, 1] (a weak series)")
    try:
        result = {
            "system": args.system,
            "weak": [{"dofs_per_subdomain": float(ratio), **_fitted(points)}
                     for ratio, points in weak.items()],
            "strong": [{"refinement": refinement, **_fitted(points)}
                       for refinement, points in strong.items()],
        }
    except ValueError as err:
        raise ConfigError(str(err)) from err
    _emit_json(result, args.out, f"fit_{args.system}.json")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blocksolve",
        description="Coupled electrochemical block-system solver benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build cases and export Matrix Market files")
    gen.add_argument("--config", default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="run one system with one solver config")
    solve.add_argument("--config", default=None)
    solve.add_argument("--system", required=True)
    solve.add_argument("--refinement", type=int, default=0)
    solve.add_argument("--p", type=int, default=1)
    solve.add_argument("--out", default=None)
    solve.add_argument("--seed", type=int, default=None)
    solve.set_defaults(func=cmd_solve)

    suite = sub.add_parser("suite", help="run the full case x solver matrix")
    suite.add_argument("--config", default=None)
    suite.add_argument("--out", required=True)
    suite.add_argument("--reps", type=int, default=None)
    suite.add_argument("--seed", type=int, default=None)
    suite.set_defaults(func=cmd_suite)

    fit = sub.add_parser(
        "fit", help="fit the iteration scaling exponent of every weak and strong "
                    "series in a records file")
    fit.add_argument("--records", required=True)
    fit.add_argument("--system", default="end_to_end")
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=cmd_fit)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
