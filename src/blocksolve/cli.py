"""Command-line harness: generate cases, run solves and suites, fit scaling
models, and emit reports.

Exit codes: 0 full success, 1 a recorded solver failure, 2 configuration
errors.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .battery import CaseConfig, build_case
from .bench import (
    SuiteConfig,
    emit_report,
    fit_strong_efficiency,
    fit_weak_efficiency,
    load_records_json,
    run_experiment,
    run_suite,
)
from .blockprec import FIELDS
from .mmio import store_matrix_market
from .sparse import as_csr

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(Exception):
    pass


def _load_suite_config(path, seed=None, reps=None):
    if path is None:
        suite = SuiteConfig()
    else:
        try:
            suite = SuiteConfig.from_json(path)
        except (OSError, json.JSONDecodeError, TypeError, ValueError) as err:
            raise ConfigError(f"cannot read suite config {path}: {err}") from err
    if seed is not None:
        suite.seed = seed
    if reps is not None:
        suite.repetitions = reps
    return suite


def _vector_as_column(v):
    return as_csr(np.asarray(v, dtype=np.float64).reshape(-1, 1))


def cmd_generate(args):
    suite = _load_suite_config(args.config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for refinement in suite.refinements:
        cfg = CaseConfig(**{**suite.case.to_dict(), "refinement": refinement})
        case = build_case(cfg)
        prefix = out / f"{cfg.case_id}_r{refinement}"
        store_matrix_market(case.system.monolithic(), f"{prefix}_monolithic.mtx")
        for (rf, cf), block in sorted(case.system.blocks.items()):
            store_matrix_market(block, f"{prefix}_{rf}_{cf}.mtx")
        store_matrix_market(_vector_as_column(case.system.rhs_vector()),
                            f"{prefix}_rhs.mtx")
        store_matrix_market(_vector_as_column(case.solution),
                            f"{prefix}_solution.mtx")
        meta = {"config": cfg.to_dict(), "regime": case.regime,
                "fields": list(FIELDS),
                "dims": {f: case.system.dims[f] for f in case.system.fields}}
        with open(f"{prefix}_meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        print(f"wrote {prefix}_* ({case.total_dim} dofs)")
    return EXIT_OK


def cmd_solve(args):
    suite = _load_suite_config(args.config, seed=args.seed)
    cfg = CaseConfig(**{**suite.case.to_dict(), "refinement": args.refinement})
    case = build_case(cfg)
    try:
        setup_s, solve_s, stats = run_experiment(case, args.system, suite, p=args.p)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    result = {
        "system": args.system,
        "refinement": args.refinement,
        "p": args.p,
        "dofs": case.total_dim,
        "setup_seconds": setup_s,
        "solve_seconds": solve_s,
        **stats.to_dict(),
    }
    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with open(Path(args.out) / f"solve_{args.system}_r{args.refinement}.json",
                  "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK if stats.converged else EXIT_SOLVER_FAILURE


def cmd_suite(args):
    suite = _load_suite_config(args.config, seed=args.seed, reps=args.reps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def progress(rec):
        flag = "ok" if rec.converged else "FAIL"
        print(f"[{flag}] r={rec.refinement} {rec.system} P={rec.p}: "
              f"{rec.iterations} iterations")

    records = run_suite(suite, progress=progress)
    emit_report(records, "csv", out / "records.csv")
    emit_report(records, "json", out / "records.json")
    if args.format == "md":
        emit_report(records, "md", out / "table.md")
    print(f"wrote {out}/records.csv, {out}/records.json"
          + (f", {out}/table.md" if args.format == "md" else ""))
    failed = [r for r in records if not r.converged]
    return EXIT_SOLVER_FAILURE if failed else EXIT_OK


def cmd_fit(args):
    try:
        with open(args.records) as fh:
            records = load_records_json(fh.read())
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as err:
        raise ConfigError(f"cannot read records {args.records}: {err}") from err
    rows = [r for r in records if r.system == args.system]
    if not rows:
        raise ConfigError(f"no records for system {args.system!r}")
    if args.model == "weak":
        # a weak fit needs a fixed dofs-per-subdomain family; default to the
        # ratio the records realize most often
        if args.ratio is not None:
            target = args.ratio
        else:
            counts = {}
            for r in rows:
                counts[r.dofs / r.p] = counts.get(r.dofs / r.p, 0) + 1
            target = max(counts, key=lambda k: (counts[k], k))
        selected = [r for r in rows if abs(r.dofs / r.p - target) <= 0.01 * target]
        points = sorted((r.dofs, r.mean_setup_seconds + r.mean_solve_seconds)
                        for r in selected)
        try:
            fit = fit_weak_efficiency(points)
        except ValueError as err:
            raise ConfigError(str(err)) from err
    else:
        # a strong fit holds the problem size fixed; default to the largest
        refinement = args.refinement
        if refinement is None:
            refinement = max(r.refinement for r in rows)
        selected = [r for r in rows if r.refinement == refinement]
        points = sorted((r.p, r.mean_setup_seconds + r.mean_solve_seconds)
                        for r in selected)
        try:
            fit = fit_strong_efficiency(points)
        except ValueError as err:
            raise ConfigError(str(err)) from err
    result = {"system": args.system, "points_used": points, **fit.to_dict()}
    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with open(Path(args.out) / f"fit_{args.model}_{args.system}.json", "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def cmd_report(args):
    try:
        with open(args.records) as fh:
            records = load_records_json(fh.read())
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as err:
        raise ConfigError(f"cannot read records {args.records}: {err}") from err
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    suffix = {"csv": "csv", "json": "json", "md": "md"}[args.format]
    path = out / f"report.{suffix}"
    try:
        text = emit_report(records, args.format, path)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    print(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blocksolve",
        description="Coupled electrochemical block-system solver benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build cases and export Matrix Market files")
    gen.add_argument("--config", default=None)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=None)
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
    suite.add_argument("--format", choices=["csv", "json", "md"], default="md")
    suite.add_argument("--reps", type=int, default=None)
    suite.add_argument("--seed", type=int, default=None)
    suite.set_defaults(func=cmd_suite)

    fit = sub.add_parser("fit", help="fit a scaling-efficiency model to records")
    fit.add_argument("--records", required=True)
    fit.add_argument("--model", choices=["weak", "strong"], required=True)
    fit.add_argument("--system", default="end_to_end")
    fit.add_argument("--refinement", type=int, default=None,
                     help="fixed problem scale for strong fits (default: largest)")
    fit.add_argument("--ratio", type=float, default=None,
                     help="fixed dofs-per-subdomain family for weak fits")
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=cmd_fit)

    rep = sub.add_parser("report", help="format a records file")
    rep.add_argument("--records", required=True)
    rep.add_argument("--format", choices=["csv", "json", "md"], default="md")
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=cmd_report)
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
