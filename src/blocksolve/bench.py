"""Benchmark harness: runs solver configurations over generated cases,
records iteration counts and timings, and fits the weak/strong scaling cost
models.

Weak model: T_n = T_m / eta^log2(n/m) at fixed work per subdomain.
Strong model: each doubling of P multiplies time by 1/(2 eta), i.e.
T_P = T_Pm * (Pm/P) * (1/eta)^log2(P/Pm).

Timing at desk scale is informational; iteration counts are the regression
surface.
"""

import csv
import io
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .battery import CaseConfig, build_case
from .blockprec import (
    ElectrochemOptions,
    FIELDS,
    NONVOLTAGE_FIELDS,
    VOLTAGE_FIELDS,
    NonvoltageBgs,
    VoltageBgs,
    amg_preconditioner,
    build_electrochem_preconditioner,
    ras_preconditioner,
)
from .krylov import SolverConfig, gmres


@dataclass
class ExperimentRecord:
    case_id: str
    refinement: int
    system: str
    solver: str
    p: int
    repetitions: int
    iterations: int
    converged: bool
    final_relative_residual: float
    mean_setup_seconds: float
    std_setup_seconds: float
    mean_solve_seconds: float
    std_solve_seconds: float
    dofs: int

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


COLUMNS = [
    "case_id", "refinement", "system", "solver", "p", "repetitions",
    "iterations", "converged", "final_relative_residual",
    "mean_setup_seconds", "std_setup_seconds",
    "mean_solve_seconds", "std_solve_seconds", "dofs",
]


@dataclass
class EfficiencyFit:
    model: str                 # "weak" or "strong"
    efficiency: float
    residual: float
    points: int
    strong_scale_limit_p: int | None = None

    def to_dict(self):
        return asdict(self)


def weak_model_times(t_base, n_base, sizes, eta):
    """Generate times from the weak scaling model at fixed n/P."""
    sizes = np.asarray(sizes, dtype=np.float64)
    return t_base / eta ** np.log2(sizes / n_base)


def strong_model_times(t_base, p_base, procs, eta):
    """Generate times from the strong scaling model at fixed n."""
    procs = np.asarray(procs, dtype=np.float64)
    return t_base * (p_base / procs) * (1.0 / eta) ** np.log2(procs / p_base)


def fit_weak_efficiency(points):
    """Least-squares fit of log T against log2 n; slope = -log eta.

    ``points`` is a sequence of (n, T) with strictly increasing n at a fixed
    n/P ratio.
    """
    points = sorted(points)
    if len(points) < 2:
        raise ValueError("weak fit needs at least two points")
    n = np.array([p[0] for p in points], dtype=np.float64)
    t = np.array([p[1] for p in points], dtype=np.float64)
    if np.any(np.diff(n) <= 0):
        raise ValueError("weak fit needs strictly increasing problem sizes")
    x = np.log2(n)
    y = np.log(t)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sum((y - (slope * x + intercept)) ** 2))
    return EfficiencyFit(model="weak", efficiency=float(np.exp(-slope)),
                         residual=residual, points=len(points))


def fit_strong_efficiency(points):
    """Least-squares fit of log2 T against log2 P under the strong model;
    flags the first P whose pairwise efficiency drops below the 0.5 cut-off."""
    points = sorted(points)
    if len(points) < 2:
        raise ValueError("strong fit needs at least two points")
    p = np.array([q[0] for q in points], dtype=np.float64)
    t = np.array([q[1] for q in points], dtype=np.float64)
    if np.any(np.diff(p) <= 0):
        raise ValueError("strong fit needs strictly increasing worker counts")
    x = np.log2(p)
    y = np.log2(t)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sum((y - (slope * x + intercept)) ** 2))
    eta = float(2.0 ** (-(1.0 + slope)))
    limit = None
    for k in range(len(p) - 1):
        pairwise = (p[k] * t[k]) / (p[k + 1] * t[k + 1])
        if pairwise < 0.5:
            limit = int(p[k + 1])
            break
    return EfficiencyFit(model="strong", efficiency=eta, residual=residual,
                         points=len(points), strong_scale_limit_p=limit)


# ---------------------------------------------------------------- experiments

TABLE_SYSTEMS = [
    ("liquid_species", "dd0-ilu0"),
    ("liquid_pressure", "sa-amg"),
    ("liquid_voltage", "sa-amg"),
    ("solid_voltage", "sa-amg"),
    ("coupled_voltage", "bgs"),
    ("nonvoltage", "bgs"),
    ("end_to_end", "hierarchical-bgs"),
]

SYSTEM_LABELS = {
    "liquid_species": "Liquid-Phase Species",
    "liquid_pressure": "Liquid-Phase Pressure",
    "liquid_voltage": "Liquid-Phase Voltage",
    "solid_voltage": "Solid-Phase Voltage",
    "coupled_voltage": "Coupled Voltages",
    "nonvoltage": "Non-Voltage System",
    "end_to_end": "End-to-End Solve",
    "monolithic_ras": "Monolithic DD(0)-ILU(0)",
}


@dataclass
class SuiteConfig:
    case: CaseConfig = field(default_factory=CaseConfig)
    refinements: list = field(default_factory=lambda: [0, 1, 2])
    systems: list = field(default_factory=lambda: [s for s, _ in TABLE_SYSTEMS])
    subdomains: list = field(default_factory=lambda: [4])
    repetitions: int = 3
    theta: float = 0.04
    max_coarse_size: int = 64
    seed: int = 0
    # ElectrochemOptions overrides for the end-to-end preconditioner (inner
    # tolerances, restart lengths, smoother degrees, per-block theta)
    precon: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        if "case" in data:
            data["case"] = CaseConfig.from_dict(data["case"])
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


BLOCK_SOLVE = SolverConfig(restart=30, tol=1e-8, maxiter=500)
GROUP_SOLVE = SolverConfig(restart=30, tol=1e-6, maxiter=300, flexible=True)

# per system: the fields it solves for, in monolithic order, and its Krylov
# solve (gmres runs the flexible variant when the config asks for it)
SYSTEMS = {
    "liquid_species": (("x",), BLOCK_SOLVE),
    "liquid_pressure": (("p",), BLOCK_SOLVE),
    "liquid_voltage": (("phi_l",), BLOCK_SOLVE),
    "solid_voltage": (("phi_s",), BLOCK_SOLVE),
    "coupled_voltage": (VOLTAGE_FIELDS, GROUP_SOLVE),
    "nonvoltage": (NONVOLTAGE_FIELDS, GROUP_SOLVE),
    "end_to_end": (FIELDS, SolverConfig(restart=5, tol=1e-6, maxiter=25, flexible=True)),
    "monolithic_ras": (FIELDS, BLOCK_SOLVE),
}


def run_experiment(case, system, suite, p=1):
    """One (case, system, P) cell: returns (setup_fn, solve_fn) timings via a
    single execution; the caller repeats and aggregates."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    fields, cfg = SYSTEMS[system]
    sysB, coords = case.system, case.grid.centers
    # the suite's P column stays authoritative over the precon overrides
    options = ElectrochemOptions(**{
        "drop_tolerance": suite.theta, "max_coarse_size": suite.max_coarse_size,
        "seed": suite.seed, **suite.precon, "ras_subdomains": p})
    b = np.concatenate([sysB.rhs[f] for f in fields])

    t0 = time.perf_counter()
    A = sysB.monolithic() if fields == FIELDS else sysB.submatrix(fields)
    if system == "end_to_end":
        precon = build_electrochem_preconditioner(sysB, coords, options)
    elif system == "coupled_voltage":
        precon = VoltageBgs.build(sysB, options)
    elif system == "nonvoltage":
        precon = NonvoltageBgs.build(sysB, coords, options)
    elif "x" in fields:  # the species block alone, or the monolithic system
        precon = ras_preconditioner(
            A, np.vstack([coords] * len(fields)), p, options.ras_overlap)
    else:
        # the single-block rows smooth with degree 2 whatever the group
        # degrees; degree 4 on the solid voltage block gives another table
        precon = amg_preconditioner(sysB, fields[0], options, degree=2)
    setup_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    _, stats = gmres(A, b, preconditioner=precon, config=cfg)
    solve_seconds = time.perf_counter() - t0
    return setup_seconds, solve_seconds, stats


def run_suite(suite, progress=None):
    """Execute the full case x system x P matrix; the first run of each cell
    is a discarded warmup."""
    records = []
    for refinement in suite.refinements:
        cfg = CaseConfig(**{**suite.case.to_dict(), "refinement": refinement})
        case = build_case(cfg)
        for system in suite.systems:
            # P only matters to systems that partition the species block
            fields = SYSTEMS[system][0] if system in SYSTEMS else ()
            p_values = suite.subdomains if "x" in fields else [1]
            for p in p_values:
                setups, solves = [], []
                stats = None
                for rep in range(suite.repetitions + 1):
                    setup_s, solve_s, stats = run_experiment(case, system, suite, p)
                    if rep == 0:
                        continue  # warmup discarded
                    setups.append(setup_s)
                    solves.append(solve_s)
                record = ExperimentRecord(
                    case_id=cfg.case_id,
                    refinement=refinement,
                    system=system,
                    solver=dict(TABLE_SYSTEMS).get(system, "dd0-ilu0"),
                    p=p,
                    repetitions=suite.repetitions,
                    iterations=stats.iterations,
                    converged=stats.converged,
                    final_relative_residual=stats.final_relative_residual,
                    mean_setup_seconds=float(np.mean(setups)),
                    std_setup_seconds=float(np.std(setups)),
                    mean_solve_seconds=float(np.mean(solves)),
                    std_solve_seconds=float(np.std(solves)),
                    dofs=case.total_dim,
                )
                records.append(record)
                if progress:
                    progress(record)
    return records


# ---------------------------------------------------------------- reporting

def records_to_csv(records):
    if not records:
        raise ValueError("no records to emit")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow(rec.to_dict())
    return buf.getvalue()


def records_to_json(records):
    if not records:
        raise ValueError("no records to emit")
    return json.dumps([rec.to_dict() for rec in records], indent=2,
                      sort_keys=True) + "\n"


def load_records_json(text):
    return [ExperimentRecord.from_dict(d) for d in json.loads(text)]


def records_to_markdown(records):
    """Iteration-count table: subblock rows x refinement columns, reported at
    the largest subdomain count (the strong-scaling limit)."""
    if not records:
        raise ValueError("no records to emit")
    refinements = sorted({r.refinement for r in records})
    systems = [s for s, _ in TABLE_SYSTEMS if any(r.system == s for r in records)]
    systems += [s for s in sorted({r.system for r in records}) if s not in systems]
    lines = ["| Subblock | " + " | ".join(f"r={n}" for n in refinements) + " |",
             "|---" * (len(refinements) + 1) + "|"]
    for system in systems:
        cells = []
        for refinement in refinements:
            rows = [r for r in records
                    if r.system == system and r.refinement == refinement]
            if not rows:
                cells.append("-")
                continue
            best = max(rows, key=lambda r: r.p)
            mark = "" if best.converged else "*"
            cells.append(f"{best.iterations}{mark}")
        lines.append(
            f"| {SYSTEM_LABELS.get(system, system)} | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append("`*` did not reach the requested tolerance")
    return "\n".join(lines) + "\n"


def emit_report(records, fmt, path):
    """Write records in the requested format; returns the written text."""
    if fmt == "csv":
        text = records_to_csv(records)
    elif fmt == "json":
        text = records_to_json(records)
    elif fmt == "md":
        text = records_to_markdown(records)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)
    return text
