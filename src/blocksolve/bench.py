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
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, NamedTuple

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


COLUMNS = [f.name for f in fields(ExperimentRecord)]


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


def _loglog_fit(points, model, what, log):
    """Least-squares fit of log(T) against log2(x) over the sorted (x, T)
    ``points``, which need two or more distinct x; returns (x, T, slope, residual)."""
    points = sorted(points)
    if len(points) < 2:
        raise ValueError(f"{model} fit needs at least two points")
    x = np.array([q[0] for q in points], dtype=np.float64)
    t = np.array([q[1] for q in points], dtype=np.float64)
    if np.any(np.diff(x) <= 0):
        raise ValueError(f"{model} fit needs strictly increasing {what}")
    u = np.log2(x)
    y = log(t)
    slope, intercept = np.polyfit(u, y, 1)
    residual = float(np.sum((y - (slope * u + intercept)) ** 2))
    return x, t, slope, residual


def fit_weak_efficiency(points):
    """Least-squares fit of log T against log2 n; slope = -log eta.

    ``points`` is a sequence of (n, T) with strictly increasing n at a fixed
    n/P ratio.
    """
    _, _, slope, residual = _loglog_fit(points, "weak", "problem sizes", np.log)
    return EfficiencyFit(model="weak", efficiency=float(np.exp(-slope)),
                         residual=residual, points=len(points))


def fit_strong_efficiency(points):
    """Least-squares fit of log2 T against log2 P under the strong model;
    flags the first P whose pairwise efficiency drops below the 0.5 cut-off."""
    p, t, slope, residual = _loglog_fit(
        points, "strong", "worker counts", np.log2)
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

class SystemRow(NamedTuple):
    """One row of the iteration-count table: what it solves and how."""

    label: str          # row label of the markdown table
    solver: str         # solver name recorded with each cell
    fields: tuple       # the fields it solves for, in monolithic order
    config: SolverConfig  # its Krylov solve (flexible when the config asks)
    build: Callable     # build(case, fields, options) -> preconditioner


def _amg(case, fields, options):
    # the single-block rows smooth with degree 2 whatever the group degrees;
    # degree 4 on the solid voltage block gives another table
    return amg_preconditioner(case.system, fields[0], options, degree=2)


def _ras(case, fields, options):
    return ras_preconditioner(
        case.system.submatrix(fields), np.vstack([case.grid.centers] * len(fields)),
        options.ras_subdomains, options.ras_overlap)


BLOCK_SOLVE = SolverConfig(restart=30, tol=1e-8, maxiter=500)
GROUP_SOLVE = SolverConfig(restart=30, tol=1e-6, maxiter=300, flexible=True)

SYSTEMS = {
    "liquid_species": SystemRow(
        "Liquid-Phase Species", "dd0-ilu0", ("x",), BLOCK_SOLVE, _ras),
    "liquid_pressure": SystemRow(
        "Liquid-Phase Pressure", "sa-amg", ("p",), BLOCK_SOLVE, _amg),
    "liquid_voltage": SystemRow(
        "Liquid-Phase Voltage", "sa-amg", ("phi_l",), BLOCK_SOLVE, _amg),
    "solid_voltage": SystemRow(
        "Solid-Phase Voltage", "sa-amg", ("phi_s",), BLOCK_SOLVE, _amg),
    "coupled_voltage": SystemRow(
        "Coupled Voltages", "bgs", VOLTAGE_FIELDS, GROUP_SOLVE,
        lambda case, fields, options: VoltageBgs.build(case.system, options)),
    "nonvoltage": SystemRow(
        "Non-Voltage System", "bgs", NONVOLTAGE_FIELDS, GROUP_SOLVE,
        lambda case, fields, options: NonvoltageBgs.build(
            case.system, case.grid.centers, options)),
    "end_to_end": SystemRow(
        "End-to-End Solve", "hierarchical-bgs", FIELDS,
        SolverConfig(restart=5, tol=1e-6, maxiter=25, flexible=True),
        lambda case, fields, options: build_electrochem_preconditioner(
            case.system, case.grid.centers, options)),
    "monolithic_ras": SystemRow(
        "Monolithic DD(0)-ILU(0)", "dd0-ilu0", FIELDS, BLOCK_SOLVE, _ras),
}


@dataclass(frozen=True)
class SuiteConfig:
    """The case x system x P matrix of a suite run, checked on construction.

    ``precon`` sets any ``ElectrochemOptions`` field but ``seed`` and
    ``ras_subdomains``; ``options`` holds the options it builds.
    """

    case: CaseConfig = field(default_factory=CaseConfig)
    refinements: list = field(default_factory=lambda: [0, 1, 2])
    # monolithic RAS stalls for its full iteration budget from r = 1 on
    systems: list = field(
        default_factory=lambda: [s for s in SYSTEMS if s != "monolithic_ras"])
    subdomains: list = field(default_factory=lambda: [4])
    repetitions: int = 3
    seed: int = 0
    precon: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, values, least in (("refinements", self.refinements, 0),
                                    ("subdomains", self.subdomains, 1),
                                    ("repetitions", [self.repetitions], 1)):
            if not values or not all(isinstance(v, int) and v >= least for v in values):
                raise ValueError(f"{name}: want integers >= {least}, "
                                 f"got {getattr(self, name)!r}")
        if not self.systems or not set(self.systems) <= SYSTEMS.keys():
            raise ValueError(f"systems must be a non-empty list of "
                             f"{', '.join(SYSTEMS)}; got {self.systems!r}")
        # the suite sets these two itself: the seed from its own field, the
        # subdomain count from each cell's P
        owned = {"seed": "seed", "ras_subdomains": "subdomains"}
        settable = {f.name for f in fields(ElectrochemOptions)} - owned.keys()
        for key in self.precon:
            if key not in settable:
                hint = f"; set the suite's {owned[key]!r}" if key in owned else ""
                raise ValueError(f"precon cannot set {key!r}{hint}")
        object.__setattr__(self, "options",
                           ElectrochemOptions(**self.precon, seed=self.seed))

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


def run_experiment(case, system, suite, p=1):
    """One (case, system, P) cell: returns (setup_fn, solve_fn) timings via a
    single execution; the caller repeats and aggregates."""
    spec = SYSTEMS[system]
    options = replace(suite.options, ras_subdomains=p)
    b = np.concatenate([case.system.rhs[f] for f in spec.fields])

    t0 = time.perf_counter()
    A = case.system.submatrix(spec.fields)
    precon = spec.build(case, spec.fields, options)
    setup_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    _, stats = gmres(A, b, preconditioner=precon, config=spec.config)
    solve_seconds = time.perf_counter() - t0
    return setup_seconds, solve_seconds, stats


def run_suite(suite, progress=None):
    """Execute the full case x system x P matrix; the first run of each cell
    is a discarded warmup."""
    records = []
    for refinement in suite.refinements:
        cfg = replace(suite.case, refinement=refinement)
        case = build_case(cfg)
        for system in suite.systems:
            # P only matters to systems that partition the species block
            p_values = suite.subdomains if "x" in SYSTEMS[system].fields else [1]
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
                    solver=SYSTEMS[system].solver,
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
    systems = [s for s in SYSTEMS if any(r.system == s for r in records)]
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
            f"| {SYSTEMS[system].label if system in SYSTEMS else system} | "
            + " | ".join(cells) + " |")
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
