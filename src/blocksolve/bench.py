"""Benchmark harness: runs solver configurations over generated cases,
records iteration counts and timings, and fits a scaling exponent to each
weak and strong iteration series.

Every "processor" is a virtual subdomain solved serially, so wall time
cannot show parallel scaling. Timing at desk scale is informational; the
deterministic iteration counts are the regression surface.
"""

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .battery import CaseConfig, build_case, build_grid
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
from .sparse import require_fields


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


COLUMNS = [f.name for f in fields(ExperimentRecord)]


def fit_exponent(points):
    """Least-squares slope of log2 y against log2 x over the (x, y)
    ``points``, which need two or more strictly increasing x: y grows as
    x**exponent, so 0 means flat. Returns (exponent, residual)."""
    points = sorted(points)
    if len(points) < 2:
        raise ValueError("a scaling fit needs at least two points")
    x, y = np.array(points, dtype=np.float64).T
    if np.any(np.diff(x) <= 0):
        raise ValueError(f"a scaling fit needs strictly increasing x, got {x.tolist()}")
    u, v = np.log2(x), np.log2(y)
    slope, intercept = np.polyfit(u, v, 1)
    return float(slope), float(np.sum((v - (slope * u + intercept)) ** 2))


def scaling_series(records):
    """The iteration series of ``records``, as (weak, strong).

    ``weak`` maps each exact dofs/P ratio (a Fraction) to its sorted
    (dofs, iterations) points and ``strong`` maps each refinement to its
    sorted (P, iterations) points. Only families with two or more distinct x
    are kept. Unconverged records are left out: their count is the
    iteration cap.
    """
    weak, strong = {}, {}
    for r in records:
        if r.converged:
            weak.setdefault(Fraction(r.dofs, r.p), []).append((r.dofs, r.iterations))
            strong.setdefault(r.refinement, []).append((r.p, r.iterations))
    return tuple({key: sorted(points) for key, points in sorted(groups.items())
                  if len({x for x, _ in points}) >= 2}
                 for groups in (weak, strong))


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
    refinements: list[int] = field(default_factory=lambda: [0, 1, 2], metadata={"least": 0})
    # monolithic RAS stalls for its full iteration budget from r = 1 on
    systems: list = field(
        default_factory=lambda: [s for s in SYSTEMS if s != "monolithic_ras"])
    subdomains: list[int] = field(default_factory=lambda: [4], metadata={"least": 1})
    repetitions: int = field(default=3, metadata={"least": 1})
    seed: int = field(default=0, metadata={"least": 0})
    precon: dict = field(default_factory=dict)

    def __post_init__(self):
        require_fields(self)
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
        if any("x" in SYSTEMS[s].fields for s in self.systems):
            coarsest = min(self.refinements)
            cells = build_grid(self.case.nr, coarsest, self.case.n_cells).n
            if max(self.subdomains) > cells:
                raise ValueError(f"subdomains: P = {max(self.subdomains)} exceeds "
                                 f"the {cells} cells at refinement {coarsest}")

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        if "case" in data:
            data["case"] = CaseConfig(**data["case"])
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def run_experiment(case, system, suite, p=1):
    """One (case, system, P) cell, run once: returns the setup and solve
    seconds, the solve statistics and the solution; the caller repeats and
    aggregates."""
    spec = SYSTEMS[system]
    options = replace(suite.options, ras_subdomains=p)
    b = np.concatenate([case.system.rhs[f] for f in spec.fields])

    t0 = time.perf_counter()
    A = case.system.submatrix(spec.fields)
    precon = spec.build(case, spec.fields, options)
    setup_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    x, stats = gmres(A, b, preconditioner=precon, config=spec.config)
    solve_seconds = time.perf_counter() - t0
    return setup_seconds, solve_seconds, stats, x


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
                    setup_s, solve_s, stats, _ = run_experiment(case, system, suite, p)
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
                    dofs=case.system.total_dim,
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
        writer.writerow(asdict(rec))
    return buf.getvalue()


def records_to_json(records):
    if not records:
        raise ValueError("no records to emit")
    return json.dumps([asdict(rec) for rec in records], indent=2,
                      sort_keys=True) + "\n"


def load_records_json(text):
    return [ExperimentRecord(**d) for d in json.loads(text)]


def records_to_markdown(records):
    """Iteration-count table: subblock rows x refinement columns, reported at
    the largest subdomain count (the strong-scaling limit)."""
    if not records:
        raise ValueError("no records to emit")
    refinements = sorted({r.refinement for r in records})
    systems = [s for s in SYSTEMS if any(r.system == s for r in records)]
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
        lines.append(f"| {SYSTEMS[system].label} | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append("`*` did not reach the requested tolerance")
    return "\n".join(lines) + "\n"

