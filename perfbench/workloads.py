"""The benchmark's four workloads and the inputs they draw from the seed.

Every workload talks to the library only through names the ``blocksolve``
package exports. One operation is one call of ``Workload.run(i, watch)``;
its inputs come from operation index ``i`` of the seed's phase stream, so
the same seed and index always give the same inputs. ``watch`` (a
``probe.Stopwatch``) times the segments: ``setup`` and ``solve``, or on
``case_io`` ``setup``, ``write`` and ``read``. Input generation (the case,
x* and b = A x*) happens outside the timed segments on the solver workloads.
"""

import os
from dataclasses import dataclass, field

import numpy as np

import blocksolve as bs

FIELDS = ("phi_s", "phi_l", "s", "x", "p")

# Wave numbers of blocksolve.battery.manufactured_field. They are copied so
# the benchmark's inputs stay fixed when the library's reference profile
# changes; only the phases are drawn from the seed.
WAVES = {"phi_s": (1.0, 1.0), "phi_l": (2.0, 1.0), "s": (1.0, 2.0),
         "x": (2.0, 2.0), "p": (1.0, 3.0)}

OUTER = bs.SolverConfig(restart=5, tol=1e-6, maxiter=25, flexible=True)
MAX_OUTER_ITERATIONS = 3      # README acceptance for the end-to-end solve
VOLTAGE = bs.SolverConfig(restart=30, tol=1e-8)


class PhaseStream:
    """Operation i's phases, one (x, y) pair per field: 2 pi times a point of
    a Latin hypercube. Operations 16 b to 16 b + 15 form block b, drawn
    from ``default_rng([seed, b])``: within a block every phase takes one
    value in each sixteenth of [0, 2 pi), in random order, at a uniform
    place inside it. Each operation's phases are uniform on the torus, as
    with independent draws, but the operations of one run cover every phase
    evenly, so the share of x* that converge in one outer iteration, and
    with it the mean time, varies less from seed to seed."""

    BLOCK = 16

    def __init__(self, seed):
        self._seed = seed
        self._blocks = {}

    def __call__(self, i):
        b, j = divmod(i, self.BLOCK)
        if b not in self._blocks:
            rng = np.random.default_rng([self._seed, b])
            strata = rng.permuted(np.tile(np.arange(self.BLOCK), (2 * len(FIELDS), 1)), axis=1)
            self._blocks[b] = (strata + rng.uniform(size=strata.shape)) / self.BLOCK
        return 2.0 * np.pi * self._blocks[b][:, j].reshape(len(FIELDS), 2)


def exact_solution(grid, phases):
    """Per-field smooth product of sinusoids with seeded phases."""
    x = grid.centers[:, 0] / (grid.nr * grid.h)
    y = grid.centers[:, 1] / (grid.nz * grid.h)
    out = {}
    for f, (px, py) in zip(FIELDS, phases):
        kx, ky = WAVES[f]
        out[f] = 1.0 + 0.5 * np.sin(np.pi * kx * x + px) * np.cos(np.pi * ky * y + py)
    return out


def relative_residual(A, x, b):
    return float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))


def relative_error(x, x_star):
    return float(np.linalg.norm(x - x_star) / np.linalg.norm(x_star))


@dataclass
class OpResult:
    """Timings and checks of one operation; ``failure`` is None when every
    check passed. ``wall`` and ``ref`` are the stopwatch's seconds per
    segment, as measured and at the probe's reference speed."""

    wall: dict = field(default_factory=dict)
    ref: dict = field(default_factory=dict)
    failure: str | None = None
    forward_error: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    solution: np.ndarray | None = None

    def timed(self, watch):
        self.wall, self.ref = dict(watch.wall), dict(watch.ref)

    @property
    def setup_s(self):
        return self.wall.get("setup", 0.0)

    @property
    def solve_s(self):
        return sum(v for k, v in self.wall.items() if k != "setup")

    @property
    def time_to_solution_s(self):
        return sum(self.wall.values())


class EndToEnd:
    """build_case at one refinement, then per operation: the hierarchical
    preconditioner with default options and outer FGMRES(5) to 1e-6."""

    def __init__(self, seed, refinement):
        self.case = bs.build_case(bs.CaseConfig(nr=6, n_cells=2, refinement=refinement))
        self.system = self.case.system
        self.A = self.system.monolithic()
        self.operator = bs.assemble_block_operator(self.system)
        self.phases = PhaseStream(seed)

    def matrix_labels(self):
        return {id(self.system.blocks[(f, f)]): f for f in ("phi_s", "phi_l", "p")}

    def run(self, i, watch):
        res = OpResult()
        xs = exact_solution(self.case.grid, self.phases(i))
        x_star = np.concatenate([xs[f] for f in FIELDS])
        b = self.A @ x_star
        watch.start()
        M = bs.build_electrochem_preconditioner(self.system, self.case.grid.centers)
        watch.lap("setup")
        x, stats = bs.fgmres(self.operator, b, preconditioner=M, config=OUTER)
        watch.lap("solve")
        res.timed(watch)
        res.facts["outer_iterations"] = stats.iterations
        res.solution = x
        parts = self.system.split(x)
        res.forward_error = {f: relative_error(parts[f], xs[f]) for f in FIELDS}
        rel = relative_residual(self.A, x, b)
        if not np.all(np.isfinite(x)):
            res.failure = "non-finite solution entry"
        elif rel > OUTER.tol:
            res.failure = f"true relative residual {rel:.3e} above {OUTER.tol:g}"
        elif stats.iterations > MAX_OUTER_ITERATIONS:
            res.failure = f"{stats.iterations} outer iterations (> {MAX_OUTER_ITERATIONS})"
        return res


class VoltageAmg:
    """Refinement 5. Per operation and per voltage block: build_hierarchy
    with default AmgParams, then GMRES(30), one V-cycle per application,
    to 1e-8."""

    blocks = ("phi_s", "phi_l")

    def __init__(self, seed):
        self.case = bs.build_case(bs.CaseConfig(nr=6, n_cells=2, refinement=5))
        self.A = {f: self.case.system.blocks[(f, f)] for f in self.blocks}
        self.phases = PhaseStream(seed)

    def matrix_labels(self):
        return {id(A): f for f, A in self.A.items()}

    def run(self, i, watch):
        res = OpResult()
        xs = exact_solution(self.case.grid, self.phases(i))
        rhs = {f: self.A[f] @ xs[f] for f in self.blocks}
        results = []
        watch.start()
        for f in self.blocks:
            H = bs.build_hierarchy(self.A[f], bs.AmgParams())
            watch.lap("setup")
            results.append(bs.gmres(self.A[f], rhs[f], preconditioner=bs.as_preconditioner(H),
                                    config=VOLTAGE))
            watch.lap("solve")
        res.timed(watch)
        problems = []
        for f, (x, stats) in zip(self.blocks, results):
            res.facts[f"iterations.{f}"] = stats.iterations
            res.forward_error[f] = relative_error(x, xs[f])
            rel = relative_residual(self.A[f], x, rhs[f])
            if not np.all(np.isfinite(x)):
                problems.append(f"{f}: non-finite solution entry")
            elif not stats.converged:
                problems.append(f"{f}: GMRES did not converge")
            elif rel > VOLTAGE.tol:
                problems.append(f"{f}: true relative residual {rel:.3e} above {VOLTAGE.tol:g}")
        res.failure = "; ".join(problems) or None
        res.solution = np.concatenate([x for x, _ in results])
        return res


class CaseIo:
    """Refinement 3. Per operation: build_case (the set-up), then write the
    monolithic matrix, every block, b and x* with store_matrix_market, read
    them all back with load_matrix_market and compare bit for bit. The files
    are fresh and small, so reads are served from the page cache."""

    def __init__(self, seed, io_dir):
        self.io_dir = io_dir
        self.phases = PhaseStream(seed)

    def matrix_labels(self):
        return {}

    def run(self, i, watch):
        res = OpResult()
        watch.start()
        case = bs.build_case(bs.CaseConfig(nr=6, n_cells=2, refinement=3))
        watch.lap("setup")
        xs = exact_solution(case.grid, self.phases(i))
        x_star = np.concatenate([xs[f] for f in FIELDS])
        system = case.system
        items = {"monolithic": system.monolithic()}
        for (rf, cf), block in sorted(system.blocks.items()):
            items[f"{rf}_{cf}"] = block
        items["rhs"] = (system.monolithic() @ x_star).reshape(-1, 1)
        items["solution"] = x_star.reshape(-1, 1)
        expected = {k: bs.as_csr(v) for k, v in items.items()}
        paths = {k: os.path.join(self.io_dir, f"{k}.mtx") for k in items}
        watch.lap(None)
        for k, path in paths.items():
            bs.store_matrix_market(expected[k], path)
        watch.lap("write")
        loaded = {k: bs.load_matrix_market(path) for k, path in paths.items()}
        watch.lap("read")
        res.timed(watch)
        res.facts["bytes"] = sum(os.path.getsize(p) for p in paths.values())
        for path in paths.values():
            os.remove(path)
        mismatched = [k for k in items if not same_bits(expected[k], loaded[k])]
        if mismatched:
            res.failure = "round trip not bit-exact: " + ", ".join(mismatched)
        return res


def same_bits(A, B):
    return (A.shape == B.shape
            and A.indptr.tobytes() == B.indptr.tobytes()
            and A.indices.tobytes() == B.indices.tobytes()
            and A.data.tobytes() == B.data.tobytes())


def make(name, seed, io_dir):
    if name == "e2e_large":
        return EndToEnd(seed, refinement=3)
    if name == "e2e_small":
        return EndToEnd(seed, refinement=1)
    if name == "voltage_amg":
        return VoltageAmg(seed)
    if name == "case_io":
        return CaseIo(seed, io_dir)
    raise ValueError(f"unknown workload {name!r}")
