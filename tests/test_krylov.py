import json
import re
import os
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import blocksolve
from blocksolve import krylov
from blocksolve.krylov import (
    GmresBreakdownError,
    SolverConfig,
    fgmres,
    gmres,
)
from blocksolve.sparse import as_apply, as_csr, dense_factor


def poisson_1d(n):
    return as_csr(sp.diags(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]))


def poisson_2d(nx):
    I = sp.identity(nx)
    T = sp.diags([-np.ones(nx - 1), 2.0 * np.ones(nx), -np.ones(nx - 1)], [-1, 0, 1])
    A = (sp.kron(I, T) + sp.kron(T, I)).tocsr()
    A.eliminate_zeros()  # kron goes through BSR and stores block zeros
    return as_csr(A)


def dense_arnoldi_iterations(A, b, tol):
    """Oracle: dense Arnoldi with per-dimension least-squares residual."""
    n = len(b)
    bnorm = np.linalg.norm(b)
    Q = np.zeros((n, n + 1))
    H = np.zeros((n + 1, n))
    Q[:, 0] = b / bnorm
    for k in range(n):
        w = A @ Q[:, k]
        for i in range(k + 1):
            H[i, k] = Q[:, i] @ w
            w -= H[i, k] * Q[:, i]
        H[k + 1, k] = np.linalg.norm(w)
        if H[k + 1, k] > 0:
            Q[:, k + 1] = w / H[k + 1, k]
        e1 = np.zeros(k + 2)
        e1[0] = bnorm
        y, *_ = np.linalg.lstsq(H[:k + 2, :k + 1], e1, rcond=None)
        if np.linalg.norm(e1 - H[:k + 2, :k + 1] @ y) / bnorm <= tol:
            return k + 1
    return n


# ---------------------------------------------------------------- gmres basics

def test_identity_converges_in_one_iteration():
    A = as_csr(np.eye(4))
    b = np.array([1.0, -2.0, 3.0, 0.5])
    x, stats = gmres(A, b, config=SolverConfig(restart=4, tol=1e-12))
    assert stats.converged and stats.iterations == 1
    np.testing.assert_allclose(x, b, atol=1e-14)


class ViewMatvec:
    def matvec(self, v):
        return v.view()


@pytest.mark.parametrize("solve", [gmres, fgmres])
@pytest.mark.parametrize("operator", [lambda v: v, lambda v: v[:], ViewMatvec()],
                         ids=["identity", "view", "matvec-view"])
def test_identity_returning_a_view_of_its_input_converges(solve, operator):
    # the operator's output is then a row of the Arnoldi basis, which the
    # Gram-Schmidt update must not overwrite
    b = np.array([1.0, 2.0, 3.0])
    x, stats = solve(operator, b)
    assert stats.converged and stats.iterations == 1
    np.testing.assert_allclose(x, b, rtol=1e-14)


def test_rotation_full_krylov_space():
    A = as_csr(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    b = np.array([1.0, 0.0])
    x, stats = gmres(A, b, config=SolverConfig(restart=2, tol=1e-12))
    assert stats.converged and stats.iterations == 2
    np.testing.assert_allclose(x, np.array([0.0, 1.0]), atol=1e-14)


def test_poisson_matches_dense_arnoldi_oracle():
    n = 64
    A = poisson_1d(n)
    b = A @ np.ones(n)
    oracle = dense_arnoldi_iterations(A.toarray(), b, 1e-8)
    x, stats = gmres(A, b, config=SolverConfig(restart=n, tol=1e-8, maxiter=200))
    assert stats.converged
    assert stats.iterations == oracle
    np.testing.assert_allclose(x, np.ones(n), atol=1e-6)


def test_zero_rhs():
    A = poisson_1d(8)
    x, stats = gmres(A, np.zeros(8))
    assert stats.converged and stats.iterations == 0
    assert np.array_equal(x, np.zeros(8))


@pytest.mark.parametrize("solve", [gmres, fgmres])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_rhs_rejected_before_any_apply(solve, bad):
    A = poisson_1d(8)
    calls = []

    def counted(v):
        calls.append(1)
        return v

    b = np.ones(8)
    b[[3, 5]] = bad
    with pytest.raises(ValueError, match="rhs entry 3 is not finite"):
        solve(lambda v: counted(A @ v), b, preconditioner=counted)
    assert calls == []


@pytest.mark.parametrize("solve", [gmres, fgmres])
@pytest.mark.parametrize("shape", [(8, 1), (1, 8), ()])
def test_rhs_of_another_rank_rejected_before_any_apply(solve, shape):
    A = poisson_1d(8)
    calls = []

    def counted(v):
        calls.append(1)
        return v

    with pytest.raises(ValueError) as err:
        solve(lambda v: counted(A @ v), np.ones(shape), preconditioner=counted)
    assert str(err.value) == f"gmres: rhs must be a vector, got shape {shape}"
    assert calls == []


@pytest.mark.parametrize("solve", [gmres, fgmres])
@pytest.mark.parametrize("shape", [(3,), (), (3, 3, 3)])
def test_operator_of_another_rank_rejected_naming_its_shape(solve, shape):
    with pytest.raises(ValueError) as err:
        solve(np.ones(shape), np.ones(3))
    assert str(err.value) == f"gmres: operator must be 2-D, got shape {shape}"


class NanOnCall:
    """Applies ``apply`` and counts the calls; the ``bad``-th returns NaN."""

    def __init__(self, apply, bad):
        self.apply, self.bad, self.calls = apply, bad, 0

    def __call__(self, v):
        self.calls += 1
        out = self.apply(v)
        return np.full_like(out, np.nan) if self.calls == self.bad else out


@pytest.mark.parametrize("solve", [gmres, fgmres])
@pytest.mark.parametrize("nan_in", ["operator", "preconditioner"])
def test_nonfinite_arnoldi_vector_fails_at_its_iteration(solve, nan_in):
    A = poisson_2d(16)
    operator = NanOnCall(lambda v: A @ v, 3 if nan_in == "operator" else 0)
    preconditioner = NanOnCall(lambda v: v, 3 if nan_in == "preconditioner" else 0)
    krylov._free_bases.clear()
    with pytest.raises(ValueError, match="not finite at iteration 3 "):
        solve(operator, np.ones(A.shape[0]), preconditioner=preconditioner,
              config=SolverConfig(tol=1e-12))
    assert operator.calls == 3 and preconditioner.calls == 3
    assert len(krylov._free_bases) == 1  # the failed solve gave its basis back


def test_nonconvergence_returns_stats_not_exception():
    A = poisson_2d(16)
    b = np.ones(A.shape[0])
    x, stats = gmres(A, b, config=SolverConfig(restart=5, tol=1e-12, maxiter=7))
    assert not stats.converged
    assert stats.iterations == 7
    assert stats.final_relative_residual > 1e-12


def test_breakdown_on_consistent_singularlike_system():
    # b lies in a 1-dimensional invariant subspace: exact breakdown, exact solve
    A = as_csr(np.diag([3.0, 5.0]))
    b = np.array([6.0, 0.0])
    x, stats = gmres(A, b, config=SolverConfig(restart=2, tol=1e-12))
    assert stats.converged and stats.iterations == 1
    np.testing.assert_allclose(x, np.array([2.0, 0.0]), atol=1e-14)


def test_breakdown_failure_is_structured():
    A = as_csr(np.diag([1.0, 0.0]))
    b = np.array([0.0, 1.0])
    for solve in (gmres, fgmres):
        krylov._free_bases.clear()
        with pytest.raises(GmresBreakdownError):
            solve(A, b, config=SolverConfig(restart=2, tol=1e-10))
        assert len(krylov._free_bases) == 1  # the failed solve gave its basis back


# ---------------------------------------------------------------- properties

@pytest.mark.parametrize("seed", range(6))
def test_full_space_convergence_small_systems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    x, stats = gmres(as_csr(A), b, config=SolverConfig(restart=n, tol=1e-10, maxiter=n))
    assert stats.converged
    assert stats.iterations <= n
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_true_residual_matches_reported(seed):
    rng = np.random.default_rng(100 + seed)
    n = 40
    A = as_csr(rng.standard_normal((n, n)) + n * np.eye(n))
    b = rng.standard_normal(n)
    x, stats = gmres(A, b, config=SolverConfig(restart=10, tol=1e-9, maxiter=200))
    assert stats.converged
    true_rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert true_rel <= 1.01 * max(stats.final_relative_residual, 1e-300)
    np.testing.assert_allclose(true_rel, stats.final_relative_residual, rtol=1e-10)


def test_recurrence_residual_monotone_within_cycle():
    A = poisson_2d(8)
    b = np.ones(A.shape[0])
    _, stats = gmres(A, b, config=SolverConfig(restart=30, tol=1e-10, maxiter=30))
    hist = stats.residual_history
    assert all(hist[i + 1] <= hist[i] * (1 + 1e-12) for i in range(len(hist) - 1))


# ---------------------------------------------------------------- fgmres

def test_fgmres_exact_inverse_preconditioner_one_iteration():
    rng = np.random.default_rng(5)
    n = 12
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    F = dense_factor(as_csr(A))
    b = rng.standard_normal(n)
    x, stats = fgmres(as_csr(A), b, preconditioner=F.solve,
                      config=SolverConfig(restart=5, tol=1e-10))
    assert stats.converged and stats.iterations == 1
    np.testing.assert_allclose(A @ x, b, rtol=1e-9)


def test_fgmres_inner_gmres_preconditioner_beats_plain():
    A = poisson_2d(32)
    n = A.shape[0]
    b = A @ np.ones(n)

    def inner(r):
        z, _ = gmres(A, r, config=SolverConfig(restart=5, tol=1e-30, maxiter=5))
        return z

    plain_cfg = SolverConfig(restart=30, tol=1e-8, maxiter=2000)
    _, plain = gmres(A, b, config=plain_cfg)
    x, flex = fgmres(A, b, preconditioner=inner,
                     config=SolverConfig(restart=30, tol=1e-8, maxiter=2000))
    assert flex.converged and plain.converged
    assert flex.iterations < plain.iterations
    np.testing.assert_allclose(x, np.ones(n), atol=1e-5)


def test_fgmres_zero_rhs():
    A = poisson_1d(6)
    x, stats = fgmres(A, np.zeros(6), preconditioner=lambda r: r)
    assert stats.converged and stats.iterations == 0
    assert np.array_equal(x, np.zeros(6))


def test_fgmres_matches_gmres_for_constant_preconditioner():
    rng = np.random.default_rng(17)
    n = 30
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    M = np.diag(1.0 / np.diag(A))
    b = rng.standard_normal(n)
    cfg = SolverConfig(restart=8, tol=1e-10, maxiter=200)
    xg, sg = gmres(as_csr(A), b, preconditioner=lambda r: M @ r, config=cfg)
    xf, sf = fgmres(as_csr(A), b, preconditioner=lambda r: M @ r, config=cfg)
    assert sg.iterations == sf.iterations
    np.testing.assert_allclose(xf, xg, atol=1e-12 * np.linalg.norm(xg))


def test_preconditioner_application_counts():
    # flexible: one application per Arnoldi step; plain: one extra per cycle
    A = poisson_1d(40)
    b = A @ np.ones(40)
    M = lambda r: 0.5 * r
    cfg = SolverConfig(restart=6, tol=1e-9, maxiter=100)
    _, sg = gmres(A, b, preconditioner=M, config=cfg)
    _, sf = fgmres(A, b, preconditioner=M, config=cfg)
    assert sf.precond_applications == sf.iterations
    assert sg.precond_applications == sg.iterations + sg.restarts + 1


@pytest.mark.parametrize("solve", [gmres, fgmres])
def test_one_true_residual_per_restart_cycle(solve):
    # each cycle ends on one b - A x, which also seeds the next cycle
    A = poisson_1d(40)
    applications = []

    def operator(v):
        applications.append(1)
        return A @ v

    _, stats = solve(operator, A @ np.ones(40), preconditioner=lambda r: 0.5 * r,
                     config=SolverConfig(restart=6, tol=1e-9, maxiter=100))
    assert stats.restarts == 16  # stops at maxiter
    assert len(applications) == stats.iterations + stats.restarts + 1
    assert "solve_seconds" not in asdict(stats)
    assert len(stats.cycle_residuals) == stats.restarts + 1
    assert stats.cycle_residuals[-1] == stats.final_relative_residual


@pytest.mark.parametrize("solve", [gmres, fgmres])
def test_cycle_residuals_show_a_stall(solve):
    # GMRES(1) on a rotation stagnates: A b is orthogonal to b, so every
    # cycle's correction is zero and its true residual is b again
    A = as_csr(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    x, stats = solve(A, np.array([1.0, 0.0]),
                     config=SolverConfig(restart=1, tol=1e-8, maxiter=6))
    assert not stats.converged and stats.iterations == 6 and stats.restarts == 5
    assert stats.cycle_residuals == [1.0] * 6
    assert asdict(stats)["cycle_residuals"] == stats.cycle_residuals
    assert not x.any()


# ---------------------------------------------------------------- basis free list

@pytest.mark.parametrize("solve", [gmres, fgmres])
@pytest.mark.parametrize("restart", [5, 30])
def test_reused_basis_gives_bit_identical_results(solve, restart):
    # every basis row is written before it is read, so what an earlier solve
    # left in the buffer (here NaN) cannot reach the result
    A = poisson_2d(16)
    b = A @ np.linspace(1.0, 2.0, A.shape[0])
    cfg = SolverConfig(restart=restart, tol=1e-10, maxiter=400)

    def run():
        x, stats = solve(A, b, preconditioner=lambda r: 0.25 * r, config=cfg)
        return x, asdict(stats), stats.residual_history

    krylov._free_bases.clear()
    fresh = run()
    assert fresh[1]["restarts"] > 0
    [buf] = krylov._free_bases
    buf.fill(np.nan)
    reused = run()
    assert len(krylov._free_bases) == 1 and krylov._free_bases[0] is buf
    assert reused[0].tobytes() == fresh[0].tobytes()
    assert reused[1:] == fresh[1:]
    # the solution is an array of its own, not a view of a buffer
    assert not np.shares_memory(reused[0], buf)


@pytest.mark.parametrize("solve", [gmres, fgmres])
def test_a_restart_beyond_maxiter_gives_the_bytes_of_a_restart_of_maxiter(solve):
    # a cycle takes at most maxiter steps, so the basis and H are sized by
    # that: a restart of 10**6 asked for a 10**6 x 10**6 H
    A = poisson_2d(16)
    b = A @ np.linspace(1.0, 2.0, A.shape[0])
    runs = [solve(A, b, preconditioner=lambda r: 0.25 * r,
                  config=SolverConfig(restart=restart, maxiter=10, flexible=True))
            for restart in (10**6, 10)]
    (x, stats), (want_x, want_stats) = runs
    assert not stats.converged and stats.iterations == 10
    assert x.tobytes() == want_x.tobytes()
    assert asdict(stats) == asdict(want_stats)


def test_free_list_keeps_one_buffer_for_serial_solves():
    # a solve takes the smallest buffer that fits, or drops the largest one
    # and allocates: serial solves settle on one buffer, the largest basis
    krylov._free_bases.clear()
    restart = 5
    for n in (50, 200, 50, 100):
        gmres(poisson_1d(n), np.ones(n), config=SolverConfig(restart=restart, maxiter=10))
    [buf] = krylov._free_bases
    assert buf.size == (restart + 1) * 200


def test_free_list_under_concurrent_solves():
    # more threads than cores, switching often, on solves so small that
    # taking and giving back buffers is much of their work: no two running
    # solves may share a buffer, and the list never holds more buffers than
    # solves ran at once
    sizes = (3, 5, 7, 9)
    rounds = 1000
    problems = [(poisson_1d(n), np.linspace(1.0, 2.0, n)) for n in sizes]
    cfg = SolverConfig(restart=2, tol=1e-10, maxiter=4)
    serial = [gmres(A, b, config=cfg)[0].tobytes() for A, b in problems]
    krylov._free_bases.clear()
    matches = [0] * len(sizes)
    start = threading.Barrier(len(sizes), timeout=60)

    def solve(k):
        start.wait()
        for _ in range(rounds):
            matches[k] += gmres(*problems[k], config=cfg)[0].tobytes() == serial[k]

    threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(sizes))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert matches == [rounds] * len(sizes)  # a solve that raised counts as a miss
    assert 1 <= len(krylov._free_bases) <= len(sizes)


def coupled_solve_run(env):
    """Run the r = 3 coupled solve in a fresh interpreter with ``env``: one
    warm-up solve, then three timed ones; returns their times and the minor
    page faults of the three."""
    script = """
import json, resource, time
from blocksolve import (CaseConfig, SolverConfig, assemble_block_operator,
                        build_case, build_electrochem_preconditioner, fgmres)
case = build_case(CaseConfig(nr=6, n_cells=2, refinement=3))
A, b = assemble_block_operator(case.system), case.system.rhs_vector()
M = build_electrochem_preconditioner(case.system, case.grid.centers)
cfg = SolverConfig(restart=5, tol=1e-6)
assert fgmres(A, b, preconditioner=M, config=cfg)[1].converged
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
times = []
for _ in range(3):
    start = time.perf_counter()
    fgmres(A, b, preconditioner=M, config=cfg)
    times.append(time.perf_counter() - start)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps({"times": times, "faults": faults}))
"""
    src = str(Path(blocksolve.__file__).resolve().parents[1])
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def coupled_runs():
    uncapped = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    capped = {**uncapped, **{k: "1" for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    return {"capped": coupled_solve_run(capped), "uncapped": coupled_solve_run(uncapped)}


def test_default_blas_threads_do_not_slow_the_solve(coupled_runs):
    # a solve whose BLAS calls alternate between numpy's and scipy's
    # libraries wakes both thread pools, and the r = 3 solve took about 100
    # times longer without a thread cap than with one
    capped = min(coupled_runs["capped"]["times"])
    uncapped = min(coupled_runs["uncapped"]["times"])
    assert uncapped < 3.0 * capped, (uncapped, capped)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page faults as counted by Linux")
def test_repeated_solves_fault_no_fresh_basis_pages(coupled_runs):
    # with a fresh basis per solve these three solves faulted about 4,600 pages in
    for run in coupled_runs.values():
        assert run["faults"] < 1000, coupled_runs


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restart=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=2.0)
    with pytest.raises(ValueError):
        SolverConfig(maxiter=0)
    for bad in ({"restart": 2.5}, {"maxiter": 2.5}, {"restart": None}, {"tol": "1e-6"}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


@pytest.mark.parametrize("solver", [gmres, fgmres])
@pytest.mark.parametrize("shape", ["n + 1", "1", "(n, 1)"])
def test_a_preconditioner_result_of_the_wrong_shape_is_named(solver, shape):
    # the operator's bound kernel reads the preconditioner's result
    # unchecked, and in fgmres a length-1 result used to broadcast into Z[j]
    A = poisson_1d(30)
    n = A.shape[0]
    out = {"n + 1": (n + 1,), "1": (1,), "(n, 1)": (n, 1)}[shape]
    calls = []

    def precond(v):
        calls.append(1)
        return np.ones(out) if len(calls) == 3 else v.copy()
    with pytest.raises(ValueError, match=rf"gmres: preconditioner returned shape "
                                         rf"{re.escape(str(out))} at iteration 3 "
                                         rf"\(want \({n},\)\)"):
        solver(A, np.ones(n), preconditioner=precond, config=SolverConfig(tol=1e-14))


@pytest.mark.parametrize("shape", [(31,), (1,), (30, 1)])
def test_a_right_preconditioned_correction_of_the_wrong_shape_is_named(shape):
    # restarted GMRES also preconditions each cycle's correction
    A = poisson_1d(30)
    calls = []

    def precond(v):
        calls.append(1)
        return v.copy() if len(calls) <= 2 else np.ones(shape)
    with pytest.raises(ValueError, match=rf"gmres: preconditioner returned shape "
                                         rf"{re.escape(str(shape))} at iteration 2"):
        gmres(A, np.ones(30), preconditioner=precond,
              config=SolverConfig(restart=2, tol=1e-14))


@pytest.mark.parametrize("shape", [(31,), (1,), (30, 1)])
def test_a_callable_operators_result_of_the_wrong_shape_is_named(shape):
    A = poisson_1d(30)
    calls = []

    def operator(v):
        calls.append(1)
        return A @ v if len(calls) < 4 else np.ones(shape)
    for solver in (gmres, fgmres):
        calls.clear()
        with pytest.raises(ValueError, match=rf"gmres: operator returned shape "
                                             rf"{re.escape(str(shape))} at iteration 4"):
            solver(operator, np.ones(30), config=SolverConfig(tol=1e-14))


def test_a_matrix_preconditioner_must_match_the_system():
    A = poisson_1d(30)
    for M in (sp.eye(31, format="csr"), np.eye(30)[:, :29], sp.eye(29, 30, format="csr")):
        with pytest.raises(ValueError, match=rf"gmres: preconditioner of shape "
                                             rf"{re.escape(str(M.shape))} for a system of "
                                             r"dimension 30 \(want \(30, 30\)\)"):
            fgmres(A, np.ones(30), preconditioner=M)


def test_a_matrix_applies_as_matmul_bit_for_bit():
    rng = np.random.default_rng(41)
    A = as_csr(sp.random(40, 40, density=0.2, random_state=5))
    x = rng.standard_normal(40)
    x[:5] = -0.0
    apply = as_apply(A)
    assert apply(x).tobytes() == (A @ x).tobytes()
    # anything but a float64 CSR matrix keeps A @ x: zeros plus A @ x
    # would turn a -0.0 product into +0.0
    for M in (A.tocsc(), A.toarray(), A.astype(np.float32), sp.csr_matrix((40, 40))):
        assert as_apply(M)(-np.abs(x)).tobytes() == (M @ -np.abs(x)).tobytes()
