"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured quantities (visible under ``pytest -s`` or in the captured
output). Tolerances are pinned here; runtime budgets shaped the experiment
sizes and are reported, not asserted.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from blocksolve.amg import AmgParams, as_preconditioner, build_hierarchy
from blocksolve.battery import CaseConfig, build_case
from blocksolve.bench import SuiteConfig, fit_exponent, run_experiment
from blocksolve.blockprec import (
    assemble_block_operator,
    build_electrochem_preconditioner,
)
from blocksolve.krylov import SolverConfig, fgmres, gmres
from blocksolve.schwarz import (extend_overlap, partition_nodes, ras_apply, ras_setup,
                                stack_blocks)
from blocksolve.smoothers import (
    CHEBYSHEV_BOOST, CHEBYSHEV_RATIO, chebyshev_apply, chebyshev_setup, ilu0_factor)
from blocksolve.sparse import as_csr, dense_factor, triple_product


def poisson_2d(nx):
    I = sp.identity(nx)
    T = sp.diags([-np.ones(nx - 1), 2.0 * np.ones(nx), -np.ones(nx - 1)], [-1, 0, 1])
    A = (sp.kron(I, T) + sp.kron(T, I)).tocsr()
    A.eliminate_zeros()
    return as_csr(A)


def report(criterion, detail, t0):
    print(f"[acceptance] criterion {criterion} PASS ({time.perf_counter() - t0:.1f}s): {detail}")


@pytest.fixture(scope="module")
def battery_family():
    return {r: build_case(CaseConfig(nr=6, refinement=r, n_cells=2))
            for r in (0, 1, 2)}


@pytest.fixture(scope="module")
def uncoupled_solid_family():
    # the theta grid search targets the variable-coefficient Poisson operator
    # itself; zero exchange current decouples the voltages
    return {r: build_case(CaseConfig(nr=6, refinement=r, n_cells=2,
                                     exchange_current=0.0))
            for r in (1, 2, 3)}


def test_criterion_1_krylov_correctness():
    t0 = time.perf_counter()
    # true residual within 1% of the reported residual on converged solves
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 40
        A = as_csr(rng.standard_normal((n, n)) + n * np.eye(n))
        b = rng.standard_normal(n)
        x, stats = gmres(A, b, config=SolverConfig(restart=10, tol=1e-9, maxiter=200))
        assert stats.converged
        true_rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert true_rel <= 1.01 * max(stats.final_relative_residual, 1e-300)
    # full-space GMRES solves any seeded nonsingular n <= 30 system within n
    worst = 0
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 31))
        A = as_csr(rng.standard_normal((n, n)) + n * np.eye(n))
        b = rng.standard_normal(n)
        x, stats = gmres(A, b, config=SolverConfig(restart=n, tol=1e-10, maxiter=n))
        assert stats.converged and stats.iterations <= n
        assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-10
        worst = max(worst, stats.iterations)
    report(1, f"true-residual within 1%; full-space solves <= n iterations "
              f"(max {worst})", t0)


def test_criterion_2_kernel_oracles():
    t0 = time.perf_counter()
    # triple product vs dense RAP
    rng = np.random.default_rng(7)
    R = as_csr(sp.random(20, 50, density=0.2, format="csr", random_state=rng))
    A = as_csr(sp.random(50, 50, density=0.15, format="csr", random_state=rng))
    P = as_csr(sp.random(50, 20, density=0.2, format="csr", random_state=rng))
    dense_rap = R.toarray() @ A.toarray() @ P.toarray()
    got = triple_product(R, A, P).toarray()
    rap_err = np.abs(got - dense_rap).max()
    assert rap_err <= 1e-12 * max(1.0, np.abs(dense_rap).max())

    # ILU(0) vs dense LU on a zero-fill (tridiagonal) matrix
    n = 24
    T = as_csr(sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                        [-1, 0, 1]))
    F = ilu0_factor(T)
    L = np.eye(n)
    U = np.zeros((n, n))
    for i in range(n):
        for k in range(T.indptr[i], T.indptr[i + 1]):
            j = T.indices[k]
            (L if j < i else U)[i, j] = F.data[k]
    lu_err = np.abs(L @ U - T.toarray()).max()
    assert lu_err <= 1e-12

    # Chebyshev damping vs dense spectral oracle
    S = chebyshev_setup(T, degree=2, power_iterations=30)
    lam, V = np.linalg.eigh(0.5 * T.toarray())
    hi = CHEBYSHEV_BOOST * S.lambda_max_estimate
    lo = S.lambda_max_estimate / CHEBYSHEV_RATIO
    theta, delta = 0.5 * (hi + lo), 0.5 * (hi - lo)

    def cheb(d, x):
        return np.cos(d * np.arccos(x)) if abs(x) <= 1 else \
            np.sign(x) ** d * np.cosh(d * np.arccosh(abs(x)))

    cheb_err = 0.0
    for k in (0, n // 2, n - 1):
        e = V[:, k]
        x1 = chebyshev_apply(S, T, np.zeros(n), -e)
        expected = (cheb(2, (theta - lam[k]) / delta) / cheb(2, theta / delta)) * e
        cheb_err = max(cheb_err, np.abs((-x1) - expected).max())
    assert cheb_err <= 1e-8
    report(2, f"RAP err {rap_err:.1e} (tol 1e-12); ILU(0) err {lu_err:.1e} "
              f"(tol 1e-12); Chebyshev err {cheb_err:.1e} (tol 1e-8)", t0)


def test_criterion_3_amg_h_independence():
    t0 = time.perf_counter()
    counts = []
    for nx in (32, 64, 128):
        A = poisson_2d(nx)
        H = build_hierarchy(A, AmgParams(max_coarse_size=64))
        b = A @ np.ones(A.shape[0])
        x, stats = gmres(A, b, preconditioner=as_preconditioner(H),
                         config=SolverConfig(restart=30, tol=1e-8, maxiter=100))
        assert stats.converged
        counts.append(stats.iterations)
    assert max(counts) <= 15
    assert max(counts) - min(counts) <= 3
    report(3, f"2D Poisson 32^2/64^2/128^2 iterations {counts} "
              f"(<= 15, spread <= 3)", t0)


def test_criterion_4_jump_robustness_theta_effect(uncoupled_solid_family):
    t0 = time.perf_counter()
    counts = {0.0: {}, 0.04: {}}
    for r, case in uncoupled_solid_family.items():
        A = case.system.blocks[("phi_s", "phi_s")]
        assert case.regime["sigma_contrast"] >= 1e10
        b = case.system.rhs["phi_s"]
        for theta in (0.0, 0.04):
            H = build_hierarchy(A, AmgParams(drop_tolerance=theta,
                                             max_coarse_size=64))
            _, stats = gmres(A, b, preconditioner=as_preconditioner(H),
                             config=SolverConfig(restart=30, tol=1e-8, maxiter=600))
            assert stats.converged
            counts[theta][r] = stats.iterations
    ratios = {r: counts[0.0][r] / counts[0.04][r] for r in counts[0.0]}
    assert all(ratio >= 1.3 for ratio in ratios.values())
    tuned = list(counts[0.04].values())
    spread = (max(tuned) - min(tuned)) / np.mean(tuned)
    assert spread <= 0.25
    report(4, f"theta=0 vs theta=0.04 iterations {counts[0.0]} vs {counts[0.04]}; "
              f"ratios {dict((k, round(v, 2)) for k, v in ratios.items())} (>= 1.3); "
              f"tuned-count spread {spread:.0%} (<= 25%)", t0)


def test_criterion_5_ras_dichotomy(battery_family):
    t0 = time.perf_counter()
    case = battery_family[2]
    A = case.system.blocks[("x", "x")]
    b = case.system.rhs["x"]
    species_counts = {}
    for p in (2, 4, 8, 16):
        part = partition_nodes(case.grid.centers, p)
        M = ras_setup(A, extend_overlap(A, part, 0), part)
        _, stats = gmres(A, b, preconditioner=lambda r: ras_apply(M, r),
                         config=SolverConfig(restart=30, tol=1e-8, maxiter=500))
        assert stats.converged
        assert stats.iterations <= 45
        species_counts[p] = stats.iterations
    spread = max(species_counts.values()) / min(species_counts.values())
    assert spread <= 2.0

    mono_case = battery_family[1]
    Am = mono_case.system.monolithic()
    bm = mono_case.system.rhs_vector()
    coords = np.vstack([mono_case.grid.centers] * 5)
    part = partition_nodes(coords, 8)
    M = ras_setup(Am, extend_overlap(Am, part, 0), part)
    _, stats = gmres(Am, bm, preconditioner=lambda r: ras_apply(M, r),
                     config=SolverConfig(restart=30, tol=1e-8, maxiter=500))
    stalled = (not stats.converged) or stats.final_relative_residual > 1e-2
    assert stalled
    report(5, f"species block iterations {species_counts} (<= 45, spread <= 2x); "
              f"monolithic DD(0)-ILU(0) unconverged at 500 iterations "
              f"(residual {stats.final_relative_residual:.1e})", t0)


def test_criterion_6_end_to_end_hierarchy(battery_family):
    t0 = time.perf_counter()
    outer = {}
    for r, case in battery_family.items():
        M = build_electrochem_preconditioner(case.system, case.grid.centers)
        b = case.system.rhs_vector()
        x, stats = fgmres(assemble_block_operator(case.system), b,
                          preconditioner=M,
                          config=SolverConfig(restart=5, tol=1e-6, maxiter=25))
        assert stats.converged
        assert stats.iterations <= 3
        true_res = np.linalg.norm(b - case.system.monolithic() @ x) / np.linalg.norm(b)
        assert true_res <= 1e-6
        outer[r] = stats.iterations
    assert max(outer.values()) - min(outer.values()) <= 1
    report(6, f"outer FGMRES(5) iterations per refinement {outer} (<= 3, "
              f"spread <= 1, inner FGMRES(30) at 1e-6)", t0)


# iterations at a fixed 82.5 dofs per subdomain (P = 4 * 4**r, r = 0..3) under
# the default suite, and the fitted exponent of each growing series
WEAK_SERIES = {"liquid_species": ([12, 24, 49, 103], 0.517),
               "nonvoltage": ([15, 23, 46, 77], 0.404),
               "end_to_end": ([2, 2, 2, 1], None)}
# levels of the lower and upper ILU(0) sweeps of the species RAS factor,
# r = 0..3: flat at P = 4·4^r, growing with the subdomain size at P = 4
WAVEFRONT_LEVELS = {"weak": [6, 6, 6, 6], "fixed P = 4": [6, 15, 32, 66]}


def species_sweep_levels(case, p):
    """Wavefront depth of the lower and upper sweeps of the species RAS
    factor: a row that reads no other row is on level 0, any other row one
    level above the highest row it reads; found row by row on the pattern
    of the stack the RAS setup factors."""
    A = case.system.submatrix(("x",))
    part = partition_nodes(case.grid.centers, p)
    S = stack_blocks(A, extend_overlap(A, part, 0))
    n, indptr, indices = S.shape[0], S.indptr.tolist(), S.indices.tolist()
    diag_pos = [indptr[i] + indices[indptr[i]:indptr[i + 1]].index(i) for i in range(n)]
    depths = []
    for rows, reads in ((range(n), lambda i: indices[indptr[i]:diag_pos[i]]),
                        (range(n - 1, -1, -1), lambda i: indices[diag_pos[i] + 1:indptr[i + 1]])):
        level = [0] * n
        for i in rows:
            level[i] = max((level[j] + 1 for j in reads(i)), default=0)
        depths.append(max(level))
    return tuple(depths)


def test_criterion_7_scaling_model_fits():
    t0 = time.perf_counter()
    suite = SuiteConfig()
    points = {system: [] for system in WEAK_SERIES}
    levels = {series: [] for series in WAVEFRONT_LEVELS}
    for r in range(4):
        case = build_case(replace(suite.case, refinement=r))
        for series, p in (("weak", 4 * 4**r), ("fixed P = 4", 4)):
            lower, upper = species_sweep_levels(case, p)
            assert lower == upper
            levels[series].append(lower)
        for system in points:
            stats = run_experiment(case, system, suite, p=4 * 4**r)[2]
            assert stats.converged
            points[system].append((case.system.total_dim, stats.iterations))
    assert levels == WAVEFRONT_LEVELS
    fitted = {}
    for system, (iterations, exponent) in WEAK_SERIES.items():
        assert [its for _, its in points[system]] == iterations
        fitted[system] = fit_exponent(points[system])[0]
        if exponent is not None:
            assert fitted[system] == pytest.approx(exponent, abs=5e-4)
    report(7, "weak iteration series at 82.5 dofs per subdomain, r = 0..3: "
              + "; ".join(f"{s} {WEAK_SERIES[s][0]} (exponent {e:.3f})"
                          for s, e in fitted.items())
              + "; ILU(0) levels per sweep "
              + "; ".join(f"{s} {v}" for s, v in levels.items()), t0)


def test_criterion_8_structural_fidelity(battery_family):
    t0 = time.perf_counter()
    case = battery_family[0]
    blocks = case.system.blocks
    A_s = blocks[("s", "s")]
    coo = A_s.tocoo()
    assert np.array_equal(coo.row, coo.col)
    for pair in [("s", "x"), ("x", "s"), ("s", "p"), ("p", "s"),
                 ("s", "phi_s"), ("phi_s", "s"), ("s", "phi_l"), ("phi_l", "s")]:
        assert pair not in blocks
    electrodes = set(case.grid.cells_of("anode")) | set(case.grid.cells_of("cathode"))
    for pair in [("phi_s", "phi_l"), ("phi_l", "phi_s")]:
        assert set(blocks[pair].tocoo().row) <= electrodes
    x = dense_factor(case.system.monolithic()).solve(case.system.rhs_vector())
    err = np.linalg.norm(x - case.solution) / np.linalg.norm(case.solution)
    assert err <= 1e-8
    report(8, f"block topology matches the nested splitting; manufactured "
              f"direct-solve error {err:.1e} (tol 1e-8)", t0)
