import ast
import inspect
import threading
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from blocksolve import blockprec
from blocksolve.battery import CaseConfig, build_case
from blocksolve.blockprec import (
    BlockGaussSeidel,
    BlockSystem,
    ElectrochemOptions,
    ElectrochemPreconditioner,
    NonvoltageBgs,
    VoltageBgs,
    assemble_block_operator,
    build_electrochem_preconditioner,
    NONVOLTAGE_FIELDS,
    VOLTAGE_FIELDS,
)
from blocksolve.krylov import SolverConfig, fgmres
from blocksolve.smoothers import jacobi_apply
from blocksolve.sparse import as_csr, dense_factor


def spd(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return as_csr(B @ B.T + (shift or n) * np.eye(n))


def concat_oracle(system):
    """Monolithic assembly oracle: manual COO concatenation with offsets."""
    n = system.total_dim
    rows, cols, vals = [], [], []
    for (rf, cf), block in system.blocks.items():
        coo = block.tocoo()
        rows.append(coo.row + system.offset(rf))
        cols.append(coo.col + system.offset(cf))
        vals.append(coo.data)
    M = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    M.sum_duplicates()
    M.sort_indices()
    return M


# ---------------------------------------------------------------- BlockSystem

def test_blocksystem_validates_dimensions():
    with pytest.raises(ValueError, match="shape"):
        BlockSystem(fields=("a", "b"), dims={"a": 2, "b": 3},
                    blocks={("a", "b"): as_csr(np.ones((2, 2)))})


def test_blocksystem_requires_diagonal_species_block():
    A = as_csr(np.array([[1.0, 0.5], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        BlockSystem(fields=("s",), dims={"s": 2}, blocks={("s", "s"): A})


def test_single_field_operator_is_plain_spmv():
    A = spd(6, 0)
    system = BlockSystem(fields=("x",), dims={"x": 6}, blocks={("x", "x"): A})
    op = assemble_block_operator(system)
    v = np.random.default_rng(1).standard_normal(6)
    assert np.array_equal(op @ v, A @ v)


def test_two_field_block_diagonal_apply():
    A, B = spd(4, 2), spd(3, 3)
    system = BlockSystem(fields=("x", "p"), dims={"x": 4, "p": 3},
                         blocks={("x", "x"): A, ("p", "p"): B})
    op = assemble_block_operator(system)
    v = np.random.default_rng(4).standard_normal(7)
    expected = np.concatenate([A @ v[:4], B @ v[4:]])
    np.testing.assert_allclose(op @ v, expected, rtol=1e-13)


def test_full_case_matches_concat_oracle_bitwise():
    case = build_case(CaseConfig(nr=6, refinement=0, n_cells=2))
    system = case.system
    op = assemble_block_operator(system)
    oracle = concat_oracle(system)
    assert np.array_equal(op.indptr, oracle.indptr)
    assert np.array_equal(op.indices, oracle.indices)
    assert np.array_equal(op.data, oracle.data)
    for seed in range(10):
        v = np.random.default_rng(seed).standard_normal(system.total_dim)
        assert np.array_equal(op @ v, oracle @ v)


def test_submatrix_built_once_per_field_groups():
    case = build_case(CaseConfig(nr=4, refinement=0, n_cells=1))
    system = case.system
    pairs = ((VOLTAGE_FIELDS, None), (NONVOLTAGE_FIELDS, None),
             (VOLTAGE_FIELDS, NONVOLTAGE_FIELDS), (system.fields, None))
    shared = [system.submatrix(rows, cols) for rows, cols in pairs]
    # building and applying the hierarchical preconditioner reads the shared
    # copies and leaves them as built
    M = ElectrochemPreconditioner(system, case.grid.centers)
    fgmres(system.monolithic(), system.rhs_vector(), preconditioner=M,
           config=SolverConfig(restart=5, tol=1e-6, flexible=True))
    fresh = BlockSystem(fields=system.fields, dims=system.dims, blocks=system.blocks)
    for (rows, cols), S in zip(pairs, shared):
        assert system.submatrix(list(rows), cols and list(cols)) is S
        F = fresh.submatrix(rows, cols)
        assert F is not S
        for a, b in ((S.indptr, F.indptr), (S.indices, F.indices), (S.data, F.data)):
            assert a.tobytes() == b.tobytes()
    assert system.monolithic() is system.submatrix(system.fields, system.fields)


def test_blockwise_sum_agrees_with_monolithic():
    case = build_case(CaseConfig(nr=4, refinement=0, n_cells=1))
    system = case.system
    op = assemble_block_operator(system)
    v = np.random.default_rng(7).standard_normal(system.total_dim)
    parts = system.split(v)
    out = {f: np.zeros(system.dims[f]) for f in system.fields}
    for (rf, cf), block in system.blocks.items():
        out[rf] += block @ parts[cf]
    segmentwise = system.join(out)
    y = op @ v
    scale = np.abs(y).max()
    np.testing.assert_allclose(y, segmentwise, atol=1e-13 * scale)


# ---------------------------------------------------------------- BGS sweeps

def voltage_pair(A, B, C=None):
    blocks = {("phi_s", "phi_s"): A, ("phi_l", "phi_l"): B}
    if C is not None:
        blocks[("phi_s", "phi_l")] = C
    return BlockSystem(fields=VOLTAGE_FIELDS,
                       dims={"phi_s": A.shape[0], "phi_l": B.shape[0]},
                       blocks=blocks)


def field_sweep(system, solvers):
    """The sweep with one single-field group per field of ``system``."""
    return BlockGaussSeidel(system, [(f,) for f in system.fields], solvers)


def test_voltage_bgs_decoupled_exact():
    A, B = spd(5, 10), spd(4, 11)
    Fa, Fb = dense_factor(A), dense_factor(B)
    r_s = np.random.default_rng(12).standard_normal(5)
    r_l = np.random.default_rng(13).standard_normal(4)
    z = field_sweep(voltage_pair(A, B), [Fa.solve, Fb.solve])(np.concatenate([r_s, r_l]))
    z_s, z_l = z[:5], z[5:]
    np.testing.assert_allclose(A @ z_s, r_s, rtol=1e-10)
    np.testing.assert_allclose(B @ z_l, r_l, rtol=1e-10)


def test_only_the_generic_sweep_defines_call():
    tree = ast.parse(inspect.getsource(blockprec))
    defines_call = [
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        and any(getattr(f, "name", None) == "__call__" for f in node.body)]
    assert defines_call == ["BlockGaussSeidel"]
    for cls in (VoltageBgs, NonvoltageBgs, ElectrochemPreconditioner):
        assert issubclass(cls, BlockGaussSeidel)


def three_group_system():
    # groups (a, b), (c,), (d,): the (a, b)-(c) coupling is the concatenated
    # submatrix, the (c)-(d) coupling a stored subblock, and (a, b)-(d) is
    # absent
    rng = np.random.default_rng(18)
    dims = {"a": 3, "b": 2, "c": 4, "d": 3}
    blocks = {(f, f): spd(n, 19 + k) for k, (f, n) in enumerate(dims.items())}
    for pair in (("a", "b"), ("b", "a"), ("a", "c"), ("b", "c"), ("c", "d")):
        blocks[pair] = as_csr(0.3 * rng.standard_normal((dims[pair[0]], dims[pair[1]])))
    return BlockSystem(fields=tuple(dims), dims=dims, blocks=blocks)


def test_voltage_bgs_exact_on_upper_triangular():
    A, B = spd(5, 14), spd(5, 15)
    C = as_csr(0.3 * np.random.default_rng(16).standard_normal((5, 5)))
    cases = [(voltage_pair(A, B, C), [("phi_s",), ("phi_l",)]),
             (three_group_system(), [("a", "b"), ("c",), ("d",)])]
    for system, groups in cases:
        diagonal = [system.submatrix(g) for g in groups]
        sweep = BlockGaussSeidel(system, groups, [dense_factor(D).solve for D in diagonal])
        r = np.random.default_rng(17).standard_normal(system.total_dim)
        z = sweep(r)
        # the block upper-triangular part of the operator over the grouping,
        # assembled densely, maps z back to r
        M = system.monolithic().toarray()
        bounds = np.cumsum([0] + [D.shape[0] for D in diagonal])
        for k in range(len(groups)):
            for h in range(k):
                M[bounds[k]:bounds[k + 1], bounds[h]:bounds[h + 1]] = 0.0
        np.testing.assert_allclose(M @ z, r, atol=1e-12)


def test_nonvoltage_bgs_decoupled_exact():
    A_s = as_csr(np.diag([2.0, 4.0]))
    A_x, A_p = spd(3, 20), spd(3, 21)
    Fx, Fp = dense_factor(A_x), dense_factor(A_p)
    rng = np.random.default_rng(22)
    r_s, r_x, r_p = rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(3)
    system = BlockSystem(fields=NONVOLTAGE_FIELDS, dims={"s": 2, "x": 3, "p": 3},
                         blocks={("s", "s"): A_s, ("x", "x"): A_x, ("p", "p"): A_p})
    sweep = field_sweep(system, [partial(jacobi_apply, A_s), Fx.solve, Fp.solve])
    z = sweep(np.concatenate([r_s, r_x, r_p]))
    z_s, z_x, z_p = z[:2], z[2:5], z[5:]
    np.testing.assert_allclose(A_s @ z_s, r_s, rtol=1e-14)
    np.testing.assert_allclose(A_x @ z_x, r_x, rtol=1e-10)
    np.testing.assert_allclose(A_p @ z_p, r_p, rtol=1e-10)


def test_nonvoltage_bgs_rhs_on_species_only():
    case = build_case(CaseConfig(nr=4, refinement=0, n_cells=1))
    system = case.system
    n = system.dims["s"]
    bgs = NonvoltageBgs.build(system, case.grid.centers,
                              ElectrochemOptions(ras_subdomains=2))
    r = np.zeros(3 * n)
    rng = np.random.default_rng(23)
    r[:n] = rng.standard_normal(n)
    z = bgs(r)
    A_s = system.blocks[("s", "s")]
    np.testing.assert_allclose(A_s @ z[:n], r[:n], rtol=1e-14)
    assert np.array_equal(z[n:], np.zeros(2 * n))


# ---------------------------------------------------------------- hierarchical

def test_hierarchical_exact_inverse_when_uncoupled():
    # no voltage/non-voltage coupling and direct inner solves: the
    # preconditioner is the exact inverse of the block-diagonal operator
    case = build_case(CaseConfig(nr=4, refinement=0, n_cells=1,
                                 exchange_current=0.0,
                                 pressure_species_coupling=0.0))
    system = case.system
    M = build_electrochem_preconditioner(
        system, case.grid.centers, ElectrochemOptions(inner_mode="direct"))
    b = system.rhs_vector()
    x, stats = fgmres(assemble_block_operator(system), b, preconditioner=M,
                      config=SolverConfig(restart=5, tol=1e-10, maxiter=10))
    assert stats.converged and stats.iterations == 1
    true_res = np.linalg.norm(b - system.monolithic() @ x) / np.linalg.norm(b)
    assert true_res <= 1e-10


def test_nonfinite_rhs_fails_before_any_preconditioner_apply():
    case = build_case(CaseConfig(nr=6, refinement=0, n_cells=2))
    M = build_electrochem_preconditioner(case.system, case.grid.centers)
    applications = []

    def counted(r):
        applications.append(1)
        return M(r)

    b = case.system.rhs_vector()
    b[7] = np.nan
    with pytest.raises(ValueError, match="rhs entry 7 is not finite"):
        fgmres(assemble_block_operator(case.system), b, preconditioner=counted,
               config=SolverConfig(restart=5, tol=1e-6, maxiter=25))
    assert applications == []


def test_hierarchical_linear_with_exact_inner():
    case = build_case(CaseConfig(nr=4, refinement=0, n_cells=1))
    M = build_electrochem_preconditioner(
        case.system, case.grid.centers, ElectrochemOptions(inner_mode="direct"))
    rng = np.random.default_rng(30)
    n = case.total_dim
    r1, r2 = rng.standard_normal(n), rng.standard_normal(n)
    z = M(1.5 * r1 - 2.0 * r2)
    z_lin = 1.5 * M(r1) - 2.0 * M(r2)
    scale = np.abs(z_lin).max()
    np.testing.assert_allclose(z, z_lin, atol=1e-10 * scale)


def test_hierarchical_direct_inner_two_outer_iterations():
    case = build_case(CaseConfig(nr=6, refinement=1, n_cells=2))
    M = build_electrochem_preconditioner(
        case.system, case.grid.centers, ElectrochemOptions(inner_mode="direct"))
    b = case.system.rhs_vector()
    x, stats = fgmres(assemble_block_operator(case.system), b, preconditioner=M,
                      config=SolverConfig(restart=5, tol=1e-6, maxiter=10))
    assert stats.converged
    assert stats.iterations <= 2


def test_hierarchical_outer_iterations_small():
    case = build_case(CaseConfig(nr=6, refinement=1, n_cells=2))
    M = build_electrochem_preconditioner(case.system, case.grid.centers)
    b = case.system.rhs_vector()
    x, stats = fgmres(assemble_block_operator(case.system), b, preconditioner=M,
                      config=SolverConfig(restart=5, tol=1e-6, maxiter=15))
    assert stats.converged
    assert stats.iterations <= 3
    true_res = np.linalg.norm(b - case.system.monolithic() @ x) / np.linalg.norm(b)
    assert true_res <= 1e-6


def test_block_jacobi_over_xp_is_no_better():
    # dropping the species->pressure substitution may not reduce inner
    # iteration counts
    case = build_case(CaseConfig(nr=6, refinement=1, n_cells=2))
    system = case.system
    bgs = NonvoltageBgs.build(system, case.grid.centers,
                              ElectrochemOptions(ras_subdomains=4))
    A_nn = system.submatrix(NONVOLTAGE_FIELDS)
    b_nn = np.concatenate([system.rhs[f] for f in NONVOLTAGE_FIELDS])
    cfg = SolverConfig(restart=30, tol=1e-6, maxiter=300, flexible=True)
    _, with_coupling = fgmres(A_nn, b_nn, preconditioner=bgs, config=cfg)

    # block-Jacobi variant: the same solvers without the A_xp coupling
    uncoupled = BlockSystem(fields=system.fields, dims=system.dims, blocks={
        pair: block for pair, block in system.blocks.items() if pair != ("x", "p")})
    jacobi = BlockGaussSeidel(uncoupled, [(f,) for f in NONVOLTAGE_FIELDS], bgs.solvers)
    _, without = fgmres(A_nn, b_nn, preconditioner=jacobi, config=cfg)
    assert with_coupling.converged and without.converged
    assert without.iterations >= with_coupling.iterations


def test_coupled_voltage_bgs_bounded_across_refinements():
    # FGMRES(30) + the voltage sweep reaches 1e-6 in few, stable iterations
    counts = []
    for r in (0, 1, 2):
        case = build_case(CaseConfig(nr=6, refinement=r, n_cells=2))
        system = case.system
        A_vv = system.submatrix(VOLTAGE_FIELDS)
        b = np.concatenate([system.rhs[f] for f in VOLTAGE_FIELDS])
        bgs = VoltageBgs.build(system, ElectrochemOptions())
        _, stats = fgmres(A_vv, b, preconditioner=bgs,
                          config=SolverConfig(restart=30, tol=1e-6, maxiter=200,
                                              flexible=True))
        assert stats.converged
        assert stats.iterations <= 45
        counts.append(stats.iterations)
    mean = np.mean(counts)
    assert all(abs(c - mean) <= 0.25 * mean + 1 for c in counts)


def test_nonvoltage_bgs_bounded_across_refinements():
    for r in (0, 1, 2):
        case = build_case(CaseConfig(nr=6, refinement=r, n_cells=2))
        system = case.system
        A_nn = system.submatrix(NONVOLTAGE_FIELDS)
        b = np.concatenate([system.rhs[f] for f in NONVOLTAGE_FIELDS])
        bgs = NonvoltageBgs.build(system, case.grid.centers, ElectrochemOptions())
        _, stats = fgmres(A_nn, b, preconditioner=bgs,
                          config=SolverConfig(restart=30, tol=1e-6, maxiter=300,
                                              flexible=True))
        assert stats.converged
        assert stats.iterations <= 55


def test_per_block_drop_tolerance_override():
    opts = ElectrochemOptions(drop_tolerance=0.04,
                              drop_tolerances={"p": 0.0, "phi_l": 0.1})
    assert opts.theta("phi_s") == 0.04
    assert opts.theta("phi_l") == 0.1
    assert opts.theta("p") == 0.0
    case = build_case(CaseConfig(nr=4, refinement=0, n_cells=1))
    M = build_electrochem_preconditioner(case.system, case.grid.centers, opts)
    b = case.system.rhs_vector()
    _, stats = fgmres(assemble_block_operator(case.system), b, preconditioner=M,
                      config=SolverConfig(restart=5, tol=1e-6, maxiter=15))
    assert stats.converged


def test_suite_config_passes_precon_overrides():
    from blocksolve.bench import SuiteConfig, run_experiment
    suite = SuiteConfig.from_dict({
        "case": {"nr": 4, "refinement": 0, "n_cells": 1},
        "refinements": [0],
        "repetitions": 1,
        "precon": {"inner_restart": 10, "voltage_smoother_degree": 2,
                   "drop_tolerances": {"p": 0.0}},
    })
    case = build_case(suite.case)
    _, _, stats = run_experiment(case, "end_to_end", suite, p=2)
    assert stats.converged


def test_inner_nonconvergence_recorded_not_fatal():
    # one inner iteration never converges; the outer solve still runs, and
    # reusing the preconditioner changes neither it nor the solution
    case = build_case(CaseConfig(nr=6, refinement=1, n_cells=2))
    M = build_electrochem_preconditioner(
        case.system, case.grid.centers,
        ElectrochemOptions(inner_maxiter=1))
    lengths = {k: len(v) for k, v in vars(M).items() if isinstance(v, list)}
    b = case.system.rhs_vector()
    cfg = SolverConfig(restart=5, tol=1e-6, maxiter=20)
    x1, _ = fgmres(assemble_block_operator(case.system), b, preconditioner=M, config=cfg)
    x2, _ = fgmres(assemble_block_operator(case.system), b, preconditioner=M, config=cfg)
    assert x1.tobytes() == x2.tobytes()
    assert {k: len(v) for k, v in vars(M).items() if isinstance(v, list)} == lengths


def test_preconditioner_apply_is_thread_safe():
    case = build_case(CaseConfig(nr=6, refinement=1, n_cells=2))
    M = build_electrochem_preconditioner(case.system, case.grid.centers)
    residuals = [np.random.default_rng(seed).standard_normal(case.total_dim)
                 for seed in (40, 41)]
    serial = [M(r) for r in residuals]

    threaded = [None, None]

    def apply(k):
        threaded[k] = M(residuals[k])

    threads = [threading.Thread(target=apply, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for z, z_ref in zip(threaded, serial):
        assert z.tobytes() == z_ref.tobytes()
