import numpy as np
import pytest
import scipy.sparse as sp

from blocksolve.krylov import (
    GmresBreakdownError,
    SolverConfig,
    fgmres,
    gmres,
)
from blocksolve.sparse import as_csr, dense_factor


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
    with pytest.raises(ValueError, match="not finite at iteration 3 "):
        solve(operator, np.ones(A.shape[0]), preconditioner=preconditioner,
              config=SolverConfig(tol=1e-12))
    assert operator.calls == 3 and preconditioner.calls == 3


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
    with pytest.raises(GmresBreakdownError):
        gmres(A, b, config=SolverConfig(restart=2, tol=1e-10))


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


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restart=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=2.0)
    with pytest.raises(ValueError):
        SolverConfig(maxiter=0)
