"""Restarted GMRES and flexible GMRES with right preconditioning.

Both solvers start from a zero initial guess, orthogonalize with single-pass
modified Gram-Schmidt, and measure convergence on the unpreconditioned
relative residual. The recurrence residual is always validated against the
true residual before a solve is declared converged.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass
class SolverConfig:
    """Restart length, relative tolerance, iteration cap, flexible flag."""

    restart: int = 30
    tol: float = 1e-8
    maxiter: int = 500
    flexible: bool = False

    def __post_init__(self):
        if self.restart < 1:
            raise ValueError(f"restart length must be >= 1, got {self.restart}")
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"relative tolerance must lie in (0, 1), got {self.tol}")
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be >= 1, got {self.maxiter}")


@dataclass
class SolveStats:
    iterations: int = 0
    restarts: int = 0
    final_relative_residual: float = 0.0
    converged: bool = False
    solve_seconds: float = 0.0
    precond_applications: int = 0
    residual_history: list = field(default_factory=list)

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "restarts": self.restarts,
            "final_relative_residual": self.final_relative_residual,
            "converged": self.converged,
            "solve_seconds": self.solve_seconds,
            "precond_applications": self.precond_applications,
        }


class GmresBreakdownError(RuntimeError):
    """Exact Arnoldi breakdown whose candidate solution failed the residual check."""

    def __init__(self, iteration, relative_residual):
        self.iteration = int(iteration)
        self.relative_residual = float(relative_residual)
        super().__init__(
            f"lucky breakdown at iteration {iteration} but relative residual "
            f"{relative_residual:.3e} does not meet the tolerance"
        )


def as_apply(obj, what="operator"):
    """Coerce matrices, LinearOperators, or callables into an apply function."""
    if obj is None:
        return lambda v: v
    if sp.issparse(obj) or isinstance(obj, np.ndarray):
        return lambda v: obj @ v
    if hasattr(obj, "matvec"):
        return obj.matvec
    if callable(obj):
        return obj
    raise TypeError(f"cannot interpret {what} of type {type(obj)!r}")


def gmres(operator, b, preconditioner=None, config=None):
    """Right-preconditioned restarted GMRES; returns (x, SolveStats)."""
    config = config or SolverConfig()
    return _gmres(operator, b, preconditioner, config, flexible=config.flexible)


def fgmres(operator, b, preconditioner=None, config=None):
    """Flexible GMRES: stores preconditioned basis vectors so the
    preconditioner may change between iterations; the final solution is
    assembled from the stored vectors, saving one preconditioner application
    per restart cycle."""
    config = config or SolverConfig(flexible=True)
    return _gmres(operator, b, preconditioner, config, flexible=True)


def _gmres(operator, b, preconditioner, config, flexible):
    t0 = time.perf_counter()
    apply_a = as_apply(operator, "operator")
    has_precond = preconditioner is not None
    apply_m = as_apply(preconditioner, "preconditioner")

    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"gmres: rhs entry {bad[0]} is not finite ({b[bad[0]]})")
    shape = getattr(operator, "shape", None)
    if shape is not None:
        if shape[0] != shape[1]:
            raise ValueError(f"gmres: operator must be square, got {shape}")
        if shape[0] != n:
            raise ValueError(
                f"gmres: rhs length {n} does not match operator dimension {shape[0]}"
            )
    stats = SolveStats()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        stats.converged = True
        stats.solve_seconds = time.perf_counter() - t0
        return np.zeros(n), stats

    m = config.restart
    x = np.zeros(n)
    cycles = 0

    while True:
        if cycles == 0:
            r = b.copy()
        else:
            r = b - apply_a(x)
        rnorm = np.linalg.norm(r)
        if rnorm / bnorm <= config.tol:
            stats.converged = True
            stats.final_relative_residual = rnorm / bnorm
            break

        V = np.zeros((m + 1, n))
        Z = np.zeros((m, n)) if flexible else None
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        V[0] = r / rnorm
        g[0] = rnorm

        j = -1
        breakdown = False
        while j + 1 < m and stats.iterations < config.maxiter:
            j += 1
            stats.iterations += 1
            z = apply_m(V[j])
            if flexible:
                Z[j] = z
            if has_precond:
                stats.precond_applications += 1
            w = apply_a(z)
            for i in range(j + 1):
                H[i, j] = V[i] @ w
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            if not math.isfinite(H[j + 1, j]):
                raise ValueError(
                    f"gmres: Arnoldi vector is not finite at iteration {stats.iterations}"
                    " (NaN or Inf from the operator or the preconditioner)")
            if H[j + 1, j] == 0.0:
                breakdown = True
            else:
                V[j + 1] = w / H[j + 1, j]
            # apply stored Givens rotations, then a new one to annihilate H[j+1,j]
            for i in range(j):
                hij = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = hij
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j] = H[j, j] / denom
                sn[j] = H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            stats.residual_history.append(abs(g[j + 1]) / bnorm)
            if breakdown or abs(g[j + 1]) / bnorm <= config.tol:
                break

        # assemble the cycle's correction from the least-squares coefficients
        k = j + 1
        if breakdown and H[k - 1, k - 1] == 0.0:
            # singular leading block after an exact breakdown: fall back to a
            # minimum-norm least-squares coefficient vector
            y = np.linalg.lstsq(H[:k, :k], g[:k], rcond=None)[0]
        else:
            y = _solve_upper_triangular(H[:k, :k], g[:k])
        if flexible:
            dx = Z[:k].T @ y
        else:
            u = V[:k].T @ y
            dx = apply_m(u)
            if has_precond:
                stats.precond_applications += 1
        x = x + dx

        true_rel = np.linalg.norm(b - apply_a(x)) / bnorm
        stats.final_relative_residual = true_rel
        if breakdown:
            if true_rel <= config.tol:
                stats.converged = True
                break
            raise GmresBreakdownError(stats.iterations, true_rel)
        if true_rel <= config.tol:
            stats.converged = True
            break
        if stats.iterations >= config.maxiter:
            break
        cycles += 1
        stats.restarts = cycles

    stats.solve_seconds = time.perf_counter() - t0
    return x, stats


def _solve_upper_triangular(T, rhs):
    # tiny (restart x restart) systems; plain back substitution
    k = T.shape[0]
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (rhs[i] - T[i, i + 1:] @ y[i + 1:]) / T[i, i]
    return y
