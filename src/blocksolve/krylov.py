"""Restarted GMRES and flexible GMRES with right preconditioning.

Both solvers start from a zero initial guess, orthogonalize with single-pass
modified Gram-Schmidt, and measure convergence on the unpreconditioned
relative residual. Each restart cycle ends on one true residual b - A x:
it decides convergence, is recorded in ``SolveStats.cycle_residuals`` and
seeds the next cycle, so k restarts apply the operator iterations + k + 1
times. Statistics hold counts and residuals; callers time their solves.

Every BLAS call goes through scipy's BLAS: numpy links its own OpenBLAS,
and alternating the two wakes both thread pools, whose idle threads spin
against each other (the r = 3 coupled solve ran 100 times slower on 2 cores).
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import daxpy as _daxpy
from scipy.linalg.blas import ddot as _ddot
from scipy.linalg.blas import dgemv as _dgemv

from .sparse import as_apply, require_fields


@dataclass
class SolverConfig:
    """Restart length, relative tolerance, iteration cap, flexible flag."""

    restart: int = field(default=30, metadata={"least": 1})
    tol: float = field(default=1e-8, metadata={"above": 0, "below": 1})
    maxiter: int = field(default=500, metadata={"least": 1})
    flexible: bool = False

    def __post_init__(self):
        require_fields(self)


@dataclass
class SolveStats:
    iterations: int = 0
    restarts: int = 0
    final_relative_residual: float = 0.0
    converged: bool = False
    precond_applications: int = 0
    residual_history: list = field(default_factory=list)
    # true relative residual at the end of each restart cycle: equal
    # entries show a stalled solve
    cycle_residuals: list = field(default_factory=list)


class GmresBreakdownError(RuntimeError):
    """Exact Arnoldi breakdown whose candidate solution failed the residual check."""

    def __init__(self, iteration, relative_residual):
        self.iteration = int(iteration)
        self.relative_residual = float(relative_residual)
        super().__init__(
            f"lucky breakdown at iteration {iteration} but relative residual "
            f"{relative_residual:.3e} does not meet the tolerance"
        )


# Basis buffers of finished solves, for later solves to reuse: a solve takes
# the smallest one that fits, or, when none fits, drops the largest one and
# allocates. So the list never holds more buffers than the most solves that
# ran at once (nested solves included), and repeated solves fault no fresh
# pages in.
_free_bases = []
_free_lock = threading.Lock()


def _take_basis(size):
    """A float64 buffer of at least ``size`` entries, from the free list if one fits."""
    with _free_lock:
        fits = [i for i, buf in enumerate(_free_bases) if buf.size >= size]
        if fits:
            return _free_bases.pop(min(fits, key=lambda i: _free_bases[i].size))
        if _free_bases:
            _free_bases.pop(max(range(len(_free_bases)), key=lambda i: _free_bases[i].size))
    return np.empty(size)


def _give_basis(buf):
    with _free_lock:
        _free_bases.append(buf)


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
    """The restarted (flexible) GMRES loop behind ``gmres`` and ``fgmres``.

    Each step applies the preconditioner and the operator (a matrix by
    ``as_apply``; any result a callable returns is checked), orthogonalizes
    by modified Gram-Schmidt (one ``ddot`` and one ``daxpy`` a step) into
    column j of ``H``, and reduces that column with the cycle's Givens
    rotations, run on Python floats: they round as float64 array scalars
    do. ``V`` and ``Z`` are rows of one buffer from the free list; a cycle's
    correction is one ``dgemv`` into the row of ``V`` after its last vector.
    """
    apply_a = as_apply(operator, "operator")
    has_precond = preconditioner is not None
    apply_m = as_apply(preconditioner, "preconditioner")

    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError(f"gmres: rhs must be a vector, got shape {b.shape}")
    n = b.shape[0]
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"gmres: rhs entry {bad[0]} is not finite ({b[bad[0]]})")
    shape = getattr(operator, "shape", None)
    if shape is not None:
        if len(shape) != 2:
            raise ValueError(f"gmres: operator must be 2-D, got shape {tuple(shape)}")
        if shape[0] != shape[1]:
            raise ValueError(f"gmres: operator must be square, got {shape}")
        if shape[0] != n:
            raise ValueError(
                f"gmres: rhs length {n} does not match operator dimension {shape[0]}"
            )
    shape = getattr(preconditioner, "shape", None)
    if shape is not None and tuple(shape) != (n, n):
        raise ValueError(f"gmres: preconditioner of shape {tuple(shape)} for a system "
                         f"of dimension {n} (want ({n}, {n}))")

    def checked(v, what):  # the bound kernel and the basis take only (n,)
        if np.shape(v) != (n,):
            raise ValueError(f"gmres: {what} returned shape {np.shape(v)} at iteration "
                             f"{stats.iterations} (want ({n},))")
        return v
    stats = SolveStats()
    bnorm = math.sqrt(_ddot(b, b)) if n else 0.0
    if bnorm == 0.0:
        stats.converged = True
        return np.zeros(n), stats

    m = config.restart
    x = np.zeros(n)
    # V and Z share one buffer that holds whatever an earlier solve left, so
    # every row is written before it is read: V[0] at the start of a cycle,
    # V[j + 1] and Z[j] in step j, V[k] when a cycle of k steps ends
    basis_rows = 2 * m + 1 if flexible else m + 1
    buf = _take_basis(basis_rows * n)
    basis = buf[:basis_rows * n].reshape(basis_rows, n)
    V, Z = basis[:m + 1], basis[m + 1:]
    # a callable or matvec object may return its input, a row of V or Z,
    # which the in-place Gram-Schmidt updates would then overwrite
    is_matrix = sp.issparse(operator) or isinstance(operator, np.ndarray)
    rows = list(V)  # views of V's rows, made once
    # the true residual of the zero initial guess; each cycle ends on a new one
    r, rnorm = b, bnorm

    try:
        while True:
            H = np.zeros((m + 1, m))
            cs, sn = [], []  # the cycle's rotations, as Python floats
            g = [float(rnorm)]  # the rotated right-hand side, as Python floats
            np.divide(r, rnorm, out=V[0])

            j = -1
            breakdown = False
            while j + 1 < m and stats.iterations < config.maxiter:
                j += 1
                stats.iterations += 1
                z = apply_m(V[j])
                if has_precond:
                    checked(z, "preconditioner")
                    stats.precond_applications += 1
                if flexible:
                    Z[j] = z
                w = apply_a(z)
                if not is_matrix:
                    checked(w, "operator")
                    if np.may_share_memory(w, buf):
                        w = w.copy()
                h = []
                for v in rows[:j + 1]:
                    hij = _ddot(v, w)
                    h.append(hij)
                    w = _daxpy(v, w, a=-hij)
                hnorm = math.sqrt(_ddot(w, w))
                if not math.isfinite(hnorm):
                    raise ValueError(
                        f"gmres: Arnoldi vector is not finite at iteration {stats.iterations}"
                        " (NaN or Inf from the operator or the preconditioner)")
                h.append(hnorm)
                if hnorm == 0.0:
                    breakdown = True
                else:
                    np.divide(w, hnorm, out=V[j + 1])
                # apply stored Givens rotations, then a new one to annihilate H[j+1,j]
                for i in range(j):
                    hij = cs[i] * h[i] + sn[i] * h[i + 1]
                    h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1]
                    h[i] = hij
                denom = float(np.hypot(h[j], h[j + 1]))
                if denom == 0.0:
                    cs.append(1.0)
                    sn.append(0.0)
                else:
                    cs.append(h[j] / denom)
                    sn.append(h[j + 1] / denom)
                h[j], h[j + 1] = denom, 0.0
                H[:j + 2, j] = h
                g.append(-sn[j] * g[j])
                g[j] = cs[j] * g[j]
                stats.residual_history.append(abs(g[j + 1]) / bnorm)
                if breakdown or stats.residual_history[-1] <= config.tol:
                    break

            # assemble the cycle's correction from the least-squares coefficients
            k = j + 1
            if breakdown and H[k - 1, k - 1] == 0.0:
                # singular leading block after an exact breakdown: fall back to a
                # minimum-norm least-squares coefficient vector
                y = scipy.linalg.lstsq(H[:k, :k], np.array(g[:k]),
                                       cond=k * np.finfo(np.float64).eps)[0]
            else:
                y = _solve_upper_triangular(H[:k, :k], np.array(g[:k]))
            # (V or Z)[:k]^T y into V[k]; the transposed rows are a Fortran-order
            # matrix, so dgemv reads them in place
            if flexible:
                x += _dgemv(1.0, Z[:k].T, y, y=V[k], overwrite_y=True)
            else:
                z = apply_m(_dgemv(1.0, V[:k].T, y, y=V[k], overwrite_y=True))
                if has_precond:
                    checked(z, "preconditioner")
                    stats.precond_applications += 1
                x += z

            w = apply_a(x)
            r = b - (w if is_matrix else checked(w, "operator"))
            rnorm = math.sqrt(_ddot(r, r))
            stats.final_relative_residual = rnorm / bnorm
            stats.cycle_residuals.append(stats.final_relative_residual)
            if stats.final_relative_residual <= config.tol:
                stats.converged = True
                break
            if breakdown:
                raise GmresBreakdownError(stats.iterations, stats.final_relative_residual)
            if stats.iterations >= config.maxiter:
                break
            stats.restarts += 1
    finally:
        _give_basis(buf)

    return x, stats


def _solve_upper_triangular(T, rhs):
    # tiny (restart x restart) systems; plain back substitution, its dot
    # products by scipy's ddot (which takes no empty vector)
    k = T.shape[0]
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        s = rhs[i]
        if i + 1 < k:
            s = s - _ddot(T[i, i + 1:], y[i + 1:])
        y[i] = s / T[i, i]
    return y
