"""Point smoothers and local factorizations: Jacobi, Chebyshev, and ILU(0).

These are the building blocks for multigrid levels and Schwarz subdomain
solves. ILU(0) keeps the exact sparsity pattern of its input; the Chebyshev
smoother runs on the diagonally preconditioned system over a spectral
interval derived from a power-iteration estimate of the largest eigenvalue.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .sparse import (CsrArrays, SetupCache, SingularMatrixError, product_adder, ranges,
                     require_canonical, require_fields, require_finite)

PIVOT_FLOOR = 1e-14
# the Chebyshev interval of D^{-1} A is [lambda_max / RATIO, BOOST * lambda_max]
CHEBYSHEV_RATIO = 30.0
CHEBYSHEV_BOOST = 1.1
# bounds of a Chebyshev degree: Horner's rule in the monomial basis drifts
# from the recurrence by about 4e-13 relative at 8, 6e-12 at 10, 1e-8 at 16
CHEBYSHEV_DEGREES = {"least": 1, "most": 8}



@dataclass
class Ilu0Factors:
    """Combined L\\U storage on the exact pattern of the factored matrix, in
    its entry order, and the pivots u_ii. L (unit) lies strictly below the
    diagonal, U on and above it. ``sweeps`` are the two forward sweeps of
    ``ilu0_apply``: bound CSR products on -l_ij in row order, and on
    -u_ij / u_ii with rows and columns reversed (n - 1 - i, n - 1 - j,
    columns ascending). The factors are read-only.
    """

    n: int
    data: np.ndarray
    pivots: np.ndarray
    sweeps: tuple = field(repr=False)


def _levels(n, readers, read):
    """Wavefront level of each of ``n`` nodes: 0 for a node that reads no
    other, else one more than the highest level it reads. Node
    ``readers[e]`` reads node ``read[e]``; the graph must be acyclic.

    A frontier (Kahn) sweep over the transposed pattern: each edge is
    visited once, in numpy, plus a constant per level; nothing is sorted
    inside the sweep.
    """
    pending = np.bincount(readers, minlength=n)
    order = np.argsort(read, kind="stable")
    dependents = readers[order]
    ptr = np.searchsorted(read[order], np.arange(n + 1))
    counts = np.diff(ptr)
    level = np.zeros(n, dtype=np.int64)
    slot = np.empty(n, dtype=np.int64)
    frontier = np.flatnonzero(pending == 0)
    depth = 0
    while frontier.size:
        level[frontier] = depth
        depth += 1
        reached = dependents[ranges(ptr[frontier], counts[frontier])]
        np.subtract.at(pending, reached, 1)
        ready = reached[pending[reached] == 0]
        # a node that reads several frontier nodes is listed once per read:
        # keep the copy whose position its slot ends up holding, whichever
        # of the writes lands last
        position = np.arange(ready.size)
        slot[ready] = position
        frontier = ready[slot[ready] == position]
    return level


class _Ilu0Schedule(NamedTuple):
    """What ILU(0) derives from the pattern alone: the diagonal positions,
    one (L positions, their pivots' positions, targets, L factors, U
    factors) tuple of entry positions per elimination stage, and the sweeps'
    layouts: the positions of the strict-lower entries and, reversed, of the
    strict-upper ones with their rows, and each sweep's offsets and columns."""

    diag_pos: np.ndarray
    stages: tuple
    lower: np.ndarray
    upper: np.ndarray
    upper_rows: np.ndarray
    lower_pattern: tuple
    upper_pattern: tuple


_SCHEDULES = SetupCache()


def _ilu0_schedule(shape, indptr, indices):
    """The elimination schedule of a square canonical CSR pattern; raises
    ValueError naming the first row without a structural diagonal."""
    n = shape[0]
    indptr = indptr.astype(np.int64)
    indices = indices.astype(np.int64)
    nnz = indices.size
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    keys = row_of * n + indices
    on_diag = np.flatnonzero(indices == row_of)
    diag_pos = np.full(n, -1, dtype=np.int64)
    diag_pos[row_of[on_diag]] = on_diag
    missing = np.flatnonzero(diag_pos < 0)
    if missing.size:
        raise ValueError(
            f"ilu0_factor: row {missing[0]} lacks a structural diagonal entry")

    # strict-lower entries (i, k) and the rows' wavefront levels
    lower = np.flatnonzero(indices < row_of)
    l_row, l_col = row_of[lower], indices[lower]
    l_level = _levels(n, l_row, l_col)
    # elimination triples: a_ij -= l_ik * u_kj for every u_kj with (i, j) in
    # the pattern
    u_start = diag_pos + 1
    u_count = indptr[1:] - u_start
    reps = u_count[l_col]
    t_l = np.repeat(lower, reps)
    t_u = ranges(u_start[l_col], reps)
    want = np.repeat(l_row, reps) * n + indices[t_u]
    t_t = np.minimum(np.searchsorted(keys, want), max(nnz - 1, 0))
    hit = keys[t_t] == want
    t_t, t_l, t_u = t_t[hit], t_l[hit], t_u[hit]

    # one stage per (row level, rank of the L entry in its row)
    rank = lower - indptr[l_row]
    stage = l_level[l_row] * (rank.max(initial=0) + 1) + rank
    by_stage = np.argsort(stage, kind="stable")
    l_pos, l_piv = lower[by_stage], diag_pos[l_col[by_stage]]
    t_stage = np.repeat(stage, reps)[hit]
    t_order = np.argsort(t_stage, kind="stable")
    t_t, t_l, t_u = t_t[t_order], t_l[t_order], t_u[t_order]
    stages = np.unique(stage)
    l_bounds = np.searchsorted(stage[by_stage], stages).tolist() + [lower.size]
    t_bounds = np.searchsorted(t_stage[t_order], stages).tolist() + [t_t.size]
    steps = tuple((l_pos[a:b], l_piv[a:b], t_t[c:d], t_l[c:d], t_u[c:d])
                  for a, b, c, d in zip(l_bounds, l_bounds[1:], t_bounds, t_bounds[1:]))

    # the sweeps of ilu0_apply, in the layout Ilu0Factors describes
    upper = ranges(u_start, u_count)
    return _Ilu0Schedule(
        diag_pos=diag_pos, stages=steps, lower=lower,
        upper=upper[::-1].copy(), upper_rows=np.repeat(np.arange(n), u_count)[::-1].copy(),
        lower_pattern=(np.concatenate(([0], np.cumsum(diag_pos - indptr[:-1]))), l_col),
        upper_pattern=(np.concatenate(([0], np.cumsum(u_count[::-1]))),
                       n - 1 - indices[upper][::-1]))


def ilu0_factor(A, block_offsets=None):
    """Zero-fill incomplete LU factorization.

    Requires canonical CSR with finite entries and a structural diagonal in
    every row (else ValueError naming the first bad row or entry); raises
    SingularMatrixError naming the first row whose pivot vanishes (|u_ii| <
    1e-14 * max |a_ii|, per block of ``block_offsets`` if given).

    Rows are eliminated in wavefronts, one stage per (row level, rank of the
    L entry in its row): a vectorized divide and one scatter-subtract, the
    operations of row-by-row elimination in its order, bit for bit. The
    stages depend on the pattern alone: they are built once per pattern and
    shared, read-only, by every factorization on it.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"ilu0_factor: matrix is not square {A.shape}")
    require_canonical(A, "ilu0_factor")
    S = _SCHEDULES.get((A.shape, A.indptr, A.indices), _ilu0_schedule)
    require_finite(A, "ilu0_factor")
    data = np.array(A.data, dtype=np.float64)

    offsets = np.array([0, n] if block_offsets is None else block_offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    block_max = np.zeros(sizes.size)
    block_max[sizes > 0] = np.maximum.reduceat(np.abs(data[S.diag_pos]),
                                               offsets[:-1][sizes > 0])
    pivot_floor = PIVOT_FLOOR * np.repeat(block_max, sizes)

    # a vanished pivot turns later rows to inf or NaN; only the first
    # failing row is reported, and its row is exact
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p, piv, t, l, u in S.stages:
            data[p] = data[p] / data[piv]
            data[t] -= data[l] * data[u]

    pivots = data[S.diag_pos]
    failed = np.flatnonzero((np.abs(pivots) < pivot_floor) | (pivots == 0.0))
    if failed.size:
        raise SingularMatrixError(failed[0], "vanishing ILU(0) pivot")
    lower = CsrArrays((n, n), *S.lower_pattern, -data[S.lower])
    upper = CsrArrays((n, n), *S.upper_pattern, -(data[S.upper] / pivots[S.upper_rows]))
    return Ilu0Factors(n=n, data=data, pivots=pivots,
                       sweeps=(product_adder(lower), product_adder(upper)))


def ilu0_apply(F, r):
    """z = U^{-1} L^{-1} r by two compiled substitution sweeps.

    scipy's ``csr_matvec`` adds row i's products to y[i] in row order; with x
    and y one array a row reads the rows already written, so one call is one
    forward substitution (checked when ``sparse`` is imported). The sweeps are
    bound once, in ``F.sweeps``; the lower one runs on a copy of ``r``, which
    is divided by the pivots, reversed, swept with the reversed upper part and
    reversed back; every entry rounds as the Python loop
    ``s = y[i]; s += a_ij * y[j] ...; y[i] = s`` does.
    """
    u = np.array(r, dtype=np.float64)
    if u.shape != (F.n,):
        raise ValueError(f"ilu0_apply: vector of shape {u.shape} for dimension {F.n}")
    F.sweeps[0](u, u)
    u /= F.pivots
    u = u[::-1].copy()
    F.sweeps[1](u, u)
    return u[::-1].copy()


def _checked_diagonal(A, owner):
    """Diagonal of ``A``; raises ValueError naming the setup ``owner`` and
    the first NaN or infinite diagonal entry's row, and SingularMatrixError
    naming the first zero diagonal entry and the ``owner``."""
    diag = A.diagonal()
    bad = np.flatnonzero(~np.isfinite(diag))
    if bad.size:
        raise ValueError(f"{owner} setup: non-finite diagonal entry {diag[bad[0]]} "
                         f"at row {bad[0]}")
    zero = np.flatnonzero(diag == 0.0)
    if zero.size:
        raise SingularMatrixError(int(zero[0]), f"zero diagonal entry in {owner} setup")
    return diag


def jacobi_setup(A):
    """Checked diagonal of ``A``, the state of ``jacobi_apply``; raises
    ValueError naming the first NaN or infinite diagonal entry and
    SingularMatrixError naming the first zero one."""
    return _checked_diagonal(A, "Jacobi")


def jacobi_apply(diag, r):
    """Single Jacobi sweep z = D^{-1} r with the diagonal from
    ``jacobi_setup``; exact solve when A is diagonal."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != diag.shape:
        raise ValueError(f"jacobi_apply: residual of shape {r.shape} for a diagonal "
                         f"of shape {diag.shape}")
    return r / diag


@lru_cache(maxsize=16)  # the levels of a few hierarchies
def _start_vector(seed, n):
    """The power iteration's seeded start vector, shared and read-only."""
    w = np.random.default_rng(seed).standard_normal(n)
    w.flags.writeable = False
    return w


def estimate_lambda_max(A, inverse_diagonal, iterations=10, seed=0):
    """Largest-eigenvalue magnitude of D^{-1} A by seeded power iteration.

    Returns the Rayleigh-quotient magnitude after the requested number of
    iterations; deterministic for a fixed seed. Raises RuntimeError when an
    iterate vanishes, as on a zero operator, a zero inverse diagonal or an
    empty matrix, and ValueError on a negative ``iterations``, a non-square
    operator or an inverse diagonal of another length. ``sqrt(w.dot(w))`` is
    what numpy's ``norm`` evaluates; each product runs the bound kernel into
    a zeroed buffer, as ``sparse.as_apply`` does, and is then scaled in place.
    """
    inverse_diagonal = np.asarray(inverse_diagonal, dtype=np.float64)
    n = A.shape[0]
    if iterations < 0:
        raise ValueError(f"estimate_lambda_max: iterations must be >= 0, got {iterations}")
    if A.shape != (n, n) or inverse_diagonal.shape != (n,):
        raise ValueError(f"estimate_lambda_max: operator of shape {A.shape} and inverse "
                         f"diagonal of shape {inverse_diagonal.shape} (want a square "
                         f"operator and ({n},))")
    add = product_adder(A)
    w = _start_vector(seed, n)
    v = np.empty(n)
    product = np.empty(n)
    for _ in range(iterations + 1):
        norm = math.sqrt(w.dot(w))
        if norm == 0.0:
            raise RuntimeError("power iteration collapsed to the zero vector")
        np.divide(w, norm, out=v)
        product.fill(0.0)
        add(v, product)
        np.multiply(inverse_diagonal, product, out=product)
        w = product
    return abs(v @ w)


@dataclass
class ChebyshevSmoother:
    """Degree-d Chebyshev iteration on the interval
    [lambda_max / CHEBYSHEV_RATIO, CHEBYSHEV_BOOST * lambda_max] of D^{-1} A.

    Construction fixes the polynomial of every apply: ``coefficients`` holds
    a_0..a_{d-1} of q with x_d = x_0 + q(D^{-1} A) D^{-1} r_0. They come from
    the three-term recurrence d_k = c1 d_{k-1} + c2 D^{-1} r_k, run in Python
    floats on the coefficient lists of the step and iterate polynomials.
    ``steps`` holds a_{d-1}..a_0 for a zero guess and negated for a guess.
    """

    degree: int = field(metadata=CHEBYSHEV_DEGREES)
    lambda_max_estimate: float = field(metadata={"above": 0})
    inverse_diagonal: np.ndarray
    coefficients: tuple = field(init=False, default=())
    steps: tuple = field(init=False, default=((), ()), repr=False)

    def __post_init__(self):
        require_fields(self)
        lam_max = CHEBYSHEV_BOOST * self.lambda_max_estimate
        lam_min = self.lambda_max_estimate / CHEBYSHEV_RATIO
        theta = 0.5 * (lam_max + lam_min)
        delta = 0.5 * (lam_max - lam_min)
        sigma = theta / delta
        rho = 1.0 / sigma
        # with M = D^{-1} A and z = D^{-1} r_0: the step d_k = p(M) z, the
        # iterate x_k = x_0 + q(M) z and D^{-1} r_k = (1 - M q(M)) z
        p = [1.0 / theta]
        q = p
        for _ in range(self.degree - 1):
            rho_next = 1.0 / (2.0 * sigma - rho)
            c1, c2 = rho_next * rho, 2.0 * rho_next / delta
            p = [c1 * a + c2 * e for a, e in zip(p + [0.0], [1.0] + [-a for a in q])]
            q = [a + e for a, e in zip(q + [0.0], p)]
            rho = rho_next
        self.coefficients = tuple(q)
        self.steps = (tuple(reversed(q)), tuple(-a for a in reversed(q)))


def chebyshev_setup(A, degree=2, power_iterations=10, seed=0):
    """Estimate the spectral interval of D^{-1} A and build a smoother."""
    dinv = 1.0 / _checked_diagonal(A, "Chebyshev")
    lam = estimate_lambda_max(A, dinv, iterations=power_iterations, seed=seed)
    return ChebyshevSmoother(degree=degree, lambda_max_estimate=lam, inverse_diagonal=dinv)


def chebyshev_apply(S, A, b, x=None):
    """Run the degree-d Chebyshev iteration from iterate ``x`` (None: the
    zero vector); returns the new iterate x + q(D^{-1} A) D^{-1} (b - A x).
    Neither ``b`` nor ``x`` is written.

    Horner's rule on the residual r, y <- D^{-1}(a_k r + A y) for k = d - 1,
    ..., 0 from y = 0: after one check, a step is one kernel call and two
    vector passes on buffers of the call. From a zero guess r is ``b`` (d - 1
    products); from a guess the call keeps -r = A x - b, from -b, with the
    negated steps (d products).
    """
    b = np.asarray(b, dtype=np.float64)
    if x is not None:
        x = np.ascontiguousarray(x, dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n) or b.shape != (n,) or (x is not None and x.shape != (n,)):
        raise ValueError(f"chebyshev_apply: dimension mismatch: operator of shape {A.shape}, "
                         f"b of shape {b.shape}, x of shape "
                         f"{None if x is None else x.shape} (want ({n},))")
    add = product_adder(A)
    if x is None:
        r, steps = b, S.steps[0]
    else:
        r, steps = np.negative(b), S.steps[1]
        add(x, r)
    dinv = S.inverse_diagonal
    t = r * steps[0]
    y = dinv * t
    for a in steps[1:]:
        np.multiply(r, a, out=t)
        add(y, t)
        np.multiply(dinv, t, out=y)
    if x is None:
        y += 0.0  # as 0 + y: a -0.0 entry becomes +0.0
    else:
        y += x
    return y
