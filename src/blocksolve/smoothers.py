"""Point smoothers and local factorizations: Jacobi, Chebyshev, and ILU(0).

These are the building blocks for multigrid levels and Schwarz subdomain
solves. ILU(0) keeps the exact sparsity pattern of its input; the Chebyshev
smoother runs on the diagonally preconditioned system over a spectral
interval derived from a power-iteration estimate of the largest eigenvalue.
"""

from dataclasses import dataclass, field

import numpy as np

from .sparse import SingularMatrixError, require_canonical, require_finite

PIVOT_FLOOR = 1e-14
# the Chebyshev interval of D^{-1} A is [lambda_max / RATIO, BOOST * lambda_max]
CHEBYSHEV_RATIO = 30.0
CHEBYSHEV_BOOST = 1.1


@dataclass
class Wavefront:
    """Level schedule of one triangular sweep, as flat arrays.

    Level ``l`` computes ``rows[row_ptr[l]:row_ptr[l + 1]]`` at once; their
    off-diagonal entries are ``cols``/``vals[entry_ptr[l]:entry_ptr[l + 1]]``,
    grouped by row, and ``seg`` holds each row's first entry relative to its
    level's block (the ``np.add.reduceat`` offsets). A row reads only rows of
    earlier levels or rows without off-diagonal entries, which the schedule
    leaves out. ``pivots`` holds the divisor of each scheduled row, or is
    None for a unit-diagonal sweep.
    """

    rows: np.ndarray
    row_ptr: list
    cols: np.ndarray
    vals: np.ndarray
    seg: np.ndarray
    entry_ptr: list
    pivots: np.ndarray | None


@dataclass
class Ilu0Factors:
    """Combined L\\U storage on the exact pattern of the factored matrix.

    The unit lower-triangular part lives strictly below the diagonal of the
    combined array; the diagonal and above belong to U. ``lower`` and
    ``upper`` are the wavefront schedules of the two triangular solves,
    built from ``data`` at factor time; the factors are read-only.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    diag_pos: np.ndarray
    pivots: np.ndarray
    lower: Wavefront
    upper: Wavefront


def _ranges(starts, counts):
    """Concatenation of ``arange(s, s + c)`` over the pairs (s, c)."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


def _levels(n, readers, read):
    """Wavefront level of each of ``n`` nodes: 0 for a node that reads no
    other, else one more than the highest level it reads. Node
    ``readers[e]`` reads node ``read[e]``; the graph must be acyclic.

    A frontier (Kahn) sweep over the transposed pattern: each edge is
    visited once, in numpy, plus a constant per level.
    """
    pending = np.bincount(readers, minlength=n)
    order = np.argsort(read, kind="stable")
    dependents = readers[order]
    ptr = np.searchsorted(read[order], np.arange(n + 1))
    level = np.zeros(n, dtype=np.int64)
    frontier = np.flatnonzero(pending == 0)
    depth = 0
    while frontier.size:
        level[frontier] = depth
        depth += 1
        reached, hits = np.unique(
            dependents[_ranges(ptr[frontier], ptr[frontier + 1] - ptr[frontier])],
            return_counts=True)
        pending[reached] -= hits
        frontier = reached[pending[reached] == 0]
    return level


def _wavefront(level, starts, counts, indices, data, pivots=None):
    """Schedule of the rows with off-diagonal entries, grouped by level; a
    row's entries are ``starts[i]`` to ``starts[i] + counts[i]``."""
    rows = np.flatnonzero(counts)
    rows = rows[np.argsort(level[rows], kind="stable")]
    row_ptr = np.searchsorted(level[rows], np.arange(1, level.max(initial=0) + 2))
    entries = _ranges(starts[rows], counts[rows])
    first = np.concatenate(([0], np.cumsum(counts[rows])))
    entry_ptr = first[row_ptr]
    seg = first[:-1] - np.repeat(entry_ptr[:-1], np.diff(row_ptr))
    return Wavefront(rows=rows, row_ptr=row_ptr.tolist(), cols=indices[entries],
                     vals=data[entries], seg=seg, entry_ptr=entry_ptr.tolist(),
                     pivots=None if pivots is None else pivots[rows])


def ilu0_factor(A, block_offsets=None):
    """Zero-fill incomplete LU factorization.

    Requires a square CSR matrix with sorted, distinct column indices and
    finite entries whose every row holds a structural diagonal entry;
    raises ValueError naming the first row or entry that breaks this.
    Raises SingularMatrixError naming the first row whose pivot vanishes
    (|u_ii| < 1e-14 * max |a_ii|). ``block_offsets`` marks the row ranges of
    a block-diagonal matrix: each block then takes the pivot floor of its
    own diagonal.

    Rows are eliminated in wavefronts: one stage per (level of the row,
    rank of the L entry within its row), each a vectorized divide and one
    scatter-subtract. Every entry sees the same operations in the same
    order as a row-by-row elimination, so the factor is bit-identical.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"ilu0_factor: matrix is not square {A.shape}")
    indptr = A.indptr.astype(np.int64)
    indices = A.indices.astype(np.int64)
    data = A.data.astype(np.float64).copy()
    nnz = indices.size

    require_canonical(A, "ilu0_factor")
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    keys = row_of * n + indices
    on_diag = np.flatnonzero(indices == row_of)
    diag_pos = np.full(n, -1, dtype=np.int64)
    diag_pos[row_of[on_diag]] = on_diag
    missing = np.flatnonzero(diag_pos < 0)
    if missing.size:
        raise ValueError(
            f"ilu0_factor: row {missing[0]} lacks a structural diagonal entry")
    require_finite(A, "ilu0_factor")

    offsets = np.array([0, n] if block_offsets is None else block_offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    block_max = np.zeros(sizes.size)
    block_max[sizes > 0] = np.maximum.reduceat(np.abs(data[diag_pos]), offsets[:-1][sizes > 0])
    pivot_floor = PIVOT_FLOOR * np.repeat(block_max, sizes)

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
    t_u = _ranges(u_start[l_col], reps)
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
    # a vanished pivot turns later rows to inf or NaN; only the first
    # failing row is reported, and its row is exact
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(stages.size):
            p = l_pos[l_bounds[s]:l_bounds[s + 1]]
            data[p] = data[p] / data[l_piv[l_bounds[s]:l_bounds[s + 1]]]
            t = slice(t_bounds[s], t_bounds[s + 1])
            data[t_t[t]] -= data[t_l[t]] * data[t_u[t]]

    pivots = data[diag_pos]
    failed = np.flatnonzero((np.abs(pivots) < pivot_floor) | (pivots == 0.0))
    if failed.size:
        raise SingularMatrixError(failed[0], "vanishing ILU(0) pivot")

    upper_rows = np.repeat(np.arange(n), u_count)
    u_level = _levels(n, upper_rows, indices[_ranges(u_start, u_count)])
    return Ilu0Factors(
        n=n, indptr=indptr, indices=indices, data=data, diag_pos=diag_pos,
        pivots=pivots,
        lower=_wavefront(l_level, indptr[:-1], diag_pos - indptr[:-1], indices, data),
        upper=_wavefront(u_level, u_start, u_count, indices, data, pivots))


def _sweep(w, x, b):
    """x[i] = (b[i] - sum_j v_ij x[j]) / pivot_i on the scheduled rows,
    one level at a time (no division for a unit-diagonal sweep)."""
    for l in range(len(w.row_ptr) - 1):
        r0, r1 = w.row_ptr[l], w.row_ptr[l + 1]
        e0, e1 = w.entry_ptr[l], w.entry_ptr[l + 1]
        rows = w.rows[r0:r1]
        v = b[rows] - np.add.reduceat(w.vals[e0:e1] * x[w.cols[e0:e1]], w.seg[r0:r1])
        if w.pivots is not None:
            v /= w.pivots[r0:r1]
        x[rows] = v


def ilu0_apply(F, r):
    """Apply the factored inverse: z = U^{-1} L^{-1} r, by wavefronts."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape[0] != F.n:
        raise ValueError(f"ilu0_apply: length {r.shape[0]} != dimension {F.n}")
    y = r.copy()
    _sweep(F.lower, y, r)
    z = y / F.pivots
    _sweep(F.upper, z, y)
    return z


def jacobi_setup(A):
    """Checked diagonal of ``A``, the state of ``jacobi_apply``; raises
    SingularMatrixError naming the first zero diagonal entry."""
    diag = A.diagonal()
    zero = np.flatnonzero(diag == 0.0)
    if zero.size:
        raise SingularMatrixError(int(zero[0]), "zero diagonal entry in Jacobi setup")
    return diag


def jacobi_apply(diag, r):
    """Single Jacobi sweep z = D^{-1} r with the diagonal from
    ``jacobi_setup``; exact solve when A is diagonal."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape[0] != diag.shape[0]:
        raise ValueError(f"jacobi_apply: length {r.shape[0]} != dimension {diag.shape[0]}")
    return r / diag


def estimate_lambda_max(A, inverse_diagonal, iterations=10, seed=0):
    """Largest-eigenvalue magnitude of D^{-1} A by seeded power iteration.

    Returns the Rayleigh-quotient magnitude after the requested number of
    iterations; deterministic for a fixed seed.
    """
    n = A.shape[0]
    inverse_diagonal = np.asarray(inverse_diagonal, dtype=np.float64)
    for attempt in range(2):
        rng = np.random.default_rng(seed + attempt)
        v = rng.standard_normal(n)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v /= nv
        ok = True
        for _ in range(iterations):
            w = inverse_diagonal * (A @ v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                ok = False
                break
            v = w / nw
        if ok:
            return abs(v @ (inverse_diagonal * (A @ v)))
    raise RuntimeError("power iteration collapsed to the zero vector twice")


@dataclass
class ChebyshevSmoother:
    """Degree-d Chebyshev iteration on the interval
    [lambda_max / CHEBYSHEV_RATIO, CHEBYSHEV_BOOST * lambda_max] of D^{-1} A.

    Construction also fixes the scalars of every apply: ``theta``, the
    interval's midpoint, and ``steps``, one pair (c1, c2) per step after the
    first, with d <- c1 * d + c2 * D^{-1} r.
    """

    degree: int
    lambda_max_estimate: float
    inverse_diagonal: np.ndarray
    theta: float = field(init=False)
    steps: tuple = field(init=False)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"Chebyshev degree must be >= 1, got {self.degree}")
        if self.lambda_max_estimate <= 0.0:
            raise ValueError("lambda_max estimate must be positive")
        lam_max = CHEBYSHEV_BOOST * self.lambda_max_estimate
        lam_min = self.lambda_max_estimate / CHEBYSHEV_RATIO
        self.theta = 0.5 * (lam_max + lam_min)
        delta = 0.5 * (lam_max - lam_min)
        sigma = self.theta / delta
        rho = 1.0 / sigma
        steps = []
        for _ in range(self.degree - 1):
            rho_next = 1.0 / (2.0 * sigma - rho)
            steps.append((rho_next * rho, 2.0 * rho_next / delta))
            rho = rho_next
        self.steps = tuple(steps)


def chebyshev_setup(A, degree=2, power_iterations=10, seed=0):
    """Estimate the spectral interval of D^{-1} A and build a smoother."""
    diag = A.diagonal()
    zero = np.flatnonzero(diag == 0.0)
    if zero.size:
        raise SingularMatrixError(int(zero[0]), "zero diagonal entry in Chebyshev setup")
    dinv = 1.0 / diag
    lam = estimate_lambda_max(A, dinv, iterations=power_iterations, seed=seed)
    return ChebyshevSmoother(degree=degree, lambda_max_estimate=lam, inverse_diagonal=dinv)


def chebyshev_apply(S, A, b, x=None):
    """Run the degree-d Chebyshev iteration from iterate ``x`` (None: the
    zero vector); returns the new iterate. A solves-exactly fixed point is
    returned unchanged; neither ``b`` nor ``x`` is written.

    The steps update buffers of this call in place, in the operation order
    of d <- (c1 * d) + (c2 * (D^{-1} r)), so every entry is rounded as in
    that expression. From a zero guess the residual is ``b`` itself, which
    saves one operator product: a finite A gives b - A @ 0 == b bit for bit.
    """
    b = np.asarray(b, dtype=np.float64)
    if x is not None:
        x = np.array(x, dtype=np.float64, copy=True)
    if b.shape[0] != A.shape[0] or (x is not None and x.shape[0] != A.shape[0]):
        raise ValueError("chebyshev_apply: dimension mismatch")
    # r is never written: each step stores r - A d in the buffer of A d
    r = b if x is None else b - A @ x
    dinv = S.inverse_diagonal
    d = dinv * r
    d /= S.theta
    if x is None:
        x = d + 0.0  # as 0 + d: a -0.0 entry becomes +0.0
    else:
        x += d
    t = np.empty_like(d)
    for c1, c2 in S.steps:
        Ad = A @ d
        r = np.subtract(r, Ad, out=Ad)
        d *= c1
        np.multiply(dinv, r, out=t)
        t *= c2
        d += t
        x += d
    return x
