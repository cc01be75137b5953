"""Smoothed-aggregation algebraic multigrid.

The setup pipeline is the classical one: a strength-of-connection graph with
a drop tolerance, greedy root-based aggregation, a tentative prolongator from
the near-nullspace, damped-Jacobi smoothing of the tentative prolongator
against a filtered operator, and Galerkin coarsening. The V-cycle applies a
Chebyshev smoother before and after each coarse-grid correction and finishes
with a pivoted dense solve on the coarsest level, on kernels each level
binds once and vectors ``vcycle`` checks on entry.

Filtering: the entries the strength graph calls weak (one ``_drop_rule``
serves both) leave the operator that smooths the prolongator, and their
magnitudes are lumped onto the diagonal with its sign. That rule, the most
interpretation-sensitive choice of the setup, is ``filtered_matrix`` alone.
"""

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.sparse as sp

from .smoothers import (CHEBYSHEV_DEGREES, ChebyshevSmoother, chebyshev_apply,
                        chebyshev_setup, estimate_lambda_max)
from .sparse import (CsrArrays, DenseFactorization, as_apply, csr_minus, csr_plus, csr_product,
                     csr_transpose, dense_factor, product_adder, require_canonical,
                     require_fields, require_finite, require_value, triple_product)


MAX_LEVELS = 20
# numerator of the prolongator smoother's weight omega = damping / lambda_max
PROLONGATOR_DAMPING = 4.0 / 3.0
# bounds of a drop tolerance: AmgParams' and the theta of the drop rule
DROP_TOLERANCES = {"least": 0}


class CoarseningError(RuntimeError):
    """Hierarchy construction could not reach a factorable coarse level."""


@dataclass
class AmgParams:
    drop_tolerance: float = field(default=0.04, metadata=DROP_TOLERANCES)
    max_coarse_size: int = field(default=64, metadata={"least": 1})
    smoother_degree: int = field(default=2, metadata=CHEBYSHEV_DEGREES)
    seed: int = field(default=0, metadata={"least": 0})

    def __post_init__(self):
        require_fields(self)


@dataclass
class AggregateMap:
    """Fine-node to aggregate-id assignment."""

    assignments: np.ndarray
    count: int


@dataclass
class Level:
    """A level; ``kernels`` binds A's and P's ``product_adder`` and R's ``as_apply`` once."""
    operator: sp.csr_matrix
    prolongator: sp.csr_matrix | None
    restrictor: sp.csr_matrix | None
    smoother: ChebyshevSmoother | None
    kernels: tuple = field(init=False, default=(), repr=False, compare=False)

    def __post_init__(self):
        if self.prolongator is not None:
            self.kernels = (product_adder(self.operator), as_apply(self.restrictor),
                            product_adder(self.prolongator))


@dataclass
class AmgHierarchy:
    levels: list[Level]
    coarse_solver: DenseFactorization

    @property
    def depth(self):
        return len(self.levels)

    def summary(self):
        dims = [lvl.operator.shape[0] for lvl in self.levels]
        nnz = [lvl.operator.nnz for lvl in self.levels]
        return {
            "levels": self.depth,
            "dims": dims,
            "nnz": nnz,
            "operator_complexity": float(sum(nnz)) / float(nnz[0]),
        }


def strength_graph(A, theta):
    """Strength-of-connection pattern of a square matrix.

    Off-diagonal (i, j) is strong iff |a_ij| / sqrt(|a_ii a_jj|) > theta;
    the pattern is symmetrized by union and the diagonal is always present.
    Stored values are the (summed) strength ratios used for tie-breaking
    during aggregation; the pattern itself is the contract. ``A`` must be
    canonical CSR.
    """
    n = A.shape[0]
    rows, offdiag, _, ratio, weak = _drop_rule(A, theta, "strength_graph")
    # the diagonal rides through the union as NaN, which no strong ratio is,
    # and ends as the explicit zero; masking a canonical A leaves K
    # canonical, and the union adds ratio_ij + ratio_ji, which commutes
    ratio[~offdiag] = np.nan
    data, indices, indptr = _without(weak, rows, A.indptr, ratio.astype(np.float64, copy=False),
                                     A.indices)
    # the drop rule's per-entry arrays go before the transpose and the union
    del rows, offdiag, ratio, weak
    K = CsrArrays((n, n), indptr, indices, data)
    S = csr_plus(K, csr_transpose(K))
    S.data[np.isnan(S.data)] = 0.0
    return S.matrix()


def _drop_rule(A, theta, owner):
    """The drop test of the strength graph and the filter, on canonical CSR
    ``A``: each entry's row, the off-diagonal mask, the diagonal, the
    strength ratios |a_ij| / sqrt(|a_ii a_jj|) and the weak mask, the
    off-diagonal entries whose ratio is not above ``theta``. ``theta`` is
    checked as ``AmgParams.drop_tolerance`` is, naming ``owner``.

    The rows are in A's index dtype, and the ratios round as
    ``abs(a_ij) / sqrt(absd[rows] * absd[cols])`` does for A's value dtype."""
    require_value(f"{owner}: theta", theta, float, DROP_TOLERANCES)
    diag = A.diagonal()
    if np.any(diag == 0.0):
        raise ValueError(f"{owner}: zero diagonal entry")
    absd = np.abs(diag)
    lengths = np.diff(A.indptr)
    rows = np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), lengths)
    root = np.repeat(absd, lengths)
    root *= absd[A.indices]
    # an integer product takes its square root into a new float64 array
    root = np.sqrt(root, out=root if root.dtype.kind == "f" else None)
    ratio = np.abs(A.data)
    ratio = np.divide(ratio, root, out=ratio if ratio.dtype == root.dtype else None)
    offdiag = rows != A.indices
    return rows, offdiag, diag, ratio, offdiag & ~(ratio > theta)


def _without(drop, rows, indptr, data, indices):
    """(data, indices, indptr) of a CSR matrix less the entries ``drop``
    selects; ``rows`` holds each entry's row."""
    dropped = np.bincount(rows[drop], minlength=indptr.size - 1)
    keep = ~drop
    return data[keep], indices[keep], indptr - np.concatenate(([0], np.cumsum(dropped)))


def aggregate(S):
    """Greedy root-based aggregation over a strength pattern.

    Pass 1 visits nodes in order; a node whose strong neighbors are all
    unaggregated becomes a root and absorbs them. Pass 2 joins remaining
    nodes to the pass-1 aggregate behind their strongest connection, ties
    to the lowest id. Pass 3 makes leftovers singletons, in row order. Pass
    1 is sequential and reads the offsets and columns through memoryviews,
    so Python ints are made only for the rows it scans; passes 2 and 3 are
    exact vectorized forms of their per-row rules.
    """
    n = S.shape[0]
    indptr, indices, data = S.indptr, S.indices, S.data
    ptr, idx = memoryview(indptr), memoryview(indices)
    owner = [-1] * n
    count = 0

    for i in range(n):
        if owner[i] != -1:
            continue
        # row i may list i itself, which is unowned here
        nbrs = idx[ptr[i]:ptr[i + 1]]
        for j in nbrs:
            if owner[j] != -1:
                break
        else:
            owner[i] = count
            for j in nbrs:
                owner[j] = count
            count += 1

    # pass 2 reads every pass-1 owner before it writes a join, so joins do
    # not chain
    owner = np.array(owner, dtype=np.int64)
    unowned = owner == -1
    lengths = np.diff(indptr)
    # candidates are the entries of the rows pass 1 left unowned
    pos = np.flatnonzero(np.repeat(unowned, lengths))
    cand_row = np.repeat(np.flatnonzero(unowned), lengths[unowned])
    cand_id = owner[indices[pos]]
    strength = data[pos]
    # a row's own entry has no pass-1 owner; NaN and -inf strengths never
    # beat the -inf starting best of the row loop, so only they reach pass 3
    keep = (cand_id != -1) & (strength > -np.inf)
    cand_row, cand_id, strength = cand_row[keep], cand_id[keep], strength[keep]
    # each row's winner sorts first: strongest, then lowest aggregate id
    order = np.lexsort((cand_id, -strength, cand_row))
    first = order[np.diff(cand_row[order], prepend=-1) != 0]
    owner[cand_row[first]] = cand_id[first]

    leftover = np.flatnonzero(owner == -1)
    owner[leftover] = count + np.arange(leftover.size)
    count += leftover.size

    return AggregateMap(assignments=owner, count=count)


def tentative_prolongator(agg, nullspace):
    """One-nonzero-per-row prolongator: the near-nullspace restricted to each
    aggregate, normalized to unit column 2-norm."""
    nullspace = np.asarray(nullspace, dtype=np.float64)
    n = nullspace.shape[0]
    if n != agg.assignments.shape[0]:
        raise ValueError("tentative_prolongator: nullspace length != node count")
    norms_sq = np.bincount(agg.assignments, weights=nullspace**2, minlength=agg.count)
    if np.any(norms_sq == 0.0):
        bad = int(np.flatnonzero(norms_sq == 0.0)[0])
        raise ValueError(
            f"tentative_prolongator: nullspace vanishes on aggregate {bad}"
        )
    norms = np.sqrt(norms_sq)
    return sp.csr_matrix(
        (nullspace / norms[agg.assignments], agg.assignments, np.arange(n + 1)),
        shape=(n, agg.count),
    )


def filtered_matrix(A, theta):
    """Drop the entries the strength graph calls weak and lump their
    magnitudes onto the diagonal with the diagonal's sign (absolute-row-sum
    compensation). ``A`` must be canonical CSR."""
    rows, offdiag, diag, _, weak = _drop_rule(A, theta, "filtered_matrix")
    dropped = np.bincount(rows[weak], weights=np.abs(A.data[weak]), minlength=A.shape[0])
    compensated = np.sign(diag) * (np.abs(diag) + dropped)

    # a nonzero diagonal is stored once per row, so the kept entries hold
    # it in row order and stay canonical
    Af = sp.csr_matrix(_without(weak, rows, A.indptr, A.data.astype(np.float64, copy=False),
                                A.indices), shape=A.shape)
    Af.data[~offdiag[~weak]] = compensated
    return Af


def smooth_prolongator(A, P_tent, params):
    """Damped-Jacobi smoothing of the tentative prolongator against the
    filtered operator: P = (I - omega * Dhat^{-1} A_f) P_tent with
    omega = damping / lambda_max(Dhat^{-1} A_f). Returns P, that lambda_max
    estimate and Dhat^{-1}."""
    # at drop tolerance 0, A_f is A less its stored zeros; a stored zero
    # adds +-0 to a product sum that starts at +0.0, so every product below
    # gives the same bits on A itself
    Af = A if params.drop_tolerance == 0.0 else filtered_matrix(A, params.drop_tolerance)
    diag = Af.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("smooth_prolongator: zero diagonal entry")
    dinv = 1.0 / diag
    lam = estimate_lambda_max(Af, dinv, seed=params.seed)
    if lam <= 0.0:
        raise CoarseningError(f"nonpositive spectral estimate {lam} for the filtered operator")
    omega = PROLONGATOR_DAMPING / lam
    # the row scaling omega * Dhat^{-1}: each entry is the one product the
    # diagonal SpGEMM would add to +0.0
    AP = csr_product(Af, P_tent)
    np.multiply(AP.data, np.repeat(omega * dinv, np.diff(AP.indptr)), out=AP.data)
    P = csr_minus(P_tent, AP).matrix(type(P_tent))
    P.sort_indices()
    return P, lam, dinv


def build_hierarchy(A, params=None):
    """Coarsen strength -> aggregate -> tentative -> smooth -> Galerkin until
    the operator fits the coarse-size target (or the level cap), then factor
    the coarsest operator densely."""
    params = params or AmgParams()
    # every setup function reads the arrays of a canonical CSR matrix
    require_canonical(A, "build_hierarchy")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"build_hierarchy: matrix is not square {A.shape}")
    require_finite(A, "build_hierarchy")
    levels = []
    Al = A
    nullspace = np.ones(A.shape[0])
    stagnant_once = False

    # dropping on smoothed Galerkin operators only fragments aggregates
    coarse_params = replace(params, drop_tolerance=0.0)

    while Al.shape[0] > params.max_coarse_size and len(levels) + 1 < MAX_LEVELS:
        level_params = coarse_params if levels else params
        # the strength graph dies with aggregation, before the products
        agg = aggregate(strength_graph(Al, level_params.drop_tolerance))
        P_tent = tentative_prolongator(agg, nullspace)
        # P_tent^T nullspace: each aggregate sums its rows' products in row
        # order, as scipy's transposed product does
        coarse_nullspace = np.bincount(agg.assignments, weights=P_tent.data * nullspace,
                                       minlength=agg.count)
        P, lam, dinv = smooth_prolongator(Al, P_tent, level_params)
        R = csr_transpose(P).matrix(type(P))
        Ac = triple_product(R, Al, P)
        if Ac.shape[0] >= 0.9 * Al.shape[0]:
            if stagnant_once:
                if Al.shape[0] <= 4 * params.max_coarse_size:
                    break
                raise CoarseningError(
                    f"aggregation stagnated at dimension {Al.shape[0]} "
                    f"(> 4 x max_coarse_size = {4 * params.max_coarse_size})"
                )
            stagnant_once = True
        else:
            stagnant_once = False
        if level_params.drop_tolerance == 0.0:
            # smooth_prolongator ran the same seeded power iteration on Al
            # itself with the same inverse diagonal, so chebyshev_setup would
            # return the same bits
            smoother = ChebyshevSmoother(degree=params.smoother_degree,
                                         lambda_max_estimate=lam, inverse_diagonal=dinv)
        else:
            smoother = chebyshev_setup(Al, degree=params.smoother_degree, seed=params.seed)
        levels.append(Level(operator=Al, prolongator=P, restrictor=R, smoother=smoother))
        Al = Ac
        nullspace = coarse_nullspace

    levels.append(Level(operator=Al, prolongator=None, restrictor=None, smoother=None))
    coarse = dense_factor(Al)
    return AmgHierarchy(levels=levels, coarse_solver=coarse)


def vcycle(H, b, x=None, level=0):
    """One V(pre, post) cycle from iterate ``x`` (None: the zero vector);
    linear in the residual b - A x. Neither ``b`` nor ``x`` is written.

    ``b`` and ``x`` are checked here; ``chebyshev_apply`` returns a new
    iterate, so the level adds by its bound kernels into buffers of the call:
    s = A x - b into -b and P e_c into the iterate; R s is its ``as_apply``.
    The restricted s is negated on the coarse level.
    """
    lvl = H.levels[level]
    A = lvl.operator
    n = A.shape[0]
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,) or (x is not None and np.shape(x) != (n,)):
        raise ValueError(f"vcycle: level {level} has an operator of shape {A.shape}, "
                         f"got b of shape {b.shape} and x of shape "
                         f"{None if x is None else np.shape(x)} (want ({n},))")
    if lvl.prolongator is None:
        return H.coarse_solver.solve(b)
    add_a, restrict, add_p = lvl.kernels
    x = chebyshev_apply(lvl.smoother, A, b, x)
    s = np.negative(b)
    add_a(x, s)
    rc = restrict(s)
    np.negative(rc, out=rc)
    ec = vcycle(H, rc, None, level + 1)
    add_p(ec, x)
    return chebyshev_apply(lvl.smoother, A, b, x)


def as_preconditioner(H):
    """Wrap a hierarchy as an apply-only operator (one V-cycle per call)."""
    return partial(vcycle, H)
