import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from blocksolve.battery import CaseConfig, build_case
from blocksolve.schwarz import extend_overlap, partition_nodes
from blocksolve.smoothers import (
    CHEBYSHEV_BOOST,
    CHEBYSHEV_DEGREES,
    CHEBYSHEV_RATIO,
    PIVOT_FLOOR,
    ChebyshevSmoother,
    chebyshev_apply,
    chebyshev_setup,
    estimate_lambda_max,
    ilu0_apply,
    ilu0_factor,
    jacobi_apply,
    jacobi_setup,
    _start_vector,
)
from blocksolve.sparse import SingularMatrixError, as_csr


def tridiag(n):
    return as_csr(sp.diags(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]))


def dense_lu_no_pivot(A):
    """Oracle: Doolittle LU without pivoting, for zero-fill comparisons."""
    A = A.astype(float).copy()
    n = A.shape[0]
    L = np.eye(n)
    for k in range(n):
        for i in range(k + 1, n):
            L[i, k] = A[i, k] / A[k, k]
            A[i, k:] -= L[i, k] * A[k, k:]
    return L, np.triu(A)


def reference_ilu0_factor(A):
    """Row-by-row ILU(0), the loop the wavefront factor must reproduce bit
    for bit: returns the combined L\\U data array."""
    n = A.shape[0]
    indptr = A.indptr.astype(np.int64)
    indices = A.indices.astype(np.int64)
    data = A.data.astype(np.float64).copy()
    diag_pos = np.array([indptr[i] + np.searchsorted(indices[indptr[i]:indptr[i + 1]], i)
                         for i in range(n)])
    pivot_floor = PIVOT_FLOOR * np.max(np.abs(data[diag_pos]))
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        row_cols = indices[lo:hi]
        for p in range(lo, diag_pos[i]):
            k = indices[p]
            lik = data[p] / data[diag_pos[k]]
            data[p] = lik
            klo, khi = diag_pos[k] + 1, indptr[k + 1]
            if klo == khi:
                continue
            upper_cols = indices[klo:khi]
            targets = lo + np.searchsorted(row_cols, upper_cols)
            in_range = targets < hi
            tv = targets[in_range]
            hit = indices[tv] == upper_cols[in_range]
            data[tv[hit]] -= lik * data[klo:khi][in_range][hit]
        if abs(data[diag_pos[i]]) < pivot_floor or data[diag_pos[i]] == 0.0:
            raise SingularMatrixError(i, "vanishing ILU(0) pivot")
    return data


def reference_ilu0_apply(F, r):
    """Row-by-row forward and backward substitution on the combined array."""
    indptr, indices, data, diag_pos = F.indptr, F.indices, F.data, F.diag_pos
    y = np.empty(F.n)
    for i in range(F.n):
        lo, dpos = indptr[i], diag_pos[i]
        y[i] = r[i] - data[lo:dpos] @ y[indices[lo:dpos]]
    z = np.empty(F.n)
    for i in range(F.n - 1, -1, -1):
        dpos, hi = diag_pos[i], indptr[i + 1]
        z[i] = (y[i] - data[dpos + 1:hi] @ z[indices[dpos + 1:hi]]) / data[dpos]
    return z


def random_dominant(seed, n=25):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.15, format="csr", random_state=rng)
    return as_csr(A + sp.diags(np.abs(A).sum(axis=1).A1 + 1.0))


def stacked_species_block(refinement, overlap, count=4):
    """The block-diagonal stack of the RAS subdomain blocks of the species
    operator (P = ``count``), as the Schwarz setup factors it, with its
    offsets."""
    case = build_case(CaseConfig(nr=6, n_cells=2, refinement=refinement))
    A = case.system.blocks[("x", "x")]
    sets = extend_overlap(A, partition_nodes(case.grid.centers, count), overlap)
    stacked = sp.block_diag([A[idx][:, idx] for idx in sets], format="csr")
    stacked.sort_indices()
    return stacked, np.concatenate(([0], np.cumsum([len(idx) for idx in sets])))


def combined_to_LU(F):
    L = np.eye(F.n)
    U = np.zeros((F.n, F.n))
    for i in range(F.n):
        for p in range(F.indptr[i], F.indptr[i + 1]):
            j = F.indices[p]
            if j < i:
                L[i, j] = F.data[p]
            else:
                U[i, j] = F.data[p]
    return L, U


# ---------------------------------------------------------------- ILU(0)

def test_ilu0_diagonal_is_exact():
    A = as_csr(np.diag([2.0, 4.0]))
    F = ilu0_factor(A)
    L, U = combined_to_LU(F)
    np.testing.assert_allclose(L, np.eye(2), atol=0)
    np.testing.assert_allclose(U, np.diag([2.0, 4.0]), atol=0)


def test_ilu0_lower_triangular_is_exact():
    A = np.array([[2.0, 0.0, 0.0], [1.0, 3.0, 0.0], [0.5, -1.0, 4.0]])
    F = ilu0_factor(as_csr(A))
    L, U = combined_to_LU(F)
    Lo, Uo = dense_lu_no_pivot(A)
    np.testing.assert_allclose(L, Lo, atol=1e-12)
    np.testing.assert_allclose(U, np.diag(np.diag(A)), atol=1e-12)
    np.testing.assert_allclose(U, Uo, atol=1e-12)


def test_ilu0_tridiagonal_frozen_values():
    A = tridiag(3)
    F = ilu0_factor(A)
    L, U = combined_to_LU(F)
    np.testing.assert_allclose(np.diag(U), [2.0, 1.5, 4.0 / 3.0], rtol=1e-12)
    np.testing.assert_allclose([L[1, 0], L[2, 1]], [-0.5, -2.0 / 3.0], rtol=1e-12)
    Lo, Uo = dense_lu_no_pivot(A.toarray())
    np.testing.assert_allclose(L, Lo, atol=1e-12)
    np.testing.assert_allclose(U, Uo, atol=1e-12)


@pytest.mark.parametrize("n", [4, 9, 23])
def test_ilu0_zero_fill_exactness(n):
    A = tridiag(n)
    F = ilu0_factor(A)
    L, U = combined_to_LU(F)
    np.testing.assert_allclose(L @ U, A.toarray(), atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_ilu0_pattern_invariant(seed):
    A = random_dominant(seed)
    F = ilu0_factor(A)
    assert np.array_equal(F.indptr, A.indptr)
    assert np.array_equal(F.indices, A.indices)


ORACLE_CASES = [pytest.param(lambda s=s: (random_dominant(s), None), id=f"random{s}")
                for s in range(4)] + [
    pytest.param(lambda: (tridiag(23), None), id="tridiag"),
    pytest.param(lambda: stacked_species_block(1, 0), id="species-r1"),
    pytest.param(lambda: stacked_species_block(1, 1), id="species-r1-overlap1"),
]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_ilu0_matches_row_loop_reference(case):
    A, offsets = case()
    F = ilu0_factor(A, block_offsets=offsets)
    assert F.data.tobytes() == reference_ilu0_factor(A).tobytes()
    r = np.random.default_rng(7).standard_normal(A.shape[0])
    expected = reference_ilu0_apply(F, r)
    z = ilu0_apply(F, r)
    assert np.linalg.norm(z - expected) <= 1e-12 * np.linalg.norm(expected)


def reference_substitution_apply(F, r):
    """The substitution loop ``ilu0_apply`` must match bit for bit, on
    Python floats from the combined array: s = r_i, then s += (-l_ij) * y_j
    over the row's columns in ascending order; y / pivots; then from the
    last row up, s = w_i, then s += (-(u_ij / u_ii)) * z_j over the row's
    columns in descending order."""
    indptr, indices, data = F.indptr.tolist(), F.indices.tolist(), F.data.tolist()
    diag_pos = F.diag_pos.tolist()
    y = np.asarray(r, dtype=np.float64).tolist()
    for i in range(F.n):
        s = y[i]
        for p in range(indptr[i], diag_pos[i]):
            s += (-data[p]) * y[indices[p]]
        y[i] = s
    z = [y[i] / data[diag_pos[i]] for i in range(F.n)]
    for i in range(F.n - 1, -1, -1):
        s, pivot = z[i], data[diag_pos[i]]
        for p in range(indptr[i + 1] - 1, diag_pos[i], -1):
            s += (-(data[p] / pivot)) * z[indices[p]]
        z[i] = s
    return np.array(z)


BYTE_CASES = ORACLE_CASES + [
    pytest.param(lambda: stacked_species_block(3, 0), id="species-r3-P4"),
    pytest.param(lambda: stacked_species_block(3, 0, count=256), id="species-r3-P256"),
    pytest.param(lambda: stacked_species_block(3, 1), id="species-r3-P4-overlap1"),
]


@pytest.mark.parametrize("case", BYTE_CASES)
def test_ilu0_apply_bit_identical_to_per_level_sweep(case):
    # a row-by-row substitution is a sweep with one row per level
    A, offsets = case()
    F = ilu0_factor(A, block_offsets=offsets)
    rng = np.random.default_rng(A.shape[0])
    for r in (rng.standard_normal(A.shape[0]), np.ones(A.shape[0])):
        z = ilu0_apply(F, r)
        assert z.tobytes() == reference_substitution_apply(F, r).tobytes()
        expected = reference_ilu0_apply(F, r)
        assert np.linalg.norm(z - expected) <= 1e-12 * np.linalg.norm(expected)


def test_ilu0_apply_leaves_its_input_alone_and_checks_its_shape():
    A, offsets = stacked_species_block(1, 1)
    F = ilu0_factor(A, block_offsets=offsets)
    r = np.random.default_rng(5).standard_normal(A.shape[0])
    before = r.tobytes()
    z = ilu0_apply(F, r)
    assert r.tobytes() == before and z.flags.c_contiguous and z.base is None
    for bad in (r[:-1], np.ones((A.shape[0], 2))):
        with pytest.raises(ValueError, match=rf"ilu0_apply: vector of shape .* for dimension {A.shape[0]}$"):
            ilu0_apply(F, bad)


def test_in_place_substitution_guard():
    """The import-time check accepts scipy's kernel and rejects one that
    reads a copy of its input, both called directly and at module import."""
    import importlib.util
    import scipy.sparse._sparsetools as sparsetools
    from blocksolve import sparse

    kernel = sparsetools.csr_matvec

    def copying(n_row, n_col, indptr, indices, data, x, y):
        kernel(n_row, n_col, indptr, indices, data, x.copy(), y)

    sparse.require_in_place_substitution(kernel)
    with pytest.raises(RuntimeError, match="no longer substitutes in place"):
        sparse.require_in_place_substitution(copying)
    spec = importlib.util.spec_from_file_location("blocksolve._guard_check", sparse.__file__)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sparsetools, "csr_matvec", copying)
        with pytest.raises(RuntimeError, match=r"gave \[1\.0, 2\.0, 2\.0\]"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))


def array_fields(obj):
    """Field name -> bytes of every array a dataclass instance holds,
    directly or in (nested) tuples; None for any other field."""
    def flat(value):
        if isinstance(value, np.ndarray):
            return [value.tobytes()]
        if isinstance(value, tuple):
            return [b for v in value for b in flat(v)]
        return []
    return {name: flat(value) or None for name, value in vars(obj).items()}


def test_factors_and_smoothers_unchanged_by_applies():
    from blocksolve.amg import AmgParams, build_hierarchy, vcycle
    A, offsets = stacked_species_block(1, 1)
    F = ilu0_factor(A, block_offsets=offsets)
    H = build_hierarchy(build_case(CaseConfig(refinement=1)).system.blocks[("phi_s", "phi_s")],
                        AmgParams())
    parts = [F] + [lvl.smoother for lvl in H.levels[:-1]]
    before = [array_fields(obj) for obj in parts]
    assert all(any(fields.values()) for fields in before)
    # the two sweeps' (indptr, indices, data) are checked with the factors
    assert len(before[0]["lower"]) == len(before[0]["upper"]) == 3
    rng = np.random.default_rng(3)
    for _ in range(3):
        ilu0_apply(F, rng.standard_normal(A.shape[0]))
        vcycle(H, rng.standard_normal(H.levels[0].operator.shape[0]))
    assert [array_fields(obj) for obj in parts] == before


def test_ilu0_missing_diagonal_rejected():
    A = sp.csr_matrix((np.array([1.0]), np.array([1]), np.array([0, 1, 1])),
                      shape=(2, 2))
    with pytest.raises(ValueError, match="row 0 lacks a structural diagonal"):
        ilu0_factor(A)


def test_ilu0_unsorted_columns_rejected():
    A = sp.csr_matrix((np.array([1.0, 2.0, 3.0]), np.array([0, 1, 0]),
                       np.array([0, 1, 3])), shape=(2, 2))
    with pytest.raises(ValueError,
                       match="ilu0_factor: row 1 has unsorted or duplicate columns"):
        ilu0_factor(A)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ilu0_nonfinite_entry_named_before_elimination(bad):
    A = tridiag(5)
    A.data[A.indptr[2] + 2] = bad    # entry (2, 3)
    A.data[A.indptr[4]] = np.nan     # a later one, (4, 3), is not the one named
    with pytest.raises(ValueError, match=r"non-finite entry .* at \(2, 3\)"):
        ilu0_factor(A)


def test_ilu0_zero_pivot_names_row():
    # elimination cancels the second pivot exactly; the rows after it divide
    # by zero, and no RuntimeWarning may escape
    A = as_csr(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]))
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError) as err:
            ilu0_factor(A)
    assert err.value.row == 1


def test_ilu0_apply_identity():
    F = ilu0_factor(as_csr(np.eye(3)))
    r = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(ilu0_apply(F, r), r, atol=0)


def test_ilu0_apply_diagonal():
    F = ilu0_factor(as_csr(np.diag([2.0, 4.0])))
    np.testing.assert_allclose(ilu0_apply(F, np.array([2.0, 4.0])), np.ones(2))


def test_ilu0_apply_matches_dense_solve():
    A = tridiag(3)
    F = ilu0_factor(A)
    r = np.array([1.0, 0.0, 1.0])
    expected = np.linalg.solve(A.toarray(), r)  # zero fill => exact factors
    np.testing.assert_allclose(ilu0_apply(F, r), expected, rtol=1e-12)


# ---------------------------------------------------------------- jacobi

def test_jacobi_scalar():
    np.testing.assert_allclose(jacobi_apply(jacobi_setup(as_csr(np.array([[4.0]]))),
                                            np.array([8.0])),
                               np.array([2.0]))


def test_jacobi_diagonal_exact():
    A = as_csr(np.diag([2.0, -3.0, 0.5]))
    r = np.array([4.0, 9.0, 1.0])
    z = jacobi_apply(jacobi_setup(A), r)
    np.testing.assert_allclose(A @ z, r, rtol=1e-14)


def test_jacobi_tridiag_scaling_only():
    A = tridiag(3)
    np.testing.assert_allclose(jacobi_apply(jacobi_setup(A), np.array([2.0, 2.0, 2.0])),
                               np.ones(3))


@pytest.mark.parametrize("shape", [(3, 1), (1, 3), (2,), (4,)])
def test_jacobi_rejects_a_residual_of_another_shape(shape):
    # an (n, 1) residual would broadcast against the diagonal to n x n
    with pytest.raises(ValueError) as err:
        jacobi_apply(jacobi_setup(tridiag(3)), np.ones(shape))
    assert str(err.value) == f"jacobi_apply: residual of shape {shape} for a diagonal of shape (3,)"


def test_jacobi_zero_diagonal_structured():
    A = as_csr(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(SingularMatrixError) as err:
        jacobi_setup(A)
    assert err.value.row == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_setups_reject_a_non_finite_diagonal_naming_the_row(bad):
    # unchecked, every Jacobi apply returns NaN, and Chebyshev fails only
    # later, on its NaN lambda_max estimate
    A = tridiag(4)
    A.data[A.indptr[2] + 1] = bad   # the (2, 2) entry
    for setup, owner in ((jacobi_setup, "Jacobi"), (chebyshev_setup, "Chebyshev")):
        with pytest.raises(ValueError) as err:
            setup(A)
        assert str(err.value) == f"{owner} setup: non-finite diagonal entry {bad} at row 2"


# ---------------------------------------------------------------- lambda_max

def test_lambda_max_identity():
    A = as_csr(np.eye(5))
    lam = estimate_lambda_max(A, np.ones(5), iterations=5, seed=0)
    assert abs(lam - 1.0) <= 1e-10


def test_lambda_max_diagonal():
    A = as_csr(np.diag([1.0, 2.0, 3.0]))
    lam = estimate_lambda_max(A, np.ones(3), iterations=30, seed=1)
    assert abs(lam - 3.0) / 3.0 <= 0.01


def test_lambda_max_poisson_vs_dense_eig():
    n = 16
    A = tridiag(n)
    dinv = 1.0 / A.diagonal()
    lam = estimate_lambda_max(A, dinv, iterations=50, seed=2)
    exact = np.max(np.abs(np.linalg.eigvals(np.diag(dinv) @ A.toarray())))
    assert abs(lam - exact) / exact <= 0.05


def test_lambda_max_deterministic():
    A = tridiag(12)
    dinv = 1.0 / A.diagonal()
    a = estimate_lambda_max(A, dinv, iterations=10, seed=3)
    b = estimate_lambda_max(A, dinv, iterations=10, seed=3)
    assert a == b


def test_lambda_max_zero_operator_fails():
    A = as_csr(sp.csr_matrix((4, 4)))
    with pytest.raises(RuntimeError, match="collapsed to the zero vector"):
        estimate_lambda_max(A, np.ones(4), iterations=3, seed=0)


# ---------------------------------------------------------------- chebyshev

def chebyshev_interval(S):
    """(theta, delta): midpoint and half-width of the smoother's interval."""
    lam_max = CHEBYSHEV_BOOST * S.lambda_max_estimate
    lam_min = S.lambda_max_estimate / CHEBYSHEV_RATIO
    return 0.5 * (lam_max + lam_min), 0.5 * (lam_max - lam_min)


def shifted_cheb_value(smoother, lam):
    """Oracle: p(lam) = T_d((theta-lam)/delta) / T_d(theta/delta)."""
    theta, delta = chebyshev_interval(smoother)

    def cheb(d, t):
        t = np.clip(t, -np.inf, np.inf)
        if abs(t) <= 1:
            return np.cos(d * np.arccos(t))
        return np.sign(t) ** d * np.cosh(d * np.arccosh(abs(t)))

    return cheb(smoother.degree, (theta - lam) / delta) / cheb(smoother.degree, theta / delta)


def test_chebyshev_default_degree_is_two():
    S = chebyshev_setup(tridiag(8))
    assert S.degree == 2


def test_chebyshev_fixed_point():
    n = 10
    A = tridiag(n)
    S = chebyshev_setup(A, degree=3)
    x_exact = np.linspace(1.0, 2.0, n)
    b = A @ x_exact
    x_new = chebyshev_apply(S, A, b, x_exact.copy())
    np.testing.assert_allclose(x_new, x_exact, atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_chebyshev_error_propagation_matches_spectral_oracle(degree):
    n = 16
    A = tridiag(n)
    S = chebyshev_setup(A, degree=degree, power_iterations=30)
    Dinv = np.diag(S.inverse_diagonal)
    lam, V = np.linalg.eigh(0.5 * A.toarray())  # D = 2I: D^{-1}A symmetric here
    for k in (0, n // 2, n - 1):
        e = V[:, k]
        x_exact = np.zeros(n)
        b = A @ x_exact
        x0 = x_exact - e
        x1 = chebyshev_apply(S, A, b, x0)
        e1 = x_exact - x1
        expected = shifted_cheb_value(S, lam[k]) * e
        np.testing.assert_allclose(e1, expected, atol=1e-8)


def test_chebyshev_damps_high_frequency():
    n = 8
    A = tridiag(n)
    S = chebyshev_setup(A, degree=2, power_iterations=30)
    lam, V = np.linalg.eigh(0.5 * A.toarray())
    e = V[:, -1]  # highest-frequency eigenvector
    x1 = chebyshev_apply(S, A, np.zeros(n), -e)
    error_norm = np.linalg.norm(-x1)  # error relative to the zero solution
    bound = abs(shifted_cheb_value(S, lam[-1]))
    assert error_norm <= bound * np.linalg.norm(e) + 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_chebyshev_never_increases_a_norm_spd(seed):
    rng = np.random.default_rng(seed)
    n = 20
    B = rng.standard_normal((n, n))
    A = as_csr(B @ B.T + n * np.eye(n))
    S = chebyshev_setup(A, degree=2, power_iterations=30)
    Ad = A.toarray()
    e = rng.standard_normal(n)
    x1 = chebyshev_apply(S, A, np.zeros(n), -e)
    e1 = -x1
    before = e @ Ad @ e
    after = e1 @ Ad @ e1
    assert after <= before * (1 + 1e-12)


# ------------------------------------------------- chebyshev: differential

def add_row_products(A, v, s):
    """s[i] += a_ij * v[j] over row i's stored entries in order, one Python
    float at a time; returns the list ``s``. A ``CountingOperator`` counts
    the product."""
    if isinstance(A, CountingOperator):
        A.products += 1
        A = A.A
    indptr, indices, data = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    v = list(v)
    for i in range(len(s)):
        acc = s[i]
        for k in range(indptr[i], indptr[i + 1]):
            acc += data[k] * v[indices[k]]
        s[i] = acc
    return s


def reference_chebyshev_apply(S, A, b, x):
    """The Chebyshev apply as loops over Python floats, in the rounding
    order ``chebyshev_apply`` must match bit for bit: the residual r_i is
    the negation of s_i, which starts at -b_i and adds a_ij x_j in row order;
    Horner's rule sets t_i = a_k r_i, adds a_ij y_j in row order and sets
    y_i = dinv_i t_i, for k = d - 1, ..., 0 from y = 0; the result is
    x_i + y_i."""
    b = np.asarray(b, dtype=np.float64)
    x = np.array(x, dtype=np.float64, copy=True)
    if b.shape[0] != A.shape[0] or x.shape[0] != A.shape[0]:
        raise ValueError("chebyshev_apply: dimension mismatch")
    dinv = S.inverse_diagonal.tolist()
    x = x.tolist()
    r = [-si for si in add_row_products(A, x, [-bi for bi in b.tolist()])]
    y = None
    for a in reversed(S.coefficients):
        t = [a * ri for ri in r]
        if y is not None:
            add_row_products(A, y, t)
        y = [vi * ti for vi, ti in zip(dinv, t)]
    return np.array([xi + yi for xi, yi in zip(x, y)])


def recurrence_chebyshev_apply(S, A, b, x):
    """The Chebyshev iteration by its three-term recurrence in numpy, the
    form the apply took before its polynomial was fixed at setup: d_0 =
    D^{-1} r_0 / theta, then x <- x + d, r <- r - A d and d <- c1 d +
    c2 D^{-1} r."""
    theta, delta = chebyshev_interval(S)
    sigma = theta / delta
    rho = 1.0 / sigma
    x = np.array(x, dtype=np.float64)
    r = b - A @ x
    d = S.inverse_diagonal * r / theta
    for _ in range(S.degree - 1):
        x += d
        r -= A @ d
        rho_next = 1.0 / (2.0 * sigma - rho)
        d = rho_next * rho * d + 2.0 * rho_next / delta * (S.inverse_diagonal * r)
        rho = rho_next
    return x + d


class CountingOperator:
    """Wraps a matrix and counts the operator products taken with it."""

    def __init__(self, A):
        self.A, self.shape, self.products = A, A.shape, 0

    def __matmul__(self, v):
        self.products += 1
        return self.A @ v


def case_level_smoothers(degree):
    """(operator, smoother) of every smoothed level of the phi_s, phi_l and p
    hierarchies at r = 0..2."""
    from blocksolve.amg import AmgParams, build_hierarchy
    out = []
    for r in range(3):
        blocks = build_case(CaseConfig(refinement=r)).system.blocks
        for f in ("phi_s", "phi_l", "p"):
            H = build_hierarchy(blocks[(f, f)], AmgParams(smoother_degree=degree))
            out += [(lvl.operator, lvl.smoother) for lvl in H.levels[:-1]]
    return out


@pytest.mark.parametrize("degree", [2, 4])
def test_chebyshev_bit_identical_to_reference_on_case_levels(degree):
    levels = case_level_smoothers(degree)
    assert len(levels) >= 9  # at least one smoothed level per hierarchy
    rng = np.random.default_rng(degree)
    for A, S in levels:
        n = A.shape[0]
        b, x0 = rng.standard_normal(n), rng.standard_normal(n)
        zero = chebyshev_apply(S, A, b)
        assert zero.tobytes() == reference_chebyshev_apply(S, A, b, np.zeros(n)).tobytes()
        guess = chebyshev_apply(S, A, b, x0)
        assert guess.tobytes() == reference_chebyshev_apply(S, A, b, x0).tobytes()


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_chebyshev_zero_guess_keeps_signed_zeros(degree):
    # 0 + (-0.0) is +0.0: the zero-guess iterate must round as the add onto
    # an explicit zero vector does
    A = tridiag(6)
    S = chebyshev_setup(A, degree=degree)
    b = np.array([-0.0, 0.0, -0.0, 1.0, -2.0, -0.0])
    got = chebyshev_apply(S, A, b, None)
    assert got.tobytes() == reference_chebyshev_apply(S, A, b, np.zeros(6)).tobytes()
    if degree == 1:
        assert not np.signbit(got[[0, 2, 5]]).any()


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_chebyshev_operator_products(degree):
    A = CountingOperator(tridiag(12))
    S = chebyshev_setup(A.A, degree=degree)
    b = np.linspace(-1.0, 1.0, 12)
    chebyshev_apply(S, A, b)
    assert A.products == degree - 1
    A.products = 0
    chebyshev_apply(S, A, b, np.ones(12))
    assert A.products == degree
    A.products = 0
    reference_chebyshev_apply(S, A, b, np.zeros(12))
    assert A.products == degree


def test_chebyshev_writes_neither_b_nor_x():
    A = tridiag(10)
    S = chebyshev_setup(A, degree=4)
    rng = np.random.default_rng(7)
    b, x = rng.standard_normal(10), rng.standard_normal(10)
    b_bytes, x_bytes = b.tobytes(), x.tobytes()
    for guess in (None, x):
        out = chebyshev_apply(S, A, b, guess)
        assert out is not x and out is not b
    assert b.tobytes() == b_bytes and x.tobytes() == x_bytes


def test_chebyshev_allocates_two_vectors_from_zero_and_three_from_a_guess():
    # t and y, and from a guess also A x - b; the recurrence form took four
    n = 4000
    A = tridiag(n)
    S = chebyshev_setup(A, degree=4)
    rng = np.random.default_rng(9)
    b, x = rng.standard_normal(n), rng.standard_normal(n)
    for guess, vectors in ((None, 2), (x, 3)):
        chebyshev_apply(S, A, b, guess)
        tracemalloc.start()
        try:
            chebyshev_apply(S, A, b, guess)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vectors * 8 * n <= peak < vectors * 8 * n + 4096, (vectors, peak)


def test_chebyshev_setup_fixes_the_polynomial():
    # 1 - t q(t) is the Chebyshev residual polynomial
    # T_d((theta - t) / delta) / T_d(theta / delta)
    for degree in range(1, CHEBYSHEV_DEGREES["most"] + 1):
        S = chebyshev_setup(tridiag(8), degree=degree)
        theta, delta = chebyshev_interval(S)
        T = np.polynomial.Polynomial(np.polynomial.chebyshev.cheb2poly([0] * degree + [1]))
        residual = T(np.polynomial.Polynomial([theta / delta, -1.0 / delta])) / T(theta / delta)
        assert isinstance(S.coefficients, tuple) and len(S.coefficients) == degree
        np.testing.assert_allclose(S.coefficients, -residual.coef[1:], rtol=1e-10)
    S = chebyshev_setup(tridiag(8), degree=1)
    assert S.coefficients == (1.0 / chebyshev_interval(S)[0],)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_chebyshev_rejects_a_nonfinite_lambda_estimate(bad):
    with pytest.raises(ValueError, match=f"lambda_max_estimate: want a finite real > 0, got {bad}"):
        ChebyshevSmoother(degree=2, lambda_max_estimate=bad, inverse_diagonal=np.ones(3))


def test_chebyshev_degree_is_one_to_eight():
    assert len(ChebyshevSmoother(8, 2.0, np.ones(3)).coefficients) == 8
    for bad in (0, 9):
        with pytest.raises(ValueError, match=f"degree: want an integer >= 1 and <= 8, got {bad}"):
            ChebyshevSmoother(bad, 2.0, np.ones(3))


@pytest.fixture(scope="module")
def case_levels():
    return case_level_smoothers(2)


@pytest.mark.parametrize("degree", range(1, CHEBYSHEV_DEGREES["most"] + 1))
def test_chebyshev_agrees_with_the_recurrence(case_levels, degree):
    rng = np.random.default_rng(20 + degree)
    for A, S in case_levels:
        S = ChebyshevSmoother(degree, S.lambda_max_estimate, S.inverse_diagonal)
        n = A.shape[0]
        b, x0 = rng.standard_normal(n), rng.standard_normal(n)
        for guess in (None, x0):
            got = chebyshev_apply(S, A, b, guess)
            want = recurrence_chebyshev_apply(S, A, b, np.zeros(n) if guess is None else x0)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_chebyshev_rejects_mismatched_guess():
    A = tridiag(5)
    S = chebyshev_setup(A)
    with pytest.raises(ValueError, match="dimension mismatch"):
        chebyshev_apply(S, A, np.ones(5), np.ones(4))


def reference_estimate_lambda_max(A, inverse_diagonal, iterations=10, seed=0):
    """``estimate_lambda_max`` as it was: a fresh start vector per call and
    numpy's ``norm``."""
    inverse_diagonal = np.asarray(inverse_diagonal, dtype=np.float64)
    w = np.random.default_rng(seed).standard_normal(A.shape[0])
    for _ in range(iterations + 1):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise RuntimeError("power iteration collapsed to the zero vector")
        v = w / norm
        w = inverse_diagonal * (A @ v)
    return abs(v @ w)


def test_power_iteration_gives_the_bytes_of_the_norm_loop():
    rng = np.random.default_rng(31)
    for n in (1, 2, 7, 64, 257, 4096):
        A = as_csr(sp.random(n, n, density=min(1.0, 6.0 / n), random_state=n)
                   + sp.diags(rng.uniform(1.0, 3.0, n)))
        dinv = 1.0 / A.diagonal()
        for seed in (0, 1, 17):
            for iterations in (0, 3, 10):
                for _ in range(2):  # a fresh draw, then the cached vector
                    got = estimate_lambda_max(A, dinv, iterations=iterations, seed=seed)
                    want = reference_estimate_lambda_max(A, dinv, iterations, seed)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_power_iteration_start_vectors_are_cached_read_only_and_distinct():
    vectors = {(seed, n): _start_vector(seed, n) for seed in (0, 1) for n in (5, 6)}
    for (seed, n), w in vectors.items():
        assert _start_vector(seed, n) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0
        assert w.tobytes() == np.random.default_rng(seed).standard_normal(n).tobytes()
    assert len({w.tobytes() for w in vectors.values()}) == 4


def unbuffered_estimate_lambda_max(A, inverse_diagonal, iterations=10, seed=0):
    """``estimate_lambda_max`` before its products ran into buffers,
    verbatim: a new vector for each product and each scaling."""
    inverse_diagonal = np.asarray(inverse_diagonal, dtype=np.float64)
    w = _start_vector(seed, A.shape[0])
    for _ in range(iterations + 1):
        norm = math.sqrt(w.dot(w))
        if norm == 0.0:
            raise RuntimeError("power iteration collapsed to the zero vector")
        v = w / norm
        w = inverse_diagonal * (A @ v)
    return abs(v @ w)


def test_buffered_power_iteration_gives_the_bytes_of_the_unbuffered_loop():
    rng = np.random.default_rng(29)
    operators = [build_case(CaseConfig(refinement=2)).system.blocks[("phi_s", "phi_s")]]
    for n in (1, 2, 9, 100, 3000):
        A = as_csr(sp.random(n, n, density=min(1.0, 5.0 / n), random_state=rng)
                   + sp.diags(rng.uniform(-2.0, 3.0, n)))
        # a dense operator and a float32 one take product_adder's fallback
        operators += [A, A.toarray()] if n <= 100 else [A, A.astype(np.float32)]
    for A in operators:
        dinv = 1.0 / A.diagonal()
        for seed in (0, 4, 23):
            for iterations in (0, 1, 10):
                got = estimate_lambda_max(A, dinv, iterations=iterations, seed=seed)
                want = unbuffered_estimate_lambda_max(A, dinv, iterations, seed)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("iterations", [-1, -7])
def test_power_iteration_rejects_a_negative_iteration_count(iterations):
    A = tridiag(4)
    want = f"^estimate_lambda_max: iterations must be >= 0, got {iterations}$"
    with pytest.raises(ValueError, match=want):
        estimate_lambda_max(A, np.ones(4), iterations=iterations)
    with pytest.raises(ValueError, match=want):
        chebyshev_setup(A, power_iterations=iterations)


@pytest.mark.parametrize("A, dinv", [(tridiag(4), np.ones(3)), (tridiag(4), np.ones((4, 1))),
                                     (as_csr(np.ones((4, 5))), np.ones(4))])
def test_power_iteration_names_the_operator_and_inverse_diagonal_shapes(A, dinv):
    want = (rf"^estimate_lambda_max: operator of shape {re.escape(str(A.shape))} and inverse "
            rf"diagonal of shape {re.escape(str(dinv.shape))} \(want a square operator and "
            rf"\(4,\)\)$")
    with pytest.raises(ValueError, match=want):
        estimate_lambda_max(A, dinv)


def test_chebyshev_apply_names_the_operator_and_vector_shapes():
    A = tridiag(5)
    S = chebyshev_setup(A)
    for b, x in ((np.ones(6), None), (np.ones((5, 1)), None), (np.ones(5), np.ones(4))):
        want = (r"chebyshev_apply: dimension mismatch: operator of shape \(5, 5\), "
                rf"b of shape {re.escape(str(b.shape))}, x of shape "
                rf"{re.escape(str(None if x is None else x.shape))} \(want \(5,\)\)")
        with pytest.raises(ValueError, match=want):
            chebyshev_apply(S, A, b, x)


def test_chebyshev_steps_are_the_signed_reversed_coefficients():
    for degree in (1, 2, 5, 8):
        S = ChebyshevSmoother(degree, 1.7, np.ones(3))
        zero_guess, from_guess = S.steps
        assert zero_guess == tuple(reversed(S.coefficients))
        assert [np.float64(a).tobytes() for a in from_guess] == \
            [np.float64(-1.0 * a).tobytes() for a in reversed(S.coefficients)]
