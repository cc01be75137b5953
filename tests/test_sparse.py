import numpy as np
import pytest
import scipy.sparse as sp

from blocksolve.sparse import (
    SingularMatrixError,
    as_csr,
    dense_factor,
    require_canonical,
    triple_product,
)


def tridiag(n, lo=-1.0, mid=2.0, hi=-1.0):
    return as_csr(sp.diags([lo * np.ones(n - 1), mid * np.ones(n), hi * np.ones(n - 1)],
                           [-1, 0, 1]))


def random_csr(n, m, density, seed):
    rng = np.random.default_rng(seed)
    M = sp.random(n, m, density=density, format="csr", random_state=rng)
    return as_csr(M)


# ---------------------------------------------------------------- spmv
# every operator applies as ``A @ x`` on its canonical CSR form

def test_spmv_identity():
    A = as_csr(np.eye(2))
    assert np.array_equal(A @ np.array([3.0, -5.0]), np.array([3.0, -5.0]))


def test_spmv_tridiag_row_sums():
    A = tridiag(3)
    assert np.array_equal(A @ np.ones(3), np.array([1.0, 0.0, 1.0]))


def test_spmv_seeded_column_extraction():
    rng = np.random.default_rng(42)
    dense = rng.standard_normal((5, 5))
    A = as_csr(dense)
    e1 = np.zeros(5)
    e1[0] = 1.0
    # oracle: dense multiply
    np.testing.assert_allclose(A @ e1, dense @ e1, rtol=1e-13)


def test_spmv_dense_oracle_sizes():
    for n in (3, 17, 50):
        A = random_csr(n, n, 0.3, seed=n)
        x = np.random.default_rng(n + 1).standard_normal(n)
        expected = A.toarray() @ x
        got = A @ x
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)


def test_spmv_dimension_mismatch():
    A = tridiag(3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        A @ np.ones(4)


def test_spmv_deterministic():
    A = random_csr(40, 40, 0.2, seed=7)
    x = np.random.default_rng(8).standard_normal(40)
    y1 = A @ x
    y2 = A @ x
    assert np.array_equal(y1, y2)


# ---------------------------------------------------------------- triple product

def test_triple_product_identity():
    A = tridiag(4)
    I = as_csr(np.eye(4))
    C = triple_product(I, A, I)
    assert np.array_equal(C.toarray(), A.toarray())


def test_triple_product_piecewise_constant_oracle():
    A = tridiag(4)
    P = np.zeros((4, 2))
    P[:2, 0] = 1.0 / np.sqrt(2.0)
    P[2:, 1] = 1.0 / np.sqrt(2.0)
    R = P.T
    expected = R @ A.toarray() @ P  # dense RAP oracle
    C = triple_product(as_csr(R), A, as_csr(P))
    np.testing.assert_allclose(C.toarray(), expected, rtol=1e-12, atol=1e-15)


def test_triple_product_zero_annihilation():
    A = tridiag(3)
    R = sp.csr_matrix((2, 3))
    P = random_csr(3, 5, 0.5, seed=3)
    C = triple_product(R, A, P)
    assert C.shape == (2, 5)
    assert C.nnz == 0


def test_triple_product_seeded_oracle():
    for seed, n in [(0, 40), (1, 44), (2, 70), (3, 100)]:
        m = n // 3
        R = random_csr(m, n, 0.15, seed=seed)
        A = random_csr(n, n, 0.1, seed=seed + 100)
        P = random_csr(n, m, 0.15, seed=seed + 200)
        expected = R.toarray() @ A.toarray() @ P.toarray()
        C = triple_product(R, A, P)
        require_canonical(C)
        scale = max(1.0, np.abs(expected).max())
        np.testing.assert_allclose(C.toarray(), expected, atol=1e-12 * scale)


def test_triple_product_retains_cancellation_zeros():
    # R A P has an exact structural entry that cancels to zero numerically
    A = as_csr(np.array([[1.0, -1.0], [0.0, 1.0]]))
    P = as_csr(np.array([[1.0, 0.0], [1.0, 0.0]]))
    I = as_csr(np.eye(2))
    C = triple_product(I, A, P)
    dense = C.toarray()
    assert dense[0, 0] == 0.0
    # the cancelled entry must remain stored
    assert C.nnz == 2
    assert C.indptr[1] - C.indptr[0] == 1


def test_triple_product_dim_mismatch():
    A = tridiag(3)
    P = random_csr(4, 2, 0.5, seed=1)
    with pytest.raises(ValueError, match="incompatible"):
        triple_product(P.T.tocsr(), A, P)


def test_triple_product_deterministic_pattern():
    R = random_csr(10, 30, 0.2, seed=5)
    A = random_csr(30, 30, 0.1, seed=6)
    P = random_csr(30, 10, 0.2, seed=7)
    C1 = triple_product(R, A, P)
    C2 = triple_product(R, A, P)
    assert np.array_equal(C1.indptr, C2.indptr)
    assert np.array_equal(C1.indices, C2.indices)
    assert np.array_equal(C1.data, C2.data)


# ---------------------------------------------------------------- dense factorization

def test_dense_factor_solve_diagonal():
    A = as_csr(np.diag([2.0, 4.0]))
    x = dense_factor(A).solve(np.array([2.0, 4.0]))
    np.testing.assert_allclose(x, np.ones(2), rtol=1e-14)


def test_dense_factor_solve_rotation():
    A = as_csr(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    x = dense_factor(A).solve(np.array([1.0, 0.0]))
    np.testing.assert_allclose(x, np.array([0.0, 1.0]), atol=1e-15)


def test_dense_factor_solve_manufactured():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((10, 10))
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)  # diagonally dominant
    b = A @ np.ones(10)
    x = dense_factor(as_csr(A)).solve(b)
    np.testing.assert_allclose(x, np.ones(10), rtol=1e-10)


def test_dense_factor_reproduces_identity_columns():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 8)) + 8 * np.eye(8)
    F = dense_factor(as_csr(A))
    for j in range(8):
        x = F.solve(A[:, j])
        e = np.zeros(8)
        e[j] = 1.0
        np.testing.assert_allclose(x, e, atol=1e-12)


def test_dense_solve_bit_identical_to_lu_solve():
    # the solve calls LAPACK getrs directly; scipy's lu_solve is the oracle
    import scipy.linalg
    rng = np.random.default_rng(5)
    A = rng.standard_normal((9, 9))
    F = dense_factor(as_csr(A))
    for b in (rng.standard_normal(9), rng.standard_normal((9, 3))):
        before = b.tobytes()
        expected = scipy.linalg.lu_solve((F.factors, F.pivots), b)
        assert F.solve(b).tobytes() == expected.tobytes()
        assert b.tobytes() == before


def test_dense_factor_singular_names_row():
    A = np.zeros((3, 3))
    A[0, 0] = 1.0
    A[1, 1] = 1.0  # row/col 2 identically zero
    with pytest.raises(SingularMatrixError) as err:
        dense_factor(as_csr(A))
    assert err.value.row == 2


def test_dense_factor_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        dense_factor(sp.csr_matrix((2, 3)))


# ---------------------------------------------------------------- canonical form

def test_as_csr_canonicalizes_duplicates():
    coo = sp.coo_matrix(([1.0, 2.0, 3.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
    A = as_csr(coo)
    require_canonical(A)
    assert A[0, 1] == 3.0


def test_require_canonical_rejects_bad_columns():
    A = sp.csr_matrix((np.ones(2), np.array([1, 0]), np.array([0, 2, 2])), shape=(2, 2))
    with pytest.raises(ValueError, match="unsorted"):
        require_canonical(A)
    # a duplicate column in a later row is named, not the rows around it:
    # sorted rows before it, an unsorted row after it
    B = sp.csr_matrix((np.ones(8), np.array([0, 2, 1, 0, 1, 1, 2, 1]),
                       np.array([0, 2, 3, 6, 8])), shape=(4, 4))
    with pytest.raises(ValueError, match="row 2 has unsorted or duplicate columns"):
        require_canonical(B)
