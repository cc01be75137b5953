import itertools
import re
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import blocksolve.sparse
from blocksolve.amg import AmgParams, build_hierarchy
from blocksolve.battery import CaseConfig, build_case
from blocksolve.blockprec import NONVOLTAGE_FIELDS, VOLTAGE_FIELDS
from blocksolve.sparse import (
    CsrArrays,
    SingularMatrixError,
    as_apply,
    as_csr,
    csr_minus,
    csr_plus,
    csr_product,
    csr_transpose,
    dense_factor,
    product_adder,
    require_canonical,
    triple_product,
)
from test_smoothers import add_row_products


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


# ---------------------------------------------------------------- as_apply
# the solve path's product: the kernel ``A @ x`` ends in, without dispatch

def solve_path_matrices():
    """Every level operator, prolongator and restrictor of the phi_s, phi_l
    and p hierarchies at r = 0..3, and the r = 3 monolithic matrix and group
    submatrices."""
    out = []
    for r in range(4):
        system = build_case(CaseConfig(refinement=r)).system
        for f in ("phi_s", "phi_l", "p"):
            for lvl in build_hierarchy(system.blocks[(f, f)], AmgParams()).levels:
                out += [M for M in (lvl.operator, lvl.prolongator, lvl.restrictor)
                        if M is not None]
    out += [system.monolithic(), system.submatrix(VOLTAGE_FIELDS),
            system.submatrix(NONVOLTAGE_FIELDS)]
    return out


def test_as_apply_bit_identical_to_matmul_on_solve_path_matrices():
    matrices = solve_path_matrices()
    assert len(matrices) >= 30
    rng = np.random.default_rng(11)
    for A in matrices:
        x = rng.standard_normal(A.shape[1])
        assert as_apply(A)(x).tobytes() == (A @ x).tobytes()


def test_as_apply_bit_identical_with_empty_rows_and_int64_indices():
    A = random_csr(30, 20, 0.2, seed=5)
    A.data[A.indptr[3]:A.indptr[7]] = 0.0
    A.eliminate_zeros()   # rows 3..6 now hold no entries
    assert not np.diff(A.indptr)[3:7].any()
    wide = A.copy()   # scipy's constructors would narrow int64 indices again
    wide.indices, wide.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
    assert wide.indices.dtype == wide.indptr.dtype == np.int64
    x = np.random.default_rng(6).standard_normal(20)
    for M in (A, wide):
        y = as_apply(M)(x)
        assert y.tobytes() == (M @ x).tobytes()
        assert not y[3:7].any()


class MatmulOnly:
    """A duck-typed operator: shape and ``@``, nothing else."""

    def __init__(self, A):
        self.A, self.shape, self.products = A, A.shape, 0

    def __matmul__(self, v):
        self.products += 1
        return self.A @ v


def test_as_apply_sends_other_matrices_through_matmul(monkeypatch):
    calls = []
    monkeypatch.setattr(blocksolve.sparse, "_csr_matvec",
                        lambda *args: calls.append(args))
    A = random_csr(12, 12, 0.3, seed=9)
    x = np.random.default_rng(10).standard_normal(12)
    for M in (A.tocsc(), A.astype(np.float32), A.toarray()):
        np.testing.assert_array_equal(as_apply(M)(x), M @ x)
    assert calls == []


def reference_product_add(A, x, y):
    """y + A x as a loop over Python floats, row i's products added to y[i]
    in row order."""
    return np.array(add_row_products(A, x, y.tolist()))


def test_product_adder_accumulates_in_row_order_in_place():
    rng = np.random.default_rng(12)
    A = random_csr(30, 20, 0.3, seed=7)
    A.data[A.indptr[4]:A.indptr[6]] = 0.0
    A.eliminate_zeros()   # rows 4 and 5 hold no entries
    x, y = rng.standard_normal(20), rng.standard_normal(30)
    want = reference_product_add(A, x, y)
    y_before = y.copy()
    product_adder(A)(x, y)
    assert y.tobytes() == want.tobytes()
    assert y[4:6].tobytes() == y_before[4:6].tobytes()
    # adding into zeros is the plain product
    z = np.zeros(30)
    product_adder(A)(x, z)
    assert z.tobytes() == (A @ x).tobytes()


def test_product_adder_bit_identical_on_solve_path_matrices():
    rng = np.random.default_rng(13)
    for A in solve_path_matrices()[::6]:
        x, y = rng.standard_normal(A.shape[1]), rng.standard_normal(A.shape[0])
        want = reference_product_add(A, x, y)
        product_adder(A)(x, y)
        assert y.tobytes() == want.tobytes()


def test_product_adder_sends_other_operators_through_matmul(monkeypatch):
    calls = []
    monkeypatch.setattr(blocksolve.sparse, "_csr_matvec", lambda *args: calls.append(args))
    A = random_csr(12, 12, 0.3, seed=9)
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal(12), rng.standard_normal(12)
    op = MatmulOnly(A)
    out = y.copy()
    product_adder(op)(x, out)
    assert out.tobytes() == (y + A @ x).tobytes()
    assert op.products == 1
    for M in (A.tocsc(), A.astype(np.float32), A.toarray()):
        out = y.copy()
        product_adder(M)(x, out)
        np.testing.assert_array_equal(out, y + M @ x)
    assert calls == []


# ---------------------------------------------------------------- triple product

def reference_triple_product(R, A, P):
    """The Galerkin product as scipy's operators give it, verbatim: the
    oracle ``triple_product`` must match byte for byte."""
    if R.shape[1] != A.shape[0] or A.shape[1] != P.shape[0]:
        raise ValueError(
            f"triple_product: incompatible shapes {R.shape} x {A.shape} x {P.shape}"
        )
    C = (R @ A) @ P
    C.sort_indices()
    return C


def csr_bytes(M):
    """Everything a CSR matrix stores: class, shape and each array's dtype
    and bytes."""
    return (type(M), M.shape) + tuple((a.dtype, a.tobytes())
                                      for a in (M.indptr, M.indices, M.data))


def test_setup_kernels_give_the_bytes_of_scipys_operators():
    # unsorted rows (a product's), stored zeros and exact cancellations: each
    # helper returns the arrays of the scipy operator it replaces
    A = random_csr(30, 40, 0.15, seed=1)
    A.data[::6] = 0.0
    B = random_csr(40, 30, 0.15, seed=2)
    AB = A @ B
    for M in (A, AB):
        N = M.copy()
        N.data[::3] *= -1.0
        N.data[1::5] = 0.0
        got = csr_product(M, B if M is A else A)
        want = M @ (B if M is A else A)
        assert csr_bytes(got.matrix()) == csr_bytes(want)
        assert csr_bytes(csr_transpose(M).matrix()) == csr_bytes(M.T.tocsr())
        assert csr_bytes(csr_plus(M, N).matrix()) == csr_bytes(M + N)
        assert csr_bytes(csr_minus(M, M).matrix()) == csr_bytes(M - M)
        assert csr_bytes(csr_minus(M, N).matrix()) == csr_bytes(M - N)


def test_setup_kernels_reject_mismatched_shapes():
    A, B = random_csr(4, 5, 0.5, seed=1), random_csr(4, 5, 0.5, seed=2)
    with pytest.raises(ValueError, match=r"csr_product: incompatible shapes \(4, 5\) x \(4, 5\)"):
        csr_product(A, B)
    for helper in (csr_plus, csr_minus):
        with pytest.raises(ValueError, match=r"shapes \(4, 5\) and \(5, 4\) differ"):
            helper(A, B.T.tocsr())


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


def test_triple_product_drops_cancellation_zeros():
    # R A P has a structural entry that cancels to exactly zero: it is
    # dropped, as scipy's product drops it
    A = as_csr(np.array([[1.0, -1.0], [0.0, 1.0]]))
    P = as_csr(np.array([[1.0, 0.0], [1.0, 0.0]]))
    I = as_csr(np.eye(2))
    C = triple_product(I, A, P)
    assert csr_bytes(C) == csr_bytes(reference_triple_product(I, A, P))
    assert np.array_equal(C.toarray(), I.toarray() @ A.toarray() @ P.toarray())
    assert C.nnz == 1
    assert C.indptr[1] - C.indptr[0] == 0


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


def test_triple_product_gives_the_csr_result_on_every_operand_form():
    R = random_csr(10, 30, 0.2, seed=5)
    A = random_csr(30, 30, 0.1, seed=6)
    P = random_csr(30, 10, 0.2, seed=7)
    # stored zeros in A, and a P that cancels: x - x in one column
    A.data[::7] = 0.0
    cancel = as_csr(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    operands = [(R, A, P), (as_csr(np.eye(2)), as_csr(np.ones((2, 2))), cancel),
                (sp.csr_matrix((2, 3)), tridiag(3), random_csr(3, 5, 0.5, seed=3))]
    # CSC, COO and float32 operands are converted to float64 CSR first,
    # stored zeros kept, so they give the product of their float64 CSR forms
    for R, A, P in operands:
        expected = csr_bytes(reference_triple_product(R, A, P))
        assert csr_bytes(triple_product(R, A, P)) == expected
        for form in ("csc", "coo"):
            ops = [M.asformat(form) for M in (R, A, P)]
            assert csr_bytes(triple_product(*ops)) == expected
        A32 = A.astype(np.float32)
        assert (csr_bytes(triple_product(R, A32, P))
                == csr_bytes(reference_triple_product(R, A32.astype(np.float64), P)))


def test_triple_product_takes_csr_arrays_operands():
    # a CsrArrays R failed at .matrix(type(R)); the result is a csr_matrix
    # with the bytes of the product of csr_matrix operands
    R = random_csr(10, 30, 0.2, seed=5)
    A = random_csr(30, 30, 0.1, seed=6)
    P = random_csr(30, 10, 0.2, seed=7)
    expected = csr_bytes(reference_triple_product(R, A, P))
    arrays = [CsrArrays(M.shape, M.indptr, M.indices, M.data) for M in (R, A, P)]
    for use in itertools.product((False, True), repeat=3):
        ops = [a if u else M for u, a, M in zip(use, arrays, (R, A, P))]
        assert csr_bytes(triple_product(*ops)) == expected, use


def test_case_hierarchies_have_22_galerkin_levels():
    levels = 0
    for r in range(4):
        blocks = build_case(CaseConfig(refinement=r)).system.blocks
        for f in ("phi_s", "phi_l", "p"):
            levels += build_hierarchy(blocks[(f, f)], AmgParams()).depth - 1
    assert levels == 22


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
    b = rng.standard_normal(9)
    before = b.tobytes()
    expected = scipy.linalg.lu_solve((F.factors, F.pivots), b)
    assert F.solve(b).tobytes() == expected.tobytes()
    assert b.tobytes() == before


@pytest.mark.parametrize("shape", [(9, 1), (9, 3), (8,), (10,), ()])
def test_dense_solve_rejects_anything_but_a_vector_of_its_dimension(shape):
    # an (n, 1) or (n, k) right-hand side passed a length check on shape[0]
    F = dense_factor(np.eye(9) + np.diag(np.ones(8), 1))
    with pytest.raises(ValueError, match=rf"dense solve: rhs of shape {re.escape(str(shape))} "
                                         r"for dimension 9 \(want \(9,\)\)"):
        F.solve(np.ones(shape))


def test_dense_solve_is_thread_safe():
    # scipy's getrs wrapper shifts the pivot array it is given to 1-based
    # and back during the call; threads sharing one array swap rows by
    # doubly shifted indices, write outside the vector and corrupt the heap
    rng = np.random.default_rng(11)
    n = 240
    F = dense_factor(rng.standard_normal((n, n)))
    rhs = [rng.standard_normal(n) for _ in range(2)]
    expected = [F.solve(b).tobytes() for b in rhs]
    pivots = F.pivots.tobytes()
    mismatches = [0, 0]
    start = threading.Barrier(2, timeout=60)

    def solve(k):
        start.wait()
        for _ in range(3000):
            mismatches[k] += F.solve(rhs[k]).tobytes() != expected[k]

    threads = [threading.Thread(target=solve, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == [0, 0]
    assert F.pivots.tobytes() == pivots


def test_dense_factor_singular_names_row():
    A = np.zeros((3, 3))
    A[0, 0] = 1.0
    A[1, 1] = 1.0  # row/col 2 identically zero
    with pytest.raises(SingularMatrixError) as err:
        dense_factor(as_csr(A))
    assert err.value.row == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dense_factor_rejects_non_finite_entries_naming_the_first(bad):
    # unchecked, getrf returns NaN factors and the solve NaN, with no error
    A = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, bad], [bad, 1.0, 2.0]])
    for M in (A, as_csr(A)):
        with pytest.raises(ValueError) as err:
            dense_factor(M)
        assert str(err.value) == f"dense_factor: non-finite entry {bad} at (1, 2)"


def test_dense_factor_takes_array_likes_as_as_csr_does():
    # a nested list was an AttributeError on its .shape before any check
    with pytest.raises(ValueError) as err:
        dense_factor([[np.nan, 1.0], [1.0, 2.0]])
    assert str(err.value) == "dense_factor: non-finite entry nan at (0, 0)"
    rows = [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 2.0, 5.0]]
    got, want = dense_factor(rows), dense_factor(np.array(rows))
    assert got.dimension == want.dimension == 3
    assert (got.factors.tobytes(), got.pivots.tobytes()) == \
        (want.factors.tobytes(), want.pivots.tobytes())
    for bad in ([1.0, 2.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="dense_factor: matrix is not square"):
            dense_factor(bad)


def test_dense_factor_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        dense_factor(sp.csr_matrix((2, 3)))


# ---------------------------------------------------------------- canonical form

def test_as_csr_canonicalizes_duplicates():
    coo = sp.coo_matrix(([1.0, 2.0, 3.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
    A = as_csr(coo)
    require_canonical(A)
    assert A[0, 1] == 3.0


@pytest.mark.parametrize("form", ["csr", "csr_array", "csc", "coo", "dia"])
def test_as_csr_never_shares_memory_with_its_input(form):
    # the CSR inputs hold an unsorted row and a duplicate, so canonicalizing
    # a result that shared their arrays would write into them
    parts = (np.array([3.0, 1.0, 2.0, 4.0, 0.5, 5.0]), np.array([2, 0, 1, 0, 2, 2]),
             np.array([0, 2, 3, 6]))
    M = {"csr": lambda: sp.csr_matrix(parts, shape=(3, 3)),
         "csr_array": lambda: sp.csr_array(parts, shape=(3, 3)),
         "csc": lambda: sp.csc_matrix(parts, shape=(3, 3)),
         "coo": lambda: sp.csr_matrix(parts, shape=(3, 3)).tocoo(),
         "dia": lambda: sp.csr_matrix(parts, shape=(3, 3)).todia()}[form]()
    dense = M.toarray()
    inputs = [getattr(M, k) for k in ("data", "indices", "indptr", "row", "col", "offsets")
              if isinstance(getattr(M, k, None), np.ndarray)]
    before = [a.copy() for a in inputs]
    C = as_csr(M)
    require_canonical(C)
    np.testing.assert_array_equal(C.toarray(), dense)
    assert not any(np.shares_memory(c, a) for c in (C.data, C.indices, C.indptr)
                   for a in inputs)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, before))


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


def reference_require_canonical(A, name="matrix"):
    """``require_canonical`` before the compiled column check: every test in
    numpy, the unsorted-row scan on every matrix."""
    if not sp.issparse(A) or A.format != "csr":
        raise ValueError(f"{name}: expected a CSR matrix, got {type(A)!r}")
    nrows, ncols = A.shape
    indptr, indices = A.indptr, A.indices
    if indptr[0] != 0 or indptr[-1] != len(indices) or len(indptr) != nrows + 1:
        raise ValueError(f"{name}: row offsets are inconsistent with nnz")
    if np.any(np.diff(indptr) < 0):
        raise ValueError(f"{name}: row offsets must be non-decreasing")
    if len(indices) and (indices.min() < 0 or indices.max() >= ncols):
        raise ValueError(f"{name}: column index out of range")
    row_of = np.repeat(np.arange(nrows), np.diff(indptr))
    bad = np.flatnonzero((np.diff(indices) <= 0) & (row_of[1:] == row_of[:-1]))
    if bad.size:
        raise ValueError(f"{name}: row {row_of[bad[0]]} has unsorted or duplicate columns")
    return A


def with_arrays(A, indptr=None, indices=None):
    """A copy of CSR ``A`` with its index arrays replaced as given, past
    scipy's own format checks."""
    B = A.copy()
    if indptr is not None:
        B.indptr = np.asarray(indptr)
    if indices is not None:
        B.indices = np.asarray(indices)
    return B


def broken_matrices():
    A = random_csr(12, 9, 0.4, seed=3)
    assert A.nnz > 20
    rng = np.random.default_rng(4)
    yield "dense", A.toarray()
    yield "csc", A.tocsc()
    yield "short offsets", with_arrays(A, indptr=A.indptr[:-1])
    yield "first offset", with_arrays(A, indptr=A.indptr + 1)
    yield "last offset", with_arrays(A, indptr=np.r_[A.indptr[:-1], A.nnz - 1])
    middle = A.indptr.copy()
    middle[5] = A.nnz + 7
    yield "middle offset above nnz", with_arrays(A, indptr=middle)
    falling = A.indptr.copy()
    falling[4], falling[5] = falling[5], falling[4]
    yield "falling offsets", with_arrays(A, indptr=falling)
    yield "negative column", with_arrays(A, indices=np.r_[-1, A.indices[1:]])
    yield "column past the end", with_arrays(A, indices=np.r_[A.indices[:-1], 9])
    for row in (0, 5, 11):
        lo, hi = A.indptr[row], A.indptr[row + 1]
        assert hi - lo >= 2
        swapped = A.indices.copy()
        swapped[lo], swapped[lo + 1] = swapped[lo + 1], swapped[lo]
        yield f"unsorted row {row}", with_arrays(A, indices=swapped)
        duplicate = A.indices.copy()
        duplicate[lo + 1] = duplicate[lo]
        yield f"duplicate in row {row}", with_arrays(A, indices=duplicate)
    shuffled = A.indices.copy()
    for row in range(12):
        lo, hi = A.indptr[row], A.indptr[row + 1]
        shuffled[lo:hi] = rng.permutation(shuffled[lo:hi])
    yield "shuffled rows", with_arrays(A, indices=shuffled)


@pytest.mark.parametrize("label, A", list(broken_matrices()), ids=lambda v: v
                         if isinstance(v, str) else "")
def test_require_canonical_keeps_every_message(label, A):
    with pytest.raises(ValueError) as want:
        reference_require_canonical(A, "m")
    with pytest.raises(ValueError) as got:
        require_canonical(A, "m")
    assert str(got.value) == str(want.value)


def test_require_canonical_bounds_the_offsets_before_the_kernel_reads(monkeypatch):
    # the compiled check reads indices[indptr[i]:indptr[i + 1]] unchecked: an
    # offset past nnz with the right first and last entries must fail first
    calls = []
    real = blocksolve.sparse._csr_has_canonical_format
    monkeypatch.setattr(blocksolve.sparse, "_csr_has_canonical_format",
                        lambda *args: calls.append(args) or real(*args))
    A = tridiag(6)
    indptr = A.indptr.copy()
    indptr[3] = A.nnz + 100
    with pytest.raises(ValueError, match="m: row offsets must be non-decreasing"):
        require_canonical(with_arrays(A, indptr=indptr), "m")
    with pytest.raises(ValueError, match="m: column index out of range"):
        require_canonical(with_arrays(A, indices=np.r_[A.indices[:-1], 6]), "m")
    assert calls == []
    assert require_canonical(A, "m") is A and len(calls) == 1


@pytest.mark.parametrize("indptr", [[], [0]])
def test_require_canonical_checks_the_offsets_length_before_reading_them(indptr):
    # an empty indptr has no first entry: the length check comes first
    A = with_arrays(sp.csr_matrix(np.eye(3)), indptr=np.array(indptr, dtype=np.int32))
    with pytest.raises(ValueError, match="^m: row offsets are inconsistent with nnz$"):
        require_canonical(A, "m")


@pytest.mark.parametrize("indptr_dtype, indices_dtype",
                         [(np.int32, np.int64), (np.int64, np.int32), (np.int64, np.int64)])
def test_require_canonical_takes_mixed_index_types(indptr_dtype, indices_dtype):
    A = random_csr(30, 30, 0.2, seed=9)
    B = with_arrays(A, indptr=A.indptr.astype(indptr_dtype),
                    indices=A.indices.astype(indices_dtype))
    assert require_canonical(B) is B
    indices = B.indices.copy()
    lo = B.indptr[7]
    indices[lo + 1] = indices[lo]
    with pytest.raises(ValueError, match="matrix: row 7 has unsorted or duplicate columns"):
        require_canonical(with_arrays(B, indices=indices))


def reference_dense_factor(dense):
    """``dense_factor`` through ``scipy.linalg.lu_factor``, as it was."""
    import warnings

    import scipy.linalg
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(dense, check_finite=False)
    pivots = np.abs(np.diag(lu))
    row = int(np.argmin(pivots)) if np.any(pivots == 0.0) else None
    return lu, piv, row


def assert_factors_equal(F, dense):
    lu, piv, row = reference_dense_factor(dense)
    assert row is None
    assert F.dimension == dense.shape[0]
    for got, want in ((F.factors, lu), (F.pivots, piv)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert got.flags.f_contiguous == want.flags.f_contiguous


def test_dense_factor_gives_the_bytes_of_lu_factor():
    rng = np.random.default_rng(21)
    for n in (1, 2, 5, 17, 60, 97):
        dense = rng.standard_normal((n, n))
        before = dense.tobytes()
        assert_factors_equal(dense_factor(dense), dense)
        assert_factors_equal(dense_factor(as_csr(dense)), dense)
        assert dense.tobytes() == before


def test_dense_factor_gives_the_bytes_of_lu_factor_on_case_coarse_operators():
    for r in range(3):
        blocks = build_case(CaseConfig(refinement=r)).system.blocks
        for field in ("phi_s", "phi_l", "p"):
            H = build_hierarchy(blocks[(field, field)], AmgParams())
            assert_factors_equal(H.coarse_solver, H.levels[-1].operator.toarray())


def test_dense_factor_of_an_empty_matrix():
    lu, piv, _ = reference_dense_factor(np.empty((0, 0)))
    for A in (np.empty((0, 0)), sp.csr_matrix((0, 0))):
        F = dense_factor(A)
        assert (F.dimension, F.factors.shape, F.factors.dtype) == (0, lu.shape, lu.dtype)
        assert (F.pivots.shape, F.pivots.dtype) == (piv.shape, piv.dtype)


@pytest.mark.parametrize("zero_row", [0, 3, 6])
def test_dense_factor_names_the_singular_row_as_lu_factor_does(zero_row):
    rng = np.random.default_rng(zero_row)
    dense = rng.standard_normal((7, 7))
    dense[zero_row] = 0.0
    _, _, want = reference_dense_factor(dense)
    assert want is not None
    with pytest.raises(SingularMatrixError) as got:
        dense_factor(as_csr(dense))
    assert got.value.row == want
    assert str(got.value) == (f"singular pivot encountered at row {want}: "
                              "zero pivot after partial pivoting")


def test_setup_cache_copies_its_keys_and_keeps_the_most_recent():
    from blocksolve.sparse import SetupCache
    cache = SetupCache()
    built = []

    def builder(tag):
        def build(array, count):   # a builder gets its key and nothing else
            built.append((tag, array.tolist(), count))
            return (np.array([tag]), (np.arange(3),))
        return build
    key = np.arange(5)
    first = cache.get((key, 2), builder(0))
    assert cache.get((np.arange(5), 2), builder(1)) is first
    assert cache.get((np.arange(5), 3), builder(2)) is not first
    assert cache.get((np.arange(5, dtype=np.int32), 2), builder(3)) is not first
    # the last miss replaced the entry of key
    assert cache.get((np.arange(5), 2), builder(4)) is not first
    changed = cache.get((key, 2), builder(5))
    key[0] = 7   # changed in place after its setup: a miss, never a stale hit
    assert cache.get((key, 2), builder(6)) is not changed
    five = [0, 1, 2, 3, 4]
    assert built == [(0, five, 2), (2, five, 3), (3, five, 2), (4, five, 2),
                     (6, [7, 1, 2, 3, 4], 2)]
    assert not first[0].flags.writeable and not first[1][0].flags.writeable
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0
