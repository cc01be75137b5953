import numpy as np
import pytest
import scipy.sparse as sp

from blocksolve.mmio import MatrixMarketError, load_matrix_market, store_matrix_market
from blocksolve.sparse import as_csr


def reference_store(A, path, comment=None):
    """Per-entry writer, the file the chunked writer must reproduce byte for byte."""
    A = as_csr(A)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        indptr, indices, data = A.indptr, A.indices, A.data
        for i in range(A.shape[0]):
            for k in range(indptr[i], indptr[i + 1]):
                fh.write(f"{i + 1} {indices[k] + 1} {float(data[k])!r}\n")


def roundtrip(A, tmp_path):
    path = tmp_path / "m.mtx"
    store_matrix_market(A, path)
    return load_matrix_market(path)


def test_roundtrip_1x1(tmp_path):
    A = as_csr(np.array([[7.5]]))
    B = roundtrip(A, tmp_path)
    assert B.shape == (1, 1)
    assert B[0, 0] == 7.5


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    A = as_csr(sp.random(20, 17, density=0.3, format="csr", random_state=rng))
    B = roundtrip(A, tmp_path)
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


def test_roundtrip_preserves_explicit_zeros(tmp_path):
    A = sp.csr_matrix((np.array([0.0, 2.0]), np.array([0, 1]), np.array([0, 2, 2])),
                      shape=(2, 2))
    B = roundtrip(A, tmp_path)
    assert B.nnz == 2
    assert B.data[0] == 0.0


def test_store_matches_per_entry_writer(tmp_path):
    # extreme and signed-zero values, explicit zeros and an empty row (row 2)
    values = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.0, -2.5, 0.1, 0.0])
    A = sp.csr_matrix((values, np.array([0, 2, 1, 0, 2, 1, 2]), np.array([0, 3, 4, 4, 7])),
                      shape=(4, 3))
    # and enough rows to span several write chunks
    B = as_csr(sp.random(9000, 40, density=0.01, format="csr",
                         random_state=np.random.default_rng(4)))
    for M, comment in ((A, None), (B, "two\nlines")):
        store_matrix_market(M, tmp_path / "chunked.mtx", comment=comment)
        reference_store(M, tmp_path / "reference.mtx", comment=comment)
        assert (tmp_path / "chunked.mtx").read_bytes() == (tmp_path / "reference.mtx").read_bytes()
    C = load_matrix_market(tmp_path / "chunked.mtx")
    assert C.nnz == B.nnz and C.data.tobytes() == B.data.tobytes()


def test_symmetric_expansion(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 5\n"
        "1 1 2.0\n"
        "2 2 2.0\n"
        "3 3 2.0\n"
        "2 1 -1.0\n"
        "3 2 -1.0\n"
    )
    A = load_matrix_market(path)
    off = A.nnz - 3
    assert off == 4
    assert A[0, 1] == -1.0 and A[1, 0] == -1.0
    assert (A.toarray() == A.toarray().T).all()


def test_spmv_agreement_after_roundtrip(tmp_path):
    rng = np.random.default_rng(123)
    A = as_csr(sp.random(30, 30, density=0.2, format="csr", random_state=rng))
    B = roundtrip(A, tmp_path)
    for seed in range(5):
        x = np.random.default_rng(seed).standard_normal(30)
        assert np.array_equal(A @ x, B @ x)


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%NotMatrixMarket nothing\n1 1 0\n")
    with pytest.raises(MatrixMarketError) as err:
        load_matrix_market(path)
    assert err.value.line == 1


def test_out_of_range_index_reports_line(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment\n"
        "2 2 1\n"
        "3 1 1.0\n"
    )
    with pytest.raises(MatrixMarketError) as err:
        load_matrix_market(path)
    assert err.value.line == 4


def test_duplicate_entry_reports_line(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "1 1 2.0\n"
    )
    with pytest.raises(MatrixMarketError, match="duplicate") as err:
        load_matrix_market(path)
    assert err.value.line == 4


def test_rejects_complex_field(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
    with pytest.raises(MatrixMarketError, match="real only"):
        load_matrix_market(path)


def test_rejects_wrong_entry_count(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
    )
    with pytest.raises(MatrixMarketError, match="declared 2"):
        load_matrix_market(path)
