import numpy as np
import pytest
import scipy.sparse as sp

from blocksolve import mmio
from blocksolve.battery import CaseConfig, build_case
from blocksolve.mmio import MatrixMarketError, load_matrix_market, store_matrix_market
from blocksolve.sparse import as_csr

_HEADER = "%%MatrixMarket"


def reference_load(path):
    """Per-line reader, the definition of a valid file that the fast reader
    must match: the same CSR bytes, or the same error on the same line."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError(1, "empty file")

    header = lines[0].split()
    if len(header) != 5 or header[0] != _HEADER:
        raise MatrixMarketError(1, f"malformed header {lines[0].strip()!r}")
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixMarketError(1, f"unsupported object/format {obj!r}/{fmt!r}")
    if field != "real":
        raise MatrixMarketError(1, f"unsupported field {field!r} (real only)")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(1, f"unsupported symmetry {symmetry!r}")

    lineno = 1
    size_line = None
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        size_line = stripped
        break
    if size_line is None:
        raise MatrixMarketError(lineno, "missing size line")
    parts = size_line.split()
    if len(parts) != 3:
        raise MatrixMarketError(lineno, f"malformed size line {size_line!r}")
    try:
        nrows, ncols, nnz = (int(p) for p in parts)
    except ValueError:
        raise MatrixMarketError(lineno, f"non-integer size line {size_line!r}") from None
    if nrows < 0 or ncols < 0 or nnz < 0:
        raise MatrixMarketError(lineno, "negative dimension or entry count")

    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    seen = set()
    count = 0
    start = lineno + 1
    for lineno, raw in enumerate(lines[start - 1:], start=start):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if count >= nnz:
            raise MatrixMarketError(lineno, f"more than the declared {nnz} entries")
        parts = stripped.split()
        if len(parts) != 3:
            raise MatrixMarketError(lineno, f"malformed entry {stripped!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise MatrixMarketError(lineno, f"unparseable entry {stripped!r}") from None
        if not (1 <= i <= nrows) or not (1 <= j <= ncols):
            raise MatrixMarketError(
                lineno, f"index ({i},{j}) outside {nrows}x{ncols}"
            )
        if symmetry == "symmetric" and j > i:
            raise MatrixMarketError(
                lineno, "symmetric entries must lie on or below the diagonal"
            )
        key = (i - 1) * ncols + (j - 1)
        if key in seen:
            raise MatrixMarketError(lineno, f"duplicate entry at ({i},{j})")
        seen.add(key)
        rows[count], cols[count], vals[count] = i - 1, j - 1, v
        count += 1
    if count != nnz:
        raise MatrixMarketError(lineno, f"declared {nnz} entries, found {count}")

    if symmetry == "symmetric":
        if nrows != ncols:
            raise MatrixMarketError(1, "symmetric matrix must be square")
        r0, c0 = rows, cols
        off = r0 != c0
        rows = np.concatenate([r0, c0[off]])
        cols = np.concatenate([c0, r0[off]])
        vals = np.concatenate([vals, vals[off]])

    coo = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    return as_csr(coo)


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


def test_store_round_trips_through_reader(tmp_path):
    # extreme and signed-zero values, explicit zeros and an empty row (row 2)
    values = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.0, -2.5, 0.1, 0.0])
    A = sp.csr_matrix((values, np.array([0, 2, 1, 0, 2, 1, 2]), np.array([0, 3, 4, 4, 7])),
                      shape=(4, 3))
    # thousands of entries, empty rows, and values drawn from a few distinct
    # bit patterns (signed zeros among them) beside values that are all distinct
    rng = np.random.default_rng(4)
    R = sp.random(2730, 40, density=0.25, format="csr", random_state=rng)
    B = as_csr(sp.vstack([R[:1000], sp.csr_matrix((3, 40)), R[1000:]]))
    B.data[::2] = rng.choice([-0.0, 0.0, 1.0, -1.0, 0.1, 1e-300], size=B.data[::2].size)
    assert np.any(np.diff(B.indptr) == 0)
    # a column vector whose values are all distinct
    x = as_csr(rng.standard_normal(16385).reshape(-1, 1))
    assert np.unique(x.data.view(np.int64)).size == x.nnz
    # no entries at all
    E = sp.csr_matrix((5, 3))
    # NaN and both infinities, the largest negative value among them
    F = sp.csr_matrix((np.array([np.nan, np.inf, -np.inf, -1.7976931348623157e308]),
                       np.array([1, 0, 1, 0]), np.array([0, 1, 3, 4])), shape=(3, 2))
    # 64-bit index arrays
    L = as_csr(sp.random(50, 60, density=0.1, format="csr", random_state=rng))
    L.indices, L.indptr = L.indices.astype(np.int64), L.indptr.astype(np.int64)
    assert L.indices.dtype == np.int64 and L.indptr.dtype == np.int64
    # symmetric, so a writer that detects symmetry would keep one triangle
    S = as_csr(sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(4, 4)))
    cases = ((A, None, "a.mtx"), (B, "two\nlines", "b.mtx"), (x, None, "x.mtx"),
             (E, "empty", "e.mtx"), (F, None, "f.mtx"), (L, None, "l.mtx"),
             (S, "symmetric", "s.mtx"), (A, None, "no_extension"))
    for M, comment, name in cases:
        path = tmp_path / name
        store_matrix_market(M, path, comment=comment)
        lines = path.read_text(encoding="ascii").splitlines()
        M = as_csr(M)
        assert lines[0] == "%%MatrixMarket matrix coordinate real general"
        comments = [line[1:].strip() for line in lines[1:] if line.startswith("%")]
        assert [c for c in comments if c] == (comment.splitlines() if comment else [])
        assert lines[len(comments) + 1] == f"{M.shape[0]} {M.shape[1]} {M.nnz}"
        assert len(lines) == len(comments) + 2 + M.nnz
        C = load_matrix_market(path)
        assert C.shape == M.shape and C.nnz == M.nnz
        assert np.array_equal(C.indptr, M.indptr) and np.array_equal(C.indices, M.indices)
        assert C.data.tobytes() == M.data.tobytes()
    # written exactly at the path given, with no suffix added
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(name for *_, name in cases)


def test_store_rejects_non_ascii_comment(tmp_path):
    A = sp.identity(3, format="csr")
    existing = tmp_path / "existing.mtx"
    store_matrix_market(A, existing)
    before = existing.read_bytes()
    fresh = tmp_path / "fresh.mtx"
    for path in (existing, fresh):
        with pytest.raises(ValueError, match="'°' at position 4"):
            store_matrix_market(A, path, comment="600 °C")
    # neither truncated nor created
    assert existing.read_bytes() == before
    assert not fresh.exists()


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


def same_csr(A, B):
    return (A.shape == B.shape
            and A.indptr.tobytes() == B.indptr.tobytes()
            and A.indices.tobytes() == B.indices.tobytes()
            and A.data.tobytes() == B.data.tobytes())


GENERAL = "%%MatrixMarket matrix coordinate real general\n"
SYMMETRIC = "%%MatrixMarket matrix coordinate real symmetric\n"

VALID = {
    "symmetric": SYMMETRIC + "3 3 4\n1 1 4.0\n2 1 -1.0\n3 1 0.5\n3 3 2.0\n",
    "empty": GENERAL + "3 2 0\n",
    "empty_with_blank_lines": GENERAL + "% c\n3 2 0\n\n\n",
    "body_blank_comment_crlf_tab": GENERAL + "% size\r\n2 3 3\r\n\r\n1\t2\t1.5\r\n"
                                   "% inside\r\n  2 3 -2.0  \r\n\t\n2 1 7\r\n",
    "loop_only_tokens": GENERAL + "12 2 3\n1_0 1 1.0\n+1 +2 2_5.5\n12 2 +3\n",
    "special_values": GENERAL + "3 2 5\n1 1 nan\n1 2 -inf\n2 1 5e-324\n2 2 1e400\n3 2 -0.0\n",
}

INVALID = {
    "two_tokens": GENERAL + "2 2 2\n1 1 1.0\n2 2\n",
    "four_tokens": GENERAL + "2 2 2\n1 1 1.0\n2 2 1.0 3\n",
    "float_index": GENERAL + "2 2 1\n1.5 1 1.0\n",
    "fortran_exponent": GENERAL + "2 2 1\n1 1 1d5\n",
    "row_zero": GENERAL + "2 2 2\n1 1 1.0\n0 1 1.0\n",
    "row_past_end": GENERAL + "2 2 2\n1 1 1.0\n3 1 1.0\n",
    "column_past_end": GENERAL + "2 2 2\n1 1 1.0\n2 3 1.0\n",
    "column_zero": GENERAL + "2 2 1\n% c\n1 0 1.0\n",
    "symmetric_upper": SYMMETRIC + "2 2 2\n1 1 1.0\n1 2 1.0\n",
    "duplicate": GENERAL + "2 2 3\n1 1 1.0\n2 1 1.0\n1 1 1.0\n",
    "symmetric_duplicate": SYMMETRIC + "2 2 3\n2 1 1.0\n2 2 1.0\n2 1 1.0\n",
    "too_many": GENERAL + "2 2 1\n1 1 1.0\n2 2 1.0\n",
    "too_many_as_duplicates": GENERAL + "2 2 1\n1 1 1.0\n1 1 2.0\n",
    "too_few": GENERAL + "2 2 3\n1 1 1.0\n2 2 1.0\n\n",
    "none_declared_one_found": GENERAL + "2 2 0\n1 1 1.0\n",
    "empty_body": GENERAL + "2 2 2\n",
}


def case_io_files(tmp_path):
    """Every file of the case_io benchmark at r = 3: the monolithic matrix,
    every block, b and x*."""
    system = build_case(CaseConfig(nr=6, n_cells=2, refinement=3)).system
    x_star = np.random.default_rng(3).standard_normal(system.total_dim)
    items = {"monolithic": system.monolithic(), "rhs": (system.monolithic() @ x_star)[:, None],
             "solution": x_star[:, None]}
    items.update({f"{rf}_{cf}": block for (rf, cf), block in system.blocks.items()})
    for name, M in items.items():
        store_matrix_market(as_csr(M), tmp_path / f"{name}.mtx")
        yield tmp_path / f"{name}.mtx"


def write_cases(tmp_path, cases):
    for name, text in cases.items():
        (tmp_path / f"{name}.mtx").write_bytes(text.encode("ascii"))
        yield tmp_path / f"{name}.mtx"


@pytest.mark.filterwarnings("error")
def test_reader_matches_reference_on_valid_files(tmp_path, monkeypatch):
    line_loop = []
    parse_lines = mmio._parse_entry_lines
    monkeypatch.setattr(mmio, "_parse_entry_lines",
                        lambda *args: line_loop.append(args) or parse_lines(*args))
    written = list(case_io_files(tmp_path))
    assert len(written) == 16
    for path in [*written, *write_cases(tmp_path, VALID)]:
        A, B = load_matrix_market(path), reference_load(path)
        assert same_csr(A, B), path.name
    # the C reader takes every file the writer produces; only the hand-written
    # body with comment lines and the loop-only tokens fall back
    assert len(line_loop) == 2
    S = load_matrix_market(tmp_path / "symmetric.mtx")
    assert S.nnz == 6 and (S.toarray() == S.toarray().T).all()
    assert load_matrix_market(tmp_path / "loop_only_tokens.mtx")[9, 0] == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(INVALID))
def test_reader_rejects_like_reference(tmp_path, name):
    (path,) = write_cases(tmp_path, {name: INVALID[name]})
    with pytest.raises(MatrixMarketError) as expected:
        reference_load(path)
    with pytest.raises(MatrixMarketError) as got:
        load_matrix_market(path)
    assert got.value.line == expected.value.line
    assert str(got.value) == str(expected.value)


def test_duplicate_names_second_occurrence(tmp_path):
    (path,) = write_cases(tmp_path, {"dup": INVALID["duplicate"]})
    with pytest.raises(MatrixMarketError, match=r"duplicate entry at \(1,1\)") as err:
        load_matrix_market(path)
    assert err.value.line == 5


def test_symmetric_not_square_fails_at_size_line(tmp_path):
    path = tmp_path / "rect.mtx"
    # the entry on line 4 is malformed too; the size line is reported first
    path.write_text(SYMMETRIC + "% c\n3 2 1\n1 1\n")
    with pytest.raises(MatrixMarketError, match="symmetric matrix must be square") as err:
        load_matrix_market(path)
    assert err.value.line == 3
