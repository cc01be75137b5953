"""Matrix Market coordinate I/O (real field, general or symmetric).

The reader is strict: malformed headers, out-of-range indices, and duplicate
entries are rejected with the offending 1-based line number. Values are
written with shortest round-trip formatting, so store/load is bit-exact.
"""

import numpy as np
import scipy.sparse as sp

from .sparse import as_csr

_HEADER = "%%MatrixMarket"
# rows whose entry lines are formatted and written at a time
_STORE_CHUNK_ROWS = 4096


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content, carrying the offending line number."""

    def __init__(self, line, message):
        self.line = int(line)
        super().__init__(f"line {line}: {message}")


def load_matrix_market(path):
    """Read a coordinate-format .mtx file into a canonical CSR matrix.

    Symmetric-tagged files are expanded to full storage.
    """
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


def store_matrix_market(A, path, comment=None):
    """Write a CSR matrix in coordinate format (real, general), 1-based indices."""
    A = as_csr(A)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_HEADER} matrix coordinate real general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        indptr, indices, data = A.indptr, A.indices, A.data
        for lo in range(0, A.shape[0], _STORE_CHUNK_ROWS):
            hi = min(lo + _STORE_CHUNK_ROWS, A.shape[0])
            span = slice(indptr[lo], indptr[hi])
            rows = np.repeat(np.arange(lo + 1, hi + 1), np.diff(indptr[lo:hi + 1])).tolist()
            cols = (indices[span] + 1).tolist()
            vals = data[span].tolist()
            # repr of a Python float is the shortest exact round-trip form
            fh.write("".join([f"{i} {j} {v!r}\n" for i, j, v in zip(rows, cols, vals)]))
