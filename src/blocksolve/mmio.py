"""Matrix Market coordinate I/O (real field, general or symmetric).

The reader is strict: malformed headers, out-of-range indices, and duplicate
entries are rejected with the offending 1-based line number. Entry lines are
parsed by numpy's C text reader and checked as arrays; when that reader
declines the input or a check fails, a per-line loop, the definition of a
valid entry section, parses it again and names the first bad line. The
writer is scipy's (``scipy.io.mmwrite``), whose values round-trip bit for bit.
"""

import warnings

import numpy as np
import scipy.sparse as sp

from .sparse import as_csr

_HEADER = "%%MatrixMarket"
# one entry line: 1-based row and column, value
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


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
        first = fh.readline()
        if not first:
            raise MatrixMarketError(1, "empty file")

        header = first.split()
        if len(header) != 5 or header[0] != _HEADER:
            raise MatrixMarketError(1, f"malformed header {first.strip()!r}")
        _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
        if obj != "matrix" or fmt != "coordinate":
            raise MatrixMarketError(1, f"unsupported object/format {obj!r}/{fmt!r}")
        if field != "real":
            raise MatrixMarketError(1, f"unsupported field {field!r} (real only)")
        if symmetry not in ("general", "symmetric"):
            raise MatrixMarketError(1, f"unsupported symmetry {symmetry!r}")

        lineno = 1
        size_line = None
        for raw in iter(fh.readline, ""):
            lineno += 1
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
        symmetric = symmetry == "symmetric"
        if symmetric and nrows != ncols:
            raise MatrixMarketError(lineno, "symmetric matrix must be square")

        A = _load_entries(fh, nrows, ncols, nnz, symmetric)
        if A is None:
            # the per-line loop is the definition of a valid entry section;
            # it rereads the file to name the first bad line
            fh.seek(0)
            rows, cols, vals = _parse_entry_lines(
                fh.readlines(), lineno + 1, nrows, ncols, nnz, symmetric)
            A = _to_csr(rows, cols, vals, (nrows, ncols), symmetric)
    return A


def _load_entries(fh, nrows, ncols, nnz, symmetric):
    """Parse the entry section with numpy's C reader into canonical CSR.

    Returns None when the reader declines a line (a ``%`` comment, a token
    such as ``1_0``) or when any entry is invalid, so that the per-line
    loop decides and names the line.
    """
    try:
        with warnings.catch_warnings():
            # an empty entry section warns; the count check rejects it unless nnz is 0
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            entries = np.loadtxt(fh, dtype=_ENTRY, comments=None, ndmin=1)
    except ValueError:
        return None
    i, j = entries["i"], entries["j"]
    if (entries.size != nnz
            or not np.all((1 <= i) & (i <= nrows) & (1 <= j) & (j <= ncols))
            or (symmetric and np.any(j > i))):
        return None
    A = _to_csr(i - 1, j - 1, entries["v"], (nrows, ncols), symmetric)
    # a duplicate entry is summed into one, so it shows as a lost entry
    expected = nnz + (np.count_nonzero(i != j) if symmetric else 0)
    return A if A.nnz == expected else None


def _parse_entry_lines(lines, start, nrows, ncols, nnz, symmetric):
    """Parse, range-check and de-duplicate the entry lines one at a time.

    ``lines`` is the whole file and ``start`` the 1-based number of the line
    after the size line. Raises MatrixMarketError at the first bad line.
    """
    # one entry per line at most: a declared count beyond the file allocates
    # nothing, and the count check below names the last line
    size = min(nnz, len(lines) - start + 1)
    rows = np.empty(size, dtype=np.int64)
    cols = np.empty(size, dtype=np.int64)
    vals = np.empty(size, dtype=np.float64)
    seen = set()
    count = 0
    lineno = start - 1
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
        if symmetric and j > i:
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
    return rows, cols, vals


def _to_csr(rows, cols, vals, shape, symmetric):
    """Canonical CSR of 0-based triplets; a symmetric file's off-diagonal
    entries are mirrored above the diagonal."""
    if symmetric:
        off = rows != cols
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        vals = np.concatenate([vals, vals[off]])
    return as_csr(sp.coo_matrix((vals, (rows, cols)), shape=shape))


def store_matrix_market(A, path, comment=None):
    """Write a CSR matrix in coordinate format (real, general), 1-based indices.

    Raises ValueError, before the file is opened, when ``comment`` holds a
    character outside ASCII.
    """
    if comment and not comment.isascii():
        pos, char = next((k, c) for k, c in enumerate(comment) if not c.isascii())
        raise ValueError(f"comment must be ASCII: {char!r} at position {pos}")
    # imported here so that the solver, which never writes, does not load it
    import scipy.io

    A = as_csr(A)
    # an open file, because scipy appends .mtx to a path that lacks it;
    # "general", because scipy would write only one triangle of a symmetric matrix
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, A, comment=comment or "", symmetry="general")
