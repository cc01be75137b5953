"""CSR matrix utilities: canonical form, the matrix-vector product, the
setup kernels, the Galerkin product, dense factorization, and the cache of
mesh-only setup results; the one module that imports scipy's private
``_sparsetools`` kernels.

Every operator is a scipy CSR matrix in canonical form (sorted, distinct
columns). An input keeps its stored zeros; every setup product drops exact
zeros as scipy's operators do. The solve path applies a float64 CSR matrix
or a ``CsrArrays`` by the ``csr_matvec`` kernel ``A @ x`` ends in, bound once
by ``product_adder`` or ``as_apply``, and anything else by ``A @ x``. The
setup path runs the kernels of ``@``, ``.T.tocsr()``, ``+`` and ``-``
on ``CsrArrays``. ``require_fields`` is the one check of every
config class's fields.
"""

import math
import operator
import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf as _dgetrf
from scipy.linalg.lapack import dgetrs as _dgetrs
from scipy.sparse._sparsetools import csr_has_canonical_format as _csr_has_canonical_format
from scipy.sparse._sparsetools import csr_matmat as _csr_matmat
from scipy.sparse._sparsetools import csr_matmat_maxnnz as _csr_matmat_maxnnz
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
from scipy.sparse._sparsetools import csr_minus_csr as _csr_minus_csr
from scipy.sparse._sparsetools import csr_plus_csr as _csr_plus_csr
from scipy.sparse._sparsetools import csr_tocsc as _csr_tocsc

_INT32_MAX = np.iinfo(np.int32).max
# what require_fields calls each field kind, and the types it takes
_KINDS = {int: ("an integer", (int, np.integer)),
          float: ("a finite real", (int, float, np.integer, np.floating)),
          bool: ("a bool", (bool, np.bool_))}
_CONTAINERS = {list: Sequence, dict: Mapping}
_BOUNDS = {"least": (operator.ge, ">="), "above": (operator.gt, ">"),
           "most": (operator.le, "<="), "below": (operator.lt, "<")}


class SingularMatrixError(RuntimeError):
    """A factorization hit an exactly (or numerically) singular pivot."""

    def __init__(self, row, detail=""):
        self.row = int(row)
        msg = f"singular pivot encountered at row {row}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


def as_csr(A):
    """Convert ``A`` (dense array, any scipy sparse format) to canonical CSR.

    Duplicate entries are summed; explicit zeros are retained.
    """
    if sp.issparse(A):
        # another format converts into a new matrix; a CSR input is copied
        # so the in-place canonicalization below leaves the caller's arrays
        M = A.tocsr(copy=True)
    else:
        M = sp.csr_matrix(np.asarray(A, dtype=np.float64))
    M.sum_duplicates()
    M.sort_indices()
    if M.data.dtype != np.float64:
        M = M.astype(np.float64)
    return M


def require_in_place_substitution(kernel):
    """Raise RuntimeError unless ``kernel(n, n, indptr, indices, data, x, y)``
    adds row i's products to y[i] in row order, reading x after the rows
    before i are written when x is y: ``smoothers.ilu0_apply`` relies on that
    to run a forward substitution in one call. Checked on a 3-row chain."""
    x = np.ones(3)
    kernel(3, 3, np.array([0, 0, 1, 2]), np.array([0, 1]), np.ones(2), x, x)
    if x.tolist() != [1.0, 2.0, 3.0]:
        raise RuntimeError(
            "blocksolve.sparse: scipy's csr_matvec kernel no longer substitutes "
            f"in place (a 3-row chain gave {x.tolist()}, want [1.0, 2.0, 3.0]); "
            "ilu0_apply would return wrong results")


require_in_place_substitution(_csr_matvec)


def _bound_kernel(A):
    """scipy's ``csr_matvec`` bound to the shape and arrays of a float64 CSR
    matrix or a ``CsrArrays``; None for anything else."""
    if isinstance(A, (CsrArrays, sp.csr_matrix, sp.csr_array)) and A.data.dtype == np.float64:
        return partial(_csr_matvec, *A.shape, A.indptr, A.indices, A.data)
    return None


def product_adder(A):
    """``add(x, y)``: y += A @ x in place, unchecked. For a float64 CSR
    matrix or a ``CsrArrays`` it is scipy's ``csr_matvec`` kernel on A's
    arrays, which adds row i's products to the stored y[i] in row order;
    for anything else, such as a duck-typed operator, ``y += A @ x``. The
    kernel trusts the lengths and reads entries it has written when x and y
    share memory, so callers check their vectors first."""
    return _bound_kernel(A) or partial(_add_product, A)


def _add_product(A, x, y):
    y += A @ x


def as_apply(obj, what="operator"):
    """Coerce matrices, LinearOperators, or callables into an apply function.
    A matrix applies as ``A @ x``, bit for bit: zeros plus its bound kernel,
    unchecked, where it has one (pass only checked vectors), else ``A @ x``."""
    if obj is None:
        return lambda v: v
    add = _bound_kernel(obj)
    if add is not None:
        rows = obj.shape[0]

        def apply(v):
            y = np.zeros(rows)
            add(v, y)
            return y
        return apply
    if sp.issparse(obj) or isinstance(obj, np.ndarray):
        return partial(operator.matmul, obj)
    if hasattr(obj, "matvec"):
        return obj.matvec
    if callable(obj):
        return obj
    raise TypeError(f"cannot interpret {what} of type {type(obj)!r}")


def ranges(starts, counts):
    """Concatenation of ``arange(s, s + c)`` over the pairs (s, c)."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


def _index_dtype(*sizes):
    return np.int32 if max(sizes) <= _INT32_MAX else np.int64


class CsrArrays(NamedTuple):
    """The shape and arrays of a float64 CSR matrix, without a matrix
    object: what the setup kernels below take and return. Any float64 CSR
    matrix can stand in for one. The arrays hold exactly the stored
    entries, and a row's columns need not be sorted."""

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def matrix(self, cls=sp.csr_matrix):
        """The matrix of class ``cls`` on these arrays, as scipy builds a
        kernel's result."""
        return cls((self.data, self.indices, self.indptr), shape=self.shape)


def _index_arrays(dtype, *mats):
    """Each matrix's (indptr, indices) as ``dtype``: a kernel takes one
    index type."""
    return [np.asarray(a, dtype=dtype) for M in mats for a in (M.indptr, M.indices)]


def csr_product(A, B):
    """A @ B by the kernels scipy's ``@`` ends in, in one symbolic pass
    (``csr_matmat_maxnnz``) and the numeric one (``csr_matmat``), which
    drops entries that sum to exactly zero and leaves each row's columns in
    its own order, unsorted. Returns the product as ``CsrArrays``, index
    arrays int32 when every dimension and entry count involved fits, else
    int64. The kernels trust their arguments, so mismatched shapes raise
    ValueError first."""
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"csr_product: incompatible shapes {A.shape} x {B.shape}")
    m, n = A.shape[0], B.shape[1]
    dtype = _index_dtype(*A.shape, *B.shape, A.indices.size, B.indices.size)
    Ap, Aj, Bp, Bj = _index_arrays(dtype, A, B)
    full = _csr_matmat_maxnnz(m, n, Ap, Aj, Bp, Bj)
    if full > _INT32_MAX:
        dtype = np.int64
        Ap, Aj, Bp, Bj = _index_arrays(dtype, A, B)
    indptr, indices, data = np.empty(m + 1, dtype), np.empty(full, dtype), np.empty(full)
    _csr_matmat(m, n, Ap, Aj, A.data, Bp, Bj, B.data, indptr, indices, data)
    nnz = indptr[-1]
    return CsrArrays((m, n), indptr, indices[:nnz], data[:nnz])


def csr_transpose(A):
    """A^T as ``CsrArrays`` by the ``csr_tocsc`` kernel that
    ``A.T.tocsr()`` ends in; each row's columns come out ascending."""
    m, n = A.shape
    nnz = A.indices.size
    dtype = _index_dtype(m, n, nnz)
    Ap, Aj = _index_arrays(dtype, A)
    indptr, indices, data = np.empty(n + 1, dtype), np.empty(nnz, dtype), np.empty(nnz)
    _csr_tocsc(m, n, Ap, Aj, A.data, indptr, indices, data)
    return CsrArrays((n, m), indptr, indices, data)


def _elementwise(kernel, A, B):
    # scipy's binary-operator kernels: the sorted merge when both operands
    # are canonical, else a dense-row scatter in each row's own order;
    # either drops the entries whose result is exactly zero
    if A.shape != B.shape:
        raise ValueError(f"{kernel.__name__}: shapes {A.shape} and {B.shape} differ")
    most = A.indices.size + B.indices.size
    dtype = _index_dtype(*A.shape, most)
    indptr, indices, data = np.empty(A.shape[0] + 1, dtype), np.empty(most, dtype), np.empty(most)
    Ap, Aj, Bp, Bj = _index_arrays(dtype, A, B)
    kernel(*A.shape, Ap, Aj, A.data, Bp, Bj, B.data, indptr, indices, data)
    nnz = indptr[-1]
    return CsrArrays(A.shape, indptr, indices[:nnz], data[:nnz])


def csr_plus(A, B):
    """A + B as ``CsrArrays`` by the ``csr_plus_csr`` kernel that scipy's
    ``+`` ends in; entries that sum to exactly zero are dropped."""
    return _elementwise(_csr_plus_csr, A, B)


def csr_minus(A, B):
    """A - B as ``CsrArrays`` by the ``csr_minus_csr`` kernel that scipy's
    ``-`` ends in; entries that come to exactly zero are dropped."""
    return _elementwise(_csr_minus_csr, A, B)


def require_finite(A, name="matrix"):
    """Raise ValueError naming the (row, col) of the first NaN or infinite
    stored entry of the CSR matrix ``A``."""
    bad = np.flatnonzero(~np.isfinite(A.data))
    if bad.size:
        p = bad[0]
        row = int(np.searchsorted(A.indptr, p, side="right")) - 1
        raise ValueError(f"{name}: non-finite entry {A.data[p]} at ({row}, {A.indices[p]})")


def require_canonical(A, name="matrix"):
    """Validate the CSR canonical-form invariants, raising ValueError on
    breakage. scipy's ``csr_has_canonical_format`` reads each row's columns
    unchecked, so the offsets and the column range are checked first."""
    if not sp.issparse(A) or A.format != "csr":
        raise ValueError(f"{name}: expected a CSR matrix, got {type(A)!r}")
    nrows, ncols = A.shape
    indptr, indices = A.indptr, A.indices
    # the length first: an empty indptr has no first entry to read
    if len(indptr) != nrows + 1 or indptr[0] != 0 or indptr[-1] != len(indices):
        raise ValueError(f"{name}: row offsets are inconsistent with nnz")
    if np.any(np.diff(indptr) < 0):
        raise ValueError(f"{name}: row offsets must be non-decreasing")
    if len(indices) and (indices.min() < 0 or indices.max() >= ncols):
        raise ValueError(f"{name}: column index out of range")
    if _csr_has_canonical_format(nrows, indptr, indices):
        return A
    row_of = np.repeat(np.arange(nrows), np.diff(indptr))
    bad = np.flatnonzero((np.diff(indices) <= 0) & (row_of[1:] == row_of[:-1]))
    raise ValueError(f"{name}: row {row_of[bad[0]]} has unsorted or duplicate columns")


def require_fields(obj):
    """Check each int, float and bool field of the dataclass ``obj``, and each
    entry of a ``list[...]`` or ``dict[str, ...]`` field of them: an int takes
    an integer, a float a finite real and a bool a bool (a bool is no number),
    within the field's metadata bounds "least" (>=), "above" (>), "most" (<=)
    and "below" (<); a list must not be empty. The first bad value raises
    ValueError ``<field>: want ..., got ...``."""
    for f in fields(obj):
        # list[int] and dict[str, float] carry their container and kind
        container = _CONTAINERS.get(getattr(f.type, "__origin__", None))
        kind = f.type.__args__[-1] if container else f.type
        value = getattr(obj, f.name)
        if container and not (isinstance(value, container)
                              and (value or container is Mapping)):
            want = "a dict" if container is Mapping else "a non-empty list"
            raise ValueError(f"{f.name}: want {want}, got {value!r}")
        if kind not in _KINDS:
            continue
        entries = (((f.name, value),) if container is None else
                   ((f"{f.name}[{key!r}]", v) for key, v in
                    (value.items() if container is Mapping else enumerate(value))))
        for label, v in entries:
            require_value(label, v, kind, f.metadata)


def require_value(label, value, kind, bounds):
    """Raise ValueError ``<label>: want ..., got ...`` unless ``value`` is of
    ``kind`` (int, float or bool, as ``require_fields`` reads a field's type)
    within ``bounds``, a field's metadata of "least", "above", "most" and
    "below" limits."""
    text, types = _KINDS[kind]
    ok = ((kind is bool or not isinstance(value, bool)) and isinstance(value, types)
          and (kind is not float or math.isfinite(value)))
    for key, limit in bounds.items():
        ok = ok and _BOUNDS[key][0](value, limit)
    if not ok:
        want = " and ".join(f"{_BOUNDS[key][1]} {limit}" for key, limit in bounds.items())
        raise ValueError(f"{label}: want {text} {want}".rstrip() + f", got {value!r}")


def triple_product(R, A, P):
    """Galerkin product R A P in canonical CSR form: scipy's ``(R @ A) @ P``
    with sorted rows, bit for bit. Like every setup product it drops entries
    that cancel to exactly zero. Operands other than float64 CSR matrices
    are converted with ``as_csr`` first; the result is a ``csr_array`` for
    a ``csr_array`` R, else a ``csr_matrix``. R A keeps each row in the
    product kernel's order: that order sets the rounding of every entry of
    R A P.
    """
    if R.shape[1] != A.shape[0] or A.shape[1] != P.shape[0]:
        raise ValueError(
            f"triple_product: incompatible shapes {R.shape} x {A.shape} x {P.shape}"
        )
    R, A, P = (as_csr(M) if _bound_kernel(M) is None else M for M in (R, A, P))
    C = csr_product(csr_product(R, A), P).matrix(type(R) if sp.issparse(R) else sp.csr_matrix)
    C.sort_indices()
    return C


@dataclass
class DenseFactorization:
    """Pivoted LU factors of a small dense(ified) matrix."""

    dimension: int
    factors: np.ndarray
    pivots: np.ndarray

    def solve(self, b):
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.dimension,):
            raise ValueError(f"dense solve: rhs of shape {b.shape} for dimension "
                             f"{self.dimension} (want ({self.dimension},))")
        # LAPACK getrs, the routine lu_solve calls, without lu_solve's
        # per-call dispatch: the coarsest V-cycle level solves here every cycle;
        # getrs only fails on an illegal argument, which the checks rule out.
        # The wrapper shifts the pivot array it is given to 1-based and back
        # during the call, so each call gets its own copy: with the shared
        # one, concurrent solves swap rows by shifted indices
        return _dgetrs(self.factors, self.pivots.copy(), b)[0]


def dense_factor(A):
    """LU-factor a square operator, a scipy sparse matrix or an array-like,
    with partial pivoting: the bytes of ``scipy.linalg.lu_factor`` by its
    LAPACK ``getrf``, without its dispatch. Raises ValueError naming the
    (row, column) of the first NaN or infinite entry, and
    SingularMatrixError naming the pivot row on exact singularity."""
    shape = np.shape(A)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"dense_factor: matrix is not square {shape}")
    dense = np.asarray(A.toarray() if sp.issparse(A) else A, dtype=np.float64)
    finite = np.isfinite(dense)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"dense_factor: non-finite entry {dense[row, col]} at ({row}, {col})")
    if dense.size == 0:
        lu, piv = np.empty_like(dense), np.arange(0, dtype=np.int32)
    else:
        lu, piv, _ = _dgetrf(dense)  # info > 0, a zero pivot, is checked below
    diag = np.abs(np.diag(lu))
    if np.any(diag == 0.0):
        raise SingularMatrixError(int(np.argmin(diag)), "zero pivot after partial pivoting")
    return DenseFactorization(dimension=shape[0], factors=lu, pivots=piv)


def _freeze(value):
    """Make each array of ``value``, an array or nested tuples of them,
    read-only; returns ``value``."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for v in value:
            _freeze(v)
    return value


def _same(stored, given):
    """Whether a key part matches a stored one: an array of its dtype, shape
    and content, else an equal non-array."""
    if isinstance(stored, np.ndarray):
        return (isinstance(given, np.ndarray) and given.dtype == stored.dtype
                and given.shape == stored.shape and np.array_equal(given, stored))
    return not isinstance(given, np.ndarray) and given == stored


class SetupCache:
    """Lock-guarded memo of the most recent setup result, keyed by the
    content of arrays: what a setup derives from a mesh alone is built once
    and then shared, read-only, by every setup on that mesh.

    ``get(key, build)`` returns the value stored under ``key``, a tuple of
    arrays and plain values, or stores and returns ``build(*key)``, frozen
    read-only: an array or nested tuples of them, built from the key alone.
    The cache holds one entry, that of the last miss, and a read-only copy
    of its key arrays; a key array matches by dtype, shape and content, so
    a changed pattern is a miss and an array changed in place after its
    setup is never a stale hit. ``build`` runs outside the lock.
    """

    def __init__(self):
        self._entry = None  # (key, value) of the last miss
        self._lock = threading.Lock()

    def __len__(self):
        return int(self._entry is not None)

    def clear(self):
        with self._lock:
            self._entry = None

    def get(self, key, build):
        with self._lock:
            entry = self._entry
        if entry is not None and len(entry[0]) == len(key) and all(map(_same, entry[0], key)):
            return entry[1]
        value = _freeze(build(*key))
        stored = tuple(_freeze(np.array(k)) if isinstance(k, np.ndarray) else k
                       for k in key)
        with self._lock:
            self._entry = (stored, value)
        return value
