"""One-level restricted additive Schwarz over virtual subdomains.

Subdomains stand in for processor-local matrix rows: nodes are assigned by
recursive coordinate bisection, optionally extended by structural overlap,
and each subdomain block is factored with ILU(0). The blocks are stacked
into one block-diagonal matrix and factored once, so one ILU(0) apply solves
every subdomain at the same time. On write-back only
owned entries contribute, so the result does not depend on how the
subdomains are ordered. The partition and the layout of the stack depend
on the mesh alone, and so does the elimination schedule of the stack's
ILU(0): each is built once per mesh and shared, read-only, by every setup
on it, so a setup with new values pays only the gather and the numeric
factorization.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .smoothers import Ilu0Factors, ilu0_factor, ilu0_apply
from .sparse import SetupCache, SingularMatrixError, ranges, require_finite, require_value

_PARTITIONS = SetupCache()
_LAYOUTS = SetupCache()


@dataclass
class Partition:
    """Node to owning-subdomain assignment."""

    owner: np.ndarray
    count: int


@dataclass
class Subdomain:
    indices: np.ndarray


@dataclass
class RasPreconditioner:
    """Setup record (``subdomains``) and the stacked solve: ``factors`` is
    the ILU(0) of the block-diagonal stack of the subdomain blocks,
    ``gather`` maps each stacked row to its node, and the stacked rows
    ``owned`` write back to the nodes ``targets``."""

    n: int
    subdomains: list[Subdomain]
    factors: Ilu0Factors
    gather: np.ndarray
    owned: np.ndarray
    targets: np.ndarray


def partition_nodes(coordinates, count):
    """Recursive coordinate bisection of 2D points into ``count`` subdomains.

    Each bisection splits along the longer bounding-box extent at the size
    median; ties on the median coordinate break toward the lower node index.
    Raises ValueError on a count that is no integer from 1 to the node
    count, and naming the first node with a NaN or infinite coordinate.
    The owners of a set of coordinates are computed once; each call gets
    its own copy.
    """
    coordinates = np.asarray(coordinates, dtype=np.float64)
    n = coordinates.shape[0]
    require_value("partition_nodes: count", count, int, {"least": 1})
    if count > n:
        raise ValueError(f"subdomain count {count} exceeds node count {n}")
    bad = np.flatnonzero(~np.isfinite(coordinates).reshape(n, -1).all(axis=1))
    if bad.size:
        raise ValueError(f"partition_nodes: non-finite coordinates "
                         f"{coordinates[bad[0]].tolist()} at node {bad[0]}")
    owner = _PARTITIONS.get((coordinates, count), _bisect)
    return Partition(owner=owner.copy(), count=count)


def _bisect(coordinates, count):
    owner = np.empty(coordinates.shape[0], dtype=np.int64)

    def recurse(node_ids, parts, next_id):
        if parts == 1:
            owner[node_ids] = next_id
            return next_id + 1
        pts = coordinates[node_ids]
        extents = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(extents))
        order = np.lexsort((node_ids, pts[:, axis]))
        left_parts = parts // 2
        n_left = (len(node_ids) * left_parts) // parts
        left = node_ids[order[:n_left]]
        right = node_ids[order[n_left:]]
        next_id = recurse(left, left_parts, next_id)
        return recurse(right, parts - left_parts, next_id)

    recurse(np.arange(coordinates.shape[0]), count, 0)
    return owner


def extend_overlap(A, partition, overlap):
    """Per-subdomain index sets: owned nodes expanded ``overlap`` times by
    structural adjacency in A; returned sorted ascending."""
    require_value("extend_overlap: overlap", overlap, int, {"least": 0})
    sets = []
    for i in range(partition.count):
        idx = np.flatnonzero(partition.owner == i)
        for _ in range(overlap):
            sub = A[idx]
            idx = np.union1d(idx, sub.indices)
        sets.append(np.sort(idx))
    return sets


class _StackLayout(NamedTuple):
    """The stack's pattern and, per stacked entry, its position in A.data."""

    indptr: np.ndarray
    indices: np.ndarray
    source: np.ndarray


def stack_blocks(A, sets):
    """The block-diagonal stack of the subdomain blocks A_i = R_i A R_i^T of
    the CSR matrix ``A``, in canonical CSR: stacked row k of block i is A's
    row ``sets[i][k]`` restricted to the columns in ``sets[i]``, each column
    renamed to its stacked position, as ``A[idx][:, idx]`` gives for index
    sets in any order; a negative index counts from the end. Raises
    IndexError naming the set and the node when a node is out of range, and
    ValueError when a set lists a node twice.

    The layout (the stack's pattern and where each entry sits in A.data) is
    built once per pattern of A and index sets and kept read-only; each call
    copies it and gathers A's values into it."""
    nodes = np.concatenate(sets)
    lengths = np.array([len(idx) for idx in sets])
    layout = _LAYOUTS.get((A.shape, A.indptr, A.indices, nodes, lengths), _stack_layout)
    data = A.data[layout.source].astype(np.float64, copy=False)
    return sp.csr_matrix((data, layout.indices.copy(), layout.indptr.copy()),
                         shape=(nodes.size, nodes.size))


def _stack_layout(shape, indptr, indices, nodes, lengths):
    """Looks each stacked row's entries up by (block, column) in the sorted
    keys of all (block, node) pairs, and sorts each row by column."""
    n = shape[0]
    outside = np.flatnonzero((nodes >= n) | (nodes < -n))
    if outside.size:
        block = int(np.searchsorted(np.cumsum(lengths), outside[0], side="right"))
        raise IndexError(f"stack_blocks: subdomain {block} lists node {nodes[outside[0]]}, "
                         f"out of range for {n} nodes")
    nodes = (nodes % n).astype(indices.dtype, copy=False)
    key_dtype = np.int32 if lengths.size * n <= np.iinfo(np.int32).max else np.int64
    block_keys = np.repeat(np.arange(0, lengths.size * n, n, dtype=key_dtype), lengths)
    keys = block_keys + nodes
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    twice = np.flatnonzero(keys[1:] == keys[:-1])
    if twice.size:
        block, node = divmod(int(keys[twice[0]]), n)
        raise ValueError(f"subdomain {block} lists node {node} more than once")
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    source = ranges(starts, counts)
    want = np.repeat(block_keys, counts)
    want += indices[source]
    found = np.minimum(np.searchsorted(keys, want), max(keys.size - 1, 0))
    hit = keys[found] == want
    row_ends = np.concatenate(([0], np.cumsum(counts)))
    stacked = sp.csr_matrix((source[hit], order[found[hit]],
                             np.concatenate(([0], np.cumsum(hit)))[row_ends]),
                            shape=(nodes.size, nodes.size))
    stacked.sort_indices()
    return _StackLayout(stacked.indptr, stacked.indices, stacked.data)


def ras_setup(A, sets, partition):
    """Extract each subdomain block A_i = R_i A R_i^T and factor their
    block-diagonal stack (``stack_blocks``) with ILU(0), each block keeping
    its own pivot floor. ``A`` is canonical CSR."""
    require_finite(A, "ras_setup")
    n = A.shape[0]
    covered = np.zeros(n, dtype=bool)
    for idx in sets:
        covered[idx] = True
    if not covered.all():
        missing = int(np.flatnonzero(~covered)[0])
        raise ValueError(f"subdomain index sets do not cover node {missing}")

    subdomains = [Subdomain(indices=idx) for idx in sets]
    stacked = stack_blocks(A, sets)
    offsets = np.concatenate(([0], np.cumsum([len(idx) for idx in sets])))
    try:
        factors = ilu0_factor(stacked, block_offsets=offsets)
    except SingularMatrixError as err:
        i = int(np.searchsorted(offsets, err.row, side="right")) - 1
        raise SingularMatrixError(
            err.row - offsets[i], f"ILU(0) pivot failure in subdomain {i}"
        ) from err
    gather = np.concatenate(sets)
    # a stacked row is owned when its node's owner is the row's subdomain
    block = np.repeat(np.arange(len(sets)), np.diff(offsets))
    owned = np.flatnonzero(partition.owner[gather] == block)
    return RasPreconditioner(n=n, subdomains=subdomains, factors=factors,
                             gather=gather, owned=owned, targets=gather[owned])


def ras_apply(M, r):
    """z = sum_i R_i^T D_i solve_i(R_i r); owned entries are disjoint."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (M.n,):
        raise ValueError(f"ras_apply: residual of shape {r.shape} for dimension {M.n}")
    z = np.zeros(M.n)
    z[M.targets] = ilu0_apply(M.factors, r[M.gather])[M.owned]
    return z
