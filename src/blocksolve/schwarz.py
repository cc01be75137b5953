"""One-level restricted additive Schwarz over virtual subdomains.

Subdomains stand in for processor-local matrix rows: nodes are assigned by
recursive coordinate bisection, optionally extended by structural overlap,
and each subdomain block is factored with ILU(0). The blocks are stacked
into one block-diagonal matrix and factored once, so one ILU(0) apply solves
every subdomain at the same time. On write-back only
owned entries contribute, so the result does not depend on how the
subdomains are ordered.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .smoothers import Ilu0Factors, ilu0_factor, ilu0_apply
from .sparse import SingularMatrixError, csr_rows, require_finite


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
    Raises ValueError naming the first node with a NaN or infinite coordinate.
    """
    coordinates = np.asarray(coordinates, dtype=np.float64)
    n = coordinates.shape[0]
    if count < 1:
        raise ValueError(f"subdomain count must be >= 1, got {count}")
    if count > n:
        raise ValueError(f"subdomain count {count} exceeds node count {n}")
    bad = np.flatnonzero(~np.isfinite(coordinates).reshape(n, -1).all(axis=1))
    if bad.size:
        raise ValueError(f"partition_nodes: non-finite coordinates "
                         f"{coordinates[bad[0]].tolist()} at node {bad[0]}")
    owner = np.empty(n, dtype=np.int64)

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

    recurse(np.arange(n), count, 0)
    return Partition(owner=owner, count=count)


def extend_overlap(A, partition, overlap):
    """Per-subdomain index sets: owned nodes expanded ``overlap`` times by
    structural adjacency in A; returned sorted ascending."""
    if overlap < 0:
        raise ValueError(f"overlap must be >= 0, got {overlap}")
    sets = []
    for i in range(partition.count):
        idx = np.flatnonzero(partition.owner == i)
        for _ in range(overlap):
            sub = A[idx]
            idx = np.union1d(idx, sub.indices)
        sets.append(np.sort(idx))
    return sets


def stack_blocks(A, sets):
    """The block-diagonal stack of the subdomain blocks A_i = R_i A R_i^T of
    the CSR matrix ``A``, in canonical CSR: stacked row k of block i is A's
    row ``sets[i][k]`` restricted to the columns in ``sets[i]``, each column
    renamed to its stacked position, as ``A[idx][:, idx]`` gives for index
    sets in any order. Raises ValueError when a set lists a node twice.

    One gather: ``csr_rows`` copies every stacked row's entries,
    which are then looked up by (block, column) in the sorted keys of all
    (block, node) pairs."""
    n = A.shape[0]
    # a negative index counts from the end, as it does in A[idx]
    nodes = (np.concatenate(sets) % n).astype(A.indices.dtype, copy=False)
    key_dtype = np.int32 if len(sets) * n <= np.iinfo(np.int32).max else np.int64
    block_keys = np.repeat(np.arange(0, len(sets) * n, n, dtype=key_dtype),
                           [len(idx) for idx in sets])
    keys = block_keys + nodes
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    twice = np.flatnonzero(keys[1:] == keys[:-1])
    if twice.size:
        block, node = divmod(int(keys[twice[0]]), n)
        raise ValueError(f"subdomain {block} lists node {node} more than once")
    rows = csr_rows(A, nodes)
    want = np.repeat(block_keys, np.diff(rows.indptr))
    want += rows.indices
    found = np.minimum(np.searchsorted(keys, want), max(keys.size - 1, 0))
    hit = keys[found] == want
    stacked = sp.csr_matrix((rows.data[hit], order[found[hit]],
                             np.concatenate(([0], np.cumsum(hit)))[rows.indptr]),
                            shape=(nodes.size, nodes.size))
    stacked.sort_indices()
    return stacked


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
