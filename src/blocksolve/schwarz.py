"""One-level restricted additive Schwarz over virtual subdomains.

Subdomains stand in for processor-local matrix rows: nodes are assigned by
recursive coordinate bisection, optionally extended by structural overlap,
and each subdomain block is factored with ILU(0) (or exactly, for the
exact-solve variant). On write-back only owned entries contribute, so the
result is independent of the order subdomain solves execute in.
"""

from dataclasses import dataclass

import numpy as np

from .smoothers import Ilu0Factors, ilu0_factor, ilu0_apply
from .sparse import DenseFactorization, SingularMatrixError, dense_factor


@dataclass
class Partition:
    """Node to owning-subdomain assignment."""

    owner: np.ndarray
    count: int


@dataclass
class Subdomain:
    indices: np.ndarray
    owned_mask: np.ndarray
    solver: Ilu0Factors | DenseFactorization


@dataclass
class RasPreconditioner:
    n: int
    subdomains: list[Subdomain]


def partition_nodes(coordinates, count):
    """Recursive coordinate bisection of 2D points into ``count`` subdomains.

    Each bisection splits along the longer bounding-box extent at the size
    median; ties on the median coordinate break toward the lower node index.
    """
    coordinates = np.asarray(coordinates, dtype=np.float64)
    n = coordinates.shape[0]
    if count < 1:
        raise ValueError(f"subdomain count must be >= 1, got {count}")
    if count > n:
        raise ValueError(f"subdomain count {count} exceeds node count {n}")
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


def ras_setup(A, sets, partition, subdomain_solver="ilu0"):
    """Extract and factor each subdomain block A_i = R_i A R_i^T.

    ``subdomain_solver`` selects ILU(0) (the production scheme) or an exact
    pivoted factorization per subdomain, useful for analysis runs.
    """
    n = A.shape[0]
    covered = np.zeros(n, dtype=bool)
    for idx in sets:
        covered[idx] = True
    if not covered.all():
        missing = int(np.flatnonzero(~covered)[0])
        raise ValueError(f"subdomain index sets do not cover node {missing}")

    subdomains = []
    for i, idx in enumerate(sets):
        Ai = A[idx][:, idx].tocsr()
        Ai.sort_indices()
        if subdomain_solver == "ilu0":
            try:
                solver = ilu0_factor(Ai)
            except SingularMatrixError as err:
                raise SingularMatrixError(
                    err.row, f"ILU(0) pivot failure in subdomain {i}"
                ) from err
        elif subdomain_solver == "exact":
            solver = dense_factor(Ai)
        else:
            raise ValueError(f"unknown subdomain solver {subdomain_solver!r}")
        owned_mask = partition.owner[idx] == i
        subdomains.append(Subdomain(indices=idx, owned_mask=owned_mask, solver=solver))
    return RasPreconditioner(n=n, subdomains=subdomains)


def ras_apply(M, r):
    """z = sum_i R_i^T D_i solve_i(R_i r); owned entries are disjoint."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape[0] != M.n:
        raise ValueError(f"ras_apply: length {r.shape[0]} != dimension {M.n}")
    z = np.zeros(M.n)
    for sub in M.subdomains:
        ri = r[sub.indices]
        if isinstance(sub.solver, Ilu0Factors):
            zi = ilu0_apply(sub.solver, ri)
        else:
            zi = sub.solver.solve(ri)
        z[sub.indices[sub.owned_mask]] = zi[sub.owned_mask]
    return z

