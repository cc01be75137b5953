import numpy as np
import pytest
import scipy.sparse as sp

import blocksolve.schwarz
from blocksolve.battery import CaseConfig, build_case
from blocksolve.blockprec import ras_preconditioner
from blocksolve.krylov import SolverConfig, gmres
from blocksolve.schwarz import (
    Partition,
    extend_overlap,
    partition_nodes,
    ras_apply,
    ras_setup,
    stack_blocks,
)
from blocksolve.smoothers import ilu0_apply, ilu0_factor
from blocksolve.sparse import SingularMatrixError, as_csr
from test_smoothers import array_fields
from test_sparse import csr_bytes


def poisson_2d(nx):
    I = sp.identity(nx)
    T = sp.diags([-np.ones(nx - 1), 2.0 * np.ones(nx), -np.ones(nx - 1)], [-1, 0, 1])
    A = (sp.kron(I, T) + sp.kron(T, I)).tocsr()
    A.eliminate_zeros()
    return as_csr(A)


def grid_coords(nx):
    xs, ys = np.meshgrid(np.arange(nx), np.arange(nx), indexing="ij")
    return np.column_stack([xs.ravel(), ys.ravel()]).astype(float)


def chain(n):
    return as_csr(sp.diags(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]))


# ---------------------------------------------------------------- partitioning

def test_partition_single_subdomain():
    part = partition_nodes(grid_coords(4), 1)
    assert part.count == 1
    assert np.all(part.owner == 0)


def test_partition_collinear_median_split():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    part = partition_nodes(coords, 2)
    assert np.array_equal(part.owner, np.array([0, 0, 1, 1]))


def test_partition_quadrant_oracle():
    nx = 16
    part = partition_nodes(grid_coords(nx), 4)
    owner = part.owner.reshape(nx, nx)
    oracle = np.empty((nx, nx), dtype=int)
    oracle[:8, :8] = owner[0, 0]
    oracle[:8, 8:] = owner[0, -1]
    oracle[8:, :8] = owner[-1, 0]
    oracle[8:, 8:] = owner[-1, -1]
    assert np.array_equal(owner, oracle)
    assert np.array_equal(np.bincount(part.owner), np.full(4, 64))
    assert len({owner[0, 0], owner[0, -1], owner[-1, 0], owner[-1, -1]}) == 4


def test_partition_balanced_odd_count():
    part = partition_nodes(grid_coords(5), 2)  # 25 nodes
    sizes = np.bincount(part.owner)
    assert abs(sizes[0] - sizes[1]) <= 1


def test_partition_rejects_too_many_subdomains():
    with pytest.raises(ValueError, match="exceeds"):
        partition_nodes(grid_coords(2), 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_partition_names_the_first_node_with_a_non_finite_coordinate(bad):
    coords = [[0.0, 0.0], [bad, 1.0], [1.0, 1.0], [2.0, bad]]
    want = rf"^partition_nodes: non-finite coordinates \[{bad}, 1.0\] at node 1$"
    for count in (1, 2):
        with pytest.raises(ValueError, match=want):
            partition_nodes(coords, count)


def test_partition_deterministic():
    coords = grid_coords(8)
    a = partition_nodes(coords, 4).owner
    b = partition_nodes(coords, 4).owner
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- overlap

def test_overlap_zero_returns_owned_sets():
    A = chain(4)
    part = partition_nodes(np.array([[i, 0.0] for i in range(4)], dtype=float), 2)
    sets = extend_overlap(A, part, 0)
    assert [list(s) for s in sets] == [[0, 1], [2, 3]]


def test_overlap_one_on_chain():
    A = chain(4)
    part = partition_nodes(np.array([[i, 0.0] for i in range(4)], dtype=float), 2)
    sets = extend_overlap(A, part, 1)
    assert [list(s) for s in sets] == [[0, 1, 2], [1, 2, 3]]


def test_overlap_two_saturates_chain():
    A = chain(4)
    part = partition_nodes(np.array([[i, 0.0] for i in range(4)], dtype=float), 2)
    sets = extend_overlap(A, part, 2)
    assert [list(s) for s in sets] == [[0, 1, 2, 3], [0, 1, 2, 3]]


def test_overlap_one_quadrant_sizes_fixture():
    nx = 16
    A = poisson_2d(nx)
    part = partition_nodes(grid_coords(nx), 4)
    sets = extend_overlap(A, part, 1)
    # adjacency oracle: an 8x8 corner block gains one 8-cell layer per
    # interior edge, 16 extra nodes
    assert [len(s) for s in sets] == [80, 80, 80, 80]
    for i, s in enumerate(sets):
        owned = np.flatnonzero(part.owner == i)
        neighbors = set()
        for node in owned:
            neighbors.update(A.indices[A.indptr[node]:A.indptr[node + 1]])
        assert set(s) == set(owned) | neighbors


# ---------------------------------------------------------------- RAS

def test_ras_single_domain_is_global_ilu0():
    A = poisson_2d(8)
    n = A.shape[0]
    part = partition_nodes(grid_coords(8), 1)
    sets = extend_overlap(A, part, 0)
    M = ras_setup(A, sets, part)
    F = ilu0_factor(A)
    r = np.random.default_rng(0).standard_normal(n)
    np.testing.assert_allclose(ras_apply(M, r), ilu0_apply(F, r), atol=0)


def test_ras_restriction_consistency():
    A = poisson_2d(8)
    part = partition_nodes(grid_coords(8), 4)
    sets = extend_overlap(A, part, 1)
    dense = A.toarray()
    for idx in sets:
        sub = A[idx][:, idx].toarray()
        assert np.array_equal(sub, dense[np.ix_(idx, idx)])


def test_ras_partition_of_unity():
    A = poisson_2d(8)
    part = partition_nodes(grid_coords(8), 4)
    sets = extend_overlap(A, part, 1)
    M = ras_setup(A, sets, part)
    hits = np.zeros(A.shape[0], dtype=int)
    for i, sub in enumerate(M.subdomains):
        hits[sub.indices[part.owner[sub.indices] == i]] += 1
    assert np.all(hits == 1)


def test_ras_block_diagonal_zero_fill_exact():
    blocks = [chain(5).toarray(), chain(4).toarray()]
    A = as_csr(sp.block_diag(blocks))
    coords = np.array([[i, 0.0] for i in range(9)], dtype=float)
    part = partition_nodes(coords, 2)
    assert np.array_equal(np.bincount(part.owner), [5, 4]) or \
        np.array_equal(np.bincount(part.owner), [4, 5])
    # align the partition with the blocks explicitly
    part.owner[:5] = 0
    part.owner[5:] = 1
    sets = extend_overlap(A, part, 0)
    M = ras_setup(A, sets, part)
    r = np.random.default_rng(1).standard_normal(9)
    expected = np.linalg.solve(A.toarray(), r)  # tridiagonal blocks: no fill
    np.testing.assert_allclose(ras_apply(M, r), expected, rtol=1e-12)


def test_ras_exact_subdomain_solve_single_domain_is_inverse():
    # ILU(0) on a chain has zero fill, so the single subdomain solve is exact
    A = chain(36)
    n = A.shape[0]
    part = partition_nodes(np.zeros((n, 2)), 1)
    sets = extend_overlap(A, part, 0)
    M = ras_setup(A, sets, part)
    r = np.random.default_rng(2).standard_normal(n)
    np.testing.assert_allclose(ras_apply(M, r), np.linalg.solve(A.toarray(), r),
                               rtol=1e-10)
    b = A @ np.ones(n)
    x, stats = gmres(A, b, preconditioner=lambda v: ras_apply(M, v),
                     config=SolverConfig(restart=30, tol=1e-10))
    assert stats.converged and stats.iterations == 1


@pytest.mark.parametrize("overlap", [0, 1])
def test_ras_stacked_apply_matches_per_subdomain_solves(overlap):
    A = poisson_2d(8)
    part = partition_nodes(grid_coords(8), 4)
    sets = extend_overlap(A, part, overlap)
    M = ras_setup(A, sets, part)
    r = np.random.default_rng(4).standard_normal(A.shape[0])
    expected = np.zeros(A.shape[0])
    for i, idx in enumerate(sets):
        owned = part.owner[idx] == i
        expected[idx[owned]] = ilu0_apply(ilu0_factor(A[idx][:, idx]), r[idx])[owned]
    assert ras_apply(M, r).tobytes() == expected.tobytes()


def test_ras_apply_order_independent():
    # the same subdomains, listed in reverse and numbered backwards
    A = poisson_2d(8)
    part = partition_nodes(grid_coords(8), 4)
    sets = extend_overlap(A, part, 1)
    relabeled = Partition(owner=part.count - 1 - part.owner, count=part.count)
    r = np.random.default_rng(3).standard_normal(A.shape[0])
    np.testing.assert_array_equal(ras_apply(ras_setup(A, sets[::-1], relabeled), r),
                                  ras_apply(ras_setup(A, sets, part), r))


@pytest.mark.parametrize("shape", [(64, 1), (63,), (65,)])
def test_ras_apply_rejects_a_residual_of_another_shape(shape):
    A = poisson_2d(8)
    part = partition_nodes(grid_coords(8), 4)
    M = ras_setup(A, extend_overlap(A, part, 1), part)
    with pytest.raises(ValueError) as err:
        ras_apply(M, np.ones(shape))
    assert str(err.value) == f"ras_apply: residual of shape {shape} for dimension 64"


def reference_stack_blocks(A, sets):
    """The stacked subdomain blocks as ras_setup built them by slicing,
    verbatim: the oracle ``stack_blocks`` must match byte for byte."""
    stacked = sp.block_diag([A[idx][:, idx] for idx in sets], format="csr")
    stacked.sort_indices()
    return stacked


def set_lists(sets, partition, seed):
    """(name, sets, partition) for each form of set list ras_setup takes:
    as built, listed in reverse and numbered backwards, each set shuffled,
    and each set as a Python list."""
    rng = np.random.default_rng(seed)
    reverse = Partition(owner=partition.count - 1 - partition.owner, count=partition.count)
    return [("sorted", sets, partition), ("reversed", sets[::-1], reverse),
            ("shuffled", [rng.permutation(idx) for idx in sets], partition),
            ("lists", [idx.tolist() for idx in sets], partition)]


@pytest.mark.parametrize("refinement", [0, 1, 2])
def test_stacked_blocks_and_factors_match_the_sliced_reference(monkeypatch, refinement):
    case = build_case(CaseConfig(nr=6, n_cells=2, refinement=refinement))
    A = case.system.blocks[("x", "x")]
    factored = []
    real = blocksolve.schwarz.ilu0_factor
    monkeypatch.setattr(blocksolve.schwarz, "ilu0_factor",
                        lambda M, **kw: factored.append(M) or real(M, **kw))
    for count in (1, 4, 16):
        part = partition_nodes(case.grid.centers, count)
        for overlap in (0, 1, 2):
            built = extend_overlap(A, part, overlap)
            for name, sets, partition in set_lists(built, part, seed=count + overlap):
                expected = reference_stack_blocks(A, sets)
                assert csr_bytes(stack_blocks(A, sets)) == csr_bytes(expected), name
                F = ras_setup(A, sets, partition).factors
                assert csr_bytes(factored.pop()) == csr_bytes(expected), name
                offsets = np.concatenate(([0], np.cumsum([len(idx) for idx in sets])))
                G = real(expected, block_offsets=offsets)
                assert F.n == G.n and array_fields(F) == array_fields(G), name


def test_stacked_blocks_match_the_sliced_reference_on_any_index_set():
    # stored zeros, negative indices, an empty set, sets of one node and of
    # every node in reverse: A[idx][:, idx] takes them all
    A = poisson_2d(6)
    A.data[::5] = 0.0
    n = A.shape[0]
    rng = np.random.default_rng(7)
    lists = [[np.array([3, 0, 7]), np.arange(n)[::-1]],
             [np.array([-1, 5, -n]), np.array([], dtype=np.int64), np.array([9])],
             [rng.choice(n, 20, replace=False) for _ in range(5)],
             [np.array([n - 1], dtype=np.int32), [0, 2, 1]]]
    for sets in lists:
        assert csr_bytes(stack_blocks(A, sets)) == csr_bytes(reference_stack_blocks(A, sets))


@pytest.mark.parametrize("sets", [[np.array([0, 1, 2, 3]), np.array([2, 3, 2])],
                                  [np.array([0, 1, 2, 3]), np.array([2, -2])]])
def test_ras_setup_rejects_a_node_listed_twice(sets):
    # the sliced block held the node's row and column twice, and its ILU(0)
    # pivot vanished; the stack names the set and the node instead
    A = chain(4)
    part = Partition(owner=np.array([0, 0, 1, 1]), count=2)
    with pytest.raises(ValueError, match="subdomain 1 lists node 2 more than once"):
        ras_setup(A, sets, part)


def aligned_two_block_setup(blocks):
    """RAS over block_diag(blocks), one subdomain per block."""
    A = as_csr(sp.block_diag(blocks))
    sizes = [b.shape[0] for b in blocks]
    part = Partition(owner=np.repeat(np.arange(len(blocks)), sizes), count=len(blocks))
    return A, ras_setup(A, extend_overlap(A, part, 0), part)


def test_ras_pivot_floor_is_per_subdomain():
    # the stacked factor must not take one floor from the larger diagonal:
    # 1e-14 * 2e20 would reject every pivot of the unit-scale block
    blocks = [1e20 * chain(5), chain(4)]
    with pytest.raises(SingularMatrixError):
        ilu0_factor(as_csr(sp.block_diag(blocks)))
    A, M = aligned_two_block_setup(blocks)
    r = np.random.default_rng(5).standard_normal(9)
    np.testing.assert_allclose(ras_apply(M, r), np.linalg.solve(A.toarray(), r),
                               rtol=1e-12)


def test_ras_pivot_failure_names_subdomain_and_local_row():
    with pytest.raises(SingularMatrixError, match="subdomain 1") as err:
        aligned_two_block_setup([chain(3), as_csr(np.ones((2, 2)))])
    assert err.value.row == 1


def test_ras_gmres_iterations_grow_without_coarse_grid():
    nx = 16
    A = poisson_2d(nx)
    coords = grid_coords(nx)
    b = A @ np.ones(nx * nx)
    counts = {}
    for P in (1, 4, 16):
        M = ras_preconditioner(A, coords, P, overlap=0)
        x, stats = gmres(A, b, preconditioner=M,
                         config=SolverConfig(restart=30, tol=1e-8, maxiter=500))
        assert stats.converged
        counts[P] = stats.iterations
    assert counts[1] < counts[4] < counts[16]
    # regression fixtures from the first deterministic build
    assert counts == {1: 17, 4: 22, 16: 27}


def test_ras_setup_names_nonfinite_entry_in_global_numbering():
    A = poisson_2d(8)
    A.data[A.indptr[50] + 2] = np.nan    # entry (50, 50)
    part = partition_nodes(grid_coords(8), 4)
    with pytest.raises(ValueError, match=r"non-finite entry nan at \(50, 50\)"):
        ras_setup(A, extend_overlap(A, part, 0), part)


def test_ras_setup_rejects_uncovered_nodes():
    A = chain(4)
    part = partition_nodes(np.array([[i, 0.0] for i in range(4)], dtype=float), 2)
    with pytest.raises(ValueError, match="cover"):
        ras_setup(A, [np.array([0, 1])], part)
