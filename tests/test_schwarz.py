import numpy as np
import pytest
import scipy.sparse as sp

import blocksolve.schwarz
import blocksolve.smoothers
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


@pytest.mark.parametrize("what, bad", [("count", v) for v in (2.5, True, 0, -1, "2", None)]
                         + [("overlap", v) for v in (1.5, False, -1, "1", None)])
def test_a_count_or_overlap_that_is_no_integer_in_range_is_named(what, bad):
    # 2.5 failed inside the bisection, True gave Partition(count=True), and
    # an overlap of 1.5 failed inside the extension loop
    coords = grid_coords(4)
    function, least = ("partition_nodes", 1) if what == "count" else ("extend_overlap", 0)
    with pytest.raises(ValueError) as err:
        if what == "count":
            partition_nodes(coords, bad)
        else:
            extend_overlap(poisson_2d(4), partition_nodes(coords, 2), bad)
    assert str(err.value) == f"{function}: {what}: want an integer >= {least}, got {bad!r}"


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
    # every node in reverse, nodes listed by several sets: A[idx][:, idx]
    # takes them all
    A = poisson_2d(6)
    A.data[::5] = 0.0
    n = A.shape[0]
    rng = np.random.default_rng(7)
    order = rng.permutation(n)
    lists = [[np.array([3, 0, 7]), np.arange(n)[::-1]],
             [np.array([-1, 5, -n]), np.array([], dtype=np.int64), np.array([9])],
             [rng.choice(n, 20, replace=False) for _ in range(5)],
             [np.array([n - 1], dtype=np.int32), [0, 2, 1]],
             [order[:24], order[12:]], [[4, 0, 35, 5], [5, 3, 6], [6], [3, 4]]]
    for sets in lists:
        assert csr_bytes(stack_blocks(A, sets)) == csr_bytes(reference_stack_blocks(A, sets))
    # rows 3..6 holding no entries, and a csr_array, which keeps int64 index
    # arrays in A[idx] too: its stack has the bytes of an int32 matrix's
    A.data[A.indptr[3]:A.indptr[7]] = 0.0
    A.eliminate_zeros()
    wide = sp.csr_array((A.data, A.indices.astype(np.int64), A.indptr.astype(np.int64)),
                        shape=A.shape)
    assert wide.indices.dtype == wide.indptr.dtype == np.int64
    for sets in lists:
        want = reference_stack_blocks(A, sets)
        sliced = reference_stack_blocks(wide, sets)
        assert all(np.array_equal(a, b) for a, b in zip(
            (sliced.indptr, sliced.indices, sliced.data), (want.indptr, want.indices, want.data)))
        for M in (A, wide):
            assert csr_bytes(stack_blocks(M, sets)) == csr_bytes(want)


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


# ---------------------------------------------------------------- mesh caches

CACHES = (blocksolve.schwarz._PARTITIONS, blocksolve.schwarz._LAYOUTS,
          blocksolve.smoothers._SCHEDULES)


def clear_caches():
    for cache in CACHES:
        cache.clear()


def ras_bytes(M):
    """Everything a RAS record holds, as bytes."""
    return (M.n, [s.indices.tobytes() for s in M.subdomains], array_fields(M.factors),
            M.gather.tobytes(), M.owned.tobytes(), M.targets.tobytes())


def species_case(refinement):
    case = build_case(CaseConfig(nr=6, n_cells=2, refinement=refinement))
    return case.system.blocks[("x", "x")], case.grid.centers


def with_values(A, data):
    """A new matrix on fresh copies of A's pattern, holding ``data``."""
    return sp.csr_matrix((data, A.indices.copy(), A.indptr.copy()), shape=A.shape)


def ras_build(A, coordinates, count, overlap=0):
    part = partition_nodes(coordinates, count)
    sets = extend_overlap(A, part, overlap)
    return (part.owner.tobytes(), csr_bytes(stack_blocks(A, sets)),
            ras_bytes(ras_setup(A, sets, part)))


def count_builds(monkeypatch):
    """Count the calls of each cache's builder."""
    calls = {"partition": 0, "layout": 0, "schedule": 0}
    for module, name, key in ((blocksolve.schwarz, "_bisect", "partition"),
                              (blocksolve.schwarz, "_stack_layout", "layout"),
                              (blocksolve.smoothers, "_ilu0_schedule", "schedule")):
        real = getattr(module, name)

        def counted(*args, real=real, key=key):
            calls[key] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("refinement", [2, 3])
def test_a_rebuild_with_new_values_gives_the_bytes_of_a_fresh_build(monkeypatch, refinement):
    A, coordinates = species_case(refinement)
    rng = np.random.default_rng(31 + refinement)
    calls = count_builds(monkeypatch)
    clear_caches()
    ras_build(A, coordinates, 4)
    for overlap in (0, 1):
        for _ in range(2):
            B = with_values(A, A.data * rng.uniform(0.5, 1.5, A.data.size))
            before = dict(calls)
            hit = ras_build(B, coordinates.copy(), 4, overlap)
            if overlap == 0:
                assert calls == before  # every mesh-only half was a hit
            clear_caches()
            assert hit == ras_build(B, coordinates, 4, overlap)
    # a hit factors through the same blocks as the sliced reference
    sets = extend_overlap(B, partition_nodes(coordinates, 4), 1)
    assert csr_bytes(stack_blocks(B, sets)) == csr_bytes(reference_stack_blocks(B, sets))


def test_a_vanishing_pivot_names_the_same_row_on_a_hit_and_on_a_miss():
    A, coordinates = species_case(2)
    part = partition_nodes(coordinates, 4)
    sets = extend_overlap(A, part, 0)
    node = int(sets[2][5])
    data = A.data.copy()
    data[A.indptr[node]:A.indptr[node + 1]] = 0.0   # the row's pivot is 0
    B = with_values(A, data)
    errors = []
    for fresh in (False, True):
        clear_caches()
        ras_setup(A, sets, part)
        if fresh:
            clear_caches()
        with pytest.raises(SingularMatrixError) as err:
            ras_setup(B, sets, part)
        errors.append((str(err.value), err.value.row))
    assert errors[0] == errors[1] == ("singular pivot encountered at row 5: "
                                      "ILU(0) pivot failure in subdomain 2", 5)


def test_a_changed_pattern_or_moved_coordinates_miss(monkeypatch):
    A, coordinates = species_case(2)
    calls = count_builds(monkeypatch)
    clear_caches()
    ras_build(A, coordinates, 4)
    # drop one off-diagonal entry of row 100
    drop = A.indptr[100] + int(A.indices[A.indptr[100]] == 100)
    keep = np.arange(A.nnz) != drop
    B = sp.csr_matrix((A.data[keep], A.indices[keep],
                       A.indptr - (np.arange(A.shape[0] + 1) > 100)), shape=A.shape)
    assert B.nnz == A.nnz - 1
    moved = coordinates.copy()
    moved[0] = coordinates[-1] + 1.0
    for M, xy, missed in ((B, coordinates, {"layout": 1, "schedule": 1}),
                          (A, moved, {"partition": 1, "layout": 1, "schedule": 1})):
        before = dict(calls)
        got = ras_build(M, xy, 4)
        assert {k: calls[k] - before[k] for k in calls if calls[k] != before[k]} == missed
        clear_caches()
        assert got == ras_build(M, xy, 4)


def test_the_setup_builders_see_only_their_keys(monkeypatch):
    # a builder that could read A's values would keep them in what every
    # later setup on the mesh shares, whatever values it brings
    A, coordinates = species_case(2)
    seen = []
    for module, name in ((blocksolve.schwarz, "_bisect"), (blocksolve.schwarz, "_stack_layout"),
                         (blocksolve.smoothers, "_ilu0_schedule")):
        def recorded(*args, real=getattr(module, name)):
            seen.append(args)
            return real(*args)
        monkeypatch.setattr(module, name, recorded)
    clear_caches()
    ras_preconditioner(A, coordinates, 4)
    args = [arg for call in seen for arg in call]
    assert len(seen) == 3 and args
    assert not any(sp.issparse(arg) for arg in args)
    assert not any(np.shares_memory(np.asarray(arg), A.data) for arg in args)


def test_the_caches_hold_one_mesh_and_read_only_arrays():
    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        return [a for v in value for a in arrays(v)] if isinstance(value, tuple) else []
    clear_caches()
    for n in range(4, 9):
        A = chain(n)
        ras_preconditioner(A, np.column_stack([np.arange(n), np.zeros(n)]), 2)
        for cache in CACHES:
            assert len(cache) == 1
            held = arrays(cache._entry)
            assert held and not any(a.flags.writeable for a in held)
            # the entry is the last mesh's: its key holds A's pattern or
            # the coordinates of its n nodes
            assert any(a.shape[0] in (n, n + 1) for a in arrays(cache._entry[0]))
    with pytest.raises(ValueError, match="read-only"):
        held[0][...] = 0
    # the factors' sweeps are bound to the cached schedule's read-only index
    # arrays; the stack and the partition are the caller's own to change
    F = ras_setup(A, [np.arange(n)], Partition(np.zeros(n, dtype=np.int64), 1)).factors
    bound = [a for sweep in F.sweeps for a in sweep.args[2:4]]
    assert len(bound) == 4 and not any(a.flags.writeable for a in bound)
    assert F.data.flags.writeable
    sets = [np.arange(n // 2), np.arange(n // 2, n)]
    want = csr_bytes(stack_blocks(A, sets))
    S = stack_blocks(A, sets)
    S.indices[:] = 0
    S.indptr[:] = 0
    partition_nodes(np.column_stack([np.arange(n), np.zeros(n)]), 2).owner[:] = 5
    assert csr_bytes(stack_blocks(A, sets)) == want
    assert partition_nodes(np.column_stack([np.arange(n), np.zeros(n)]), 2).owner.tolist() == \
        [0] * (n // 2) + [1] * (n - n // 2)


def test_concurrent_ras_setups_of_different_sizes_give_the_bytes_of_lone_setups():
    # the three caches are shared by every setup, and each holds one mesh,
    # so the threads replace each other's entries while they read them
    import sys
    import threading
    jobs = [species_case(r) for r in (0, 1, 2)]
    jobs += [(chain(12 + k), np.column_stack([np.arange(12.0 + k), np.zeros(12 + k)]))
             for k in range(3)]
    clear_caches()
    alone = [ras_build(A, xy, 4) for A, xy in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            clear_caches()
            start = threading.Barrier(len(jobs), timeout=60)
            got = [None] * len(jobs)

            def build(i):
                start.wait()
                got[i] = [ras_build(*jobs[i], 4) for _ in range(3)]
            threads = [threading.Thread(target=build, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert got == [[want] * 3 for want in alone]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("node", [4, 7, -5])
def test_stack_blocks_names_a_node_out_of_range(node):
    # the node was wrapped modulo n: [[0, 5]] gave the block of nodes 0 and 1
    A = as_csr(np.diag([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(IndexError,
                       match=rf"stack_blocks: subdomain 1 lists node {node}, out of range "
                             r"for 4 nodes"):
        stack_blocks(A, [[0, 1], [2, node]])
    assert csr_bytes(stack_blocks(A, [[0, -1]])) == \
        csr_bytes(reference_stack_blocks(A, [[0, -1]]))
