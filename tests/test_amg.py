import re
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._compressed

import blocksolve.sparse
from blocksolve import amg
from blocksolve.amg import (
    AggregateMap,
    AmgParams,
    CoarseningError,
    aggregate,
    as_preconditioner,
    build_hierarchy,
    filtered_matrix,
    smooth_prolongator,
    strength_graph,
    tentative_prolongator,
    vcycle,
)
from blocksolve.battery import CaseConfig, build_case
from blocksolve.krylov import SolverConfig, gmres
from blocksolve.smoothers import estimate_lambda_max
from blocksolve.sparse import as_csr, triple_product
from test_battery import csr_nbytes, traced_peak
from test_smoothers import add_row_products, reference_chebyshev_apply
from test_sparse import csr_bytes, reference_triple_product


def poisson_1d(n):
    return as_csr(sp.diags(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]))


def poisson_2d(nx):
    I = sp.identity(nx)
    T = sp.diags([-np.ones(nx - 1), 2.0 * np.ones(nx), -np.ones(nx - 1)], [-1, 0, 1])
    A = (sp.kron(I, T) + sp.kron(T, I)).tocsr()
    A.eliminate_zeros()  # kron goes through BSR and stores block zeros
    return as_csr(A)


def two_material_chain(n, c_left=1e-4, c_right=1e6):
    """1D variable-coefficient FV operator with one coefficient interface."""
    coeff = np.where(np.arange(n) < n // 2, c_left, c_right)
    face = 2.0 * coeff[:-1] * coeff[1:] / (coeff[:-1] + coeff[1:])
    A = sp.diags([-face, np.zeros(n), -face], [-1, 0, 1]).tolil()
    for i in range(n):
        A[i, i] = -(A[i, :].sum() - A[i, i])
    A[0, 0] += coeff[0]  # ground one end so the operator is nonsingular
    return as_csr(A)


def test_setup_temporaries_die_early_on_the_r3_voltage_block():
    """The drop rule's per-entry arrays die before the strength graph's
    transpose and union, and the graph dies with aggregation. On the r = 3
    phi_s block the traced peaks are 4.05 (strength_graph) and 4.18
    (build_hierarchy) times the bytes of A; with those arrays alive they
    were 5.46 and 5.95, and the graph alone kept alive gives 5.79. The
    bounds allow 10% over the measured peaks."""
    A = build_case(CaseConfig(refinement=3)).system.blocks[("phi_s", "phi_s")]
    size = csr_nbytes(A)
    assert traced_peak(lambda: strength_graph(A, AmgParams().drop_tolerance)) < 1.1 * 4.05 * size
    assert traced_peak(lambda: build_hierarchy(A)) < 1.1 * 4.18 * size


# ---------------------------------------------------------------- strength

def test_strength_theta_zero_keeps_all_offdiagonals():
    A = poisson_2d(4)
    S = strength_graph(A, 0.0)
    assert np.array_equal(S.indptr, A.indptr)
    assert np.array_equal(S.indices, A.indices)


def test_strength_tridiag_at_paper_theta():
    A = poisson_1d(5)
    S = strength_graph(A, 0.04)  # |-1| > 0.04 * 2
    assert np.array_equal(S.indices, A.indices)


def test_strength_drops_cross_interface_edge():
    n = 8
    A = two_material_chain(n)
    S = strength_graph(A, 0.04)
    mid = n // 2 - 1
    row = S.indices[S.indptr[mid]:S.indptr[mid + 1]]
    assert mid + 1 not in row  # weak interface edge dropped
    assert mid - 1 in row      # intra-material edge kept
    row_hi = S.indices[S.indptr[mid + 2]:S.indptr[mid + 2 + 1]]
    assert mid + 3 in row_hi


def test_strength_diagonal_always_present():
    A = as_csr(np.diag([1.0, 2.0, 3.0]))
    S = strength_graph(A, 0.5)
    assert np.array_equal(S.indices, np.array([0, 1, 2]))


def test_strength_symmetrized_by_union():
    # entry (0,1) strong one-sided only; the union keeps both directions
    A = as_csr(np.array([[1.0, 0.9], [0.0, 1.0]]) + 0.0)
    S = strength_graph(A, 0.5)
    assert S[0, 1] != 0 or (1 in S.indices[S.indptr[0]:S.indptr[1]])
    assert 0 in S.indices[S.indptr[1]:S.indptr[2]]


# ---------------------------------------------------------------- aggregation

def test_aggregate_single_node():
    S = strength_graph(as_csr(np.array([[2.0]])), 0.0)
    agg = aggregate(S)
    assert agg.count == 1 and agg.assignments[0] == 0


def test_aggregate_six_node_path_walkthrough():
    # pass 1 roots at 0 and 3; node 5 joins {2,3,4} in pass 2
    S = strength_graph(poisson_1d(6), 0.0)
    agg = aggregate(S)
    assert np.array_equal(agg.assignments, np.array([0, 0, 1, 1, 1, 1]))
    assert agg.count == 2


def test_aggregate_isolated_node_is_singleton():
    A = sp.block_diag([poisson_1d(3).toarray(), [[5.0]]], format="csr")
    S = strength_graph(as_csr(A), 0.0)
    agg = aggregate(S)
    assert agg.assignments[3] not in agg.assignments[:3]


def test_aggregate_every_node_assigned_once():
    S = strength_graph(poisson_2d(7), 0.0)
    agg = aggregate(S)
    assert np.all(agg.assignments >= 0)
    assert agg.count == agg.assignments.max() + 1
    assert np.all(np.bincount(agg.assignments) >= 1)


def reference_aggregate(S):
    """Row-by-row greedy aggregation, the loop the list-based pass 1 and the
    vectorized passes 2 and 3 must reproduce bit for bit. Also returns the
    pass-1 owners, so a test can see which rows pass 2 decides."""
    n = S.shape[0]
    indptr, indices, data = S.indptr, S.indices, S.data
    owner = np.full(n, -1, dtype=np.int64)
    count = 0

    for i in range(n):
        if owner[i] != -1:
            continue
        nbrs = indices[indptr[i]:indptr[i + 1]]
        nbrs = nbrs[nbrs != i]
        if np.all(owner[nbrs] == -1):
            owner[i] = count
            owner[nbrs] = count
            count += 1

    # pass 2 decides against the pass-1 snapshot so joins do not chain
    snapshot = owner.copy()
    for i in range(n):
        if owner[i] != -1:
            continue
        lo, hi = indptr[i], indptr[i + 1]
        best_id = -1
        best_strength = -np.inf
        for p in range(lo, hi):
            j = indices[p]
            if j == i or snapshot[j] == -1:
                continue
            s = data[p]
            if s > best_strength or (s == best_strength and snapshot[j] < best_id):
                best_strength = s
                best_id = snapshot[j]
        if best_id != -1:
            owner[i] = best_id

    for i in range(n):
        if owner[i] == -1:
            owner[i] = count
            count += 1

    return AggregateMap(assignments=owner, count=count), snapshot


def random_strength_graph(seed):
    """Symmetric random pattern whose strengths take three values, so pass 2
    meets ties; odd seeds store no diagonal, which strength_graph always does."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 120))
    upper = sp.triu(sp.random(n, n, density=3.0 / n, random_state=rng), k=1).tocoo()
    strength = np.round(upper.data * 2.0 + 0.5) / 2.0   # 0.5, 1.0 or 1.5
    i, j = upper.row, upper.col
    diag = np.arange(n) if seed % 2 == 0 else np.arange(0)
    S = sp.csr_matrix(
        (np.concatenate([strength, strength, np.zeros(diag.size)]),
         (np.concatenate([i, j, diag]), np.concatenate([j, i, diag]))),
        shape=(n, n))
    S.sort_indices()
    return S


def pass2_ties(S, snapshot):
    """(rows whose strongest candidates lie in two or more aggregates, rows
    whose strongest candidates include two in one aggregate)."""
    across = within = 0
    for i in np.flatnonzero(snapshot == -1):
        cols = S.indices[S.indptr[i]:S.indptr[i + 1]]
        vals = S.data[S.indptr[i]:S.indptr[i + 1]]
        cand = (cols != i) & (snapshot[cols] != -1)
        if not cand.any():
            continue
        ids = snapshot[cols[cand]][vals[cand] == vals[cand].max()]
        distinct = len(set(ids.tolist()))
        across += distinct > 1
        within += distinct < ids.size
    return across, within


def assert_matches_reference(S):
    expected, snapshot = reference_aggregate(S)
    agg = aggregate(S)
    assert agg.assignments.tobytes() == expected.assignments.tobytes()
    assert agg.count == expected.count
    return snapshot


def test_aggregate_matches_loop_reference(monkeypatch):
    graphs = []

    def recording(S, real=amg.aggregate):
        graphs.append(S)
        return real(S)

    monkeypatch.setattr(amg, "aggregate", recording)
    for r in range(4):
        blocks = build_case(CaseConfig(refinement=r)).system.blocks
        for field in ("phi_s", "phi_l", "p"):
            build_hierarchy(blocks[(field, field)], AmgParams())
    monkeypatch.undo()
    assert len(graphs) >= 3 * 4
    for S in graphs:
        assert_matches_reference(S)

    ties = np.zeros(2, dtype=int)
    for seed in range(40):
        S = random_strength_graph(seed)
        ties += pass2_ties(S, assert_matches_reference(S))
    assert ties.min() > 0   # both tie-breaks of pass 2 are reached

    # rows 4 and 5 are isolated, one storing its diagonal and one empty
    isolated = sp.block_diag([strength_graph(poisson_1d(4), 0.0), sp.csr_matrix((1, 1)),
                              sp.identity(1, format="csr") * 0.0], format="csr")
    assert np.diff(isolated.indptr)[4:].tolist() == [0, 1]
    assert_matches_reference(isolated)
    assert aggregate(isolated).assignments[4:].tolist() == [2, 3]
    singletons = sp.identity(7, format="csr") * 0.0
    assert_matches_reference(singletons)
    assert aggregate(singletons).assignments.tolist() == list(range(7))
    # rows 2 and 3 reach only row 1's aggregate, through strengths that
    # never win, and are left to pass 3
    unjoinable = sp.csr_matrix(np.array([[0.0, 1.0, 0.0, 0.0],
                                         [1.0, 0.0, np.nan, -np.inf],
                                         [0.0, np.nan, 0.0, 1.0],
                                         [0.0, -np.inf, 1.0, 0.0]]))
    assert_matches_reference(unjoinable)
    assert aggregate(unjoinable).assignments.tolist() == [0, 0, 1, 2]


def r3_strength_graphs(monkeypatch):
    """Every strength graph the r = 3 phi_s, phi_l and p hierarchies build."""
    graphs = []

    def recording(S, real=amg.aggregate):
        graphs.append(S)
        return real(S)

    monkeypatch.setattr(amg, "aggregate", recording)
    blocks = build_case(CaseConfig(refinement=3)).system.blocks
    for field in ("phi_s", "phi_l", "p"):
        build_hierarchy(blocks[(field, field)], AmgParams())
    monkeypatch.undo()
    return graphs


@pytest.mark.parametrize("dtype, typecode", [(np.int32, "i"), (np.int64, "l")])
def test_aggregate_matches_loop_reference_on_either_index_dtype(monkeypatch, dtype, typecode):
    # pass 1 reads the offsets and columns through memoryviews, whose item
    # type follows the index dtype; set directly, the arrays keep it
    graphs = r3_strength_graphs(monkeypatch)
    assert len(graphs) >= 3
    for S in graphs:
        copy = S.copy()
        copy.indptr, copy.indices = S.indptr.astype(dtype), S.indices.astype(dtype)
        assert memoryview(copy.indices).format == memoryview(copy.indptr).format == typecode
        assert_matches_reference(copy)


def test_aggregate_of_the_r3_phi_s_graph_allocates_less_than_the_graph():
    """Pass 1 makes Python ints only for the rows it scans, so the traced
    peak of aggregating the r = 3 phi_s strength graph is 0.88 times the
    graph's bytes; converting rows to lists 1,024 at a time peaked at 1.84.
    The bound allows 10% over the measured peak."""
    A = build_case(CaseConfig(refinement=3)).system.blocks[("phi_s", "phi_s")]
    S = strength_graph(A, AmgParams().drop_tolerance)
    assert traced_peak(lambda: aggregate(S)) < 1.1 * 0.88 * csr_nbytes(S)


# ---------------------------------------------------------------- prolongators

def test_tentative_constant_nullspace_aggregate_of_four():
    agg = aggregate(strength_graph(poisson_1d(4), 1e9))  # all singletons
    agg.assignments[:] = 0
    agg.count = 1
    P = tentative_prolongator(agg, np.ones(4))
    np.testing.assert_allclose(P.toarray()[:, 0], 0.5 * np.ones(4))


def test_tentative_single_aggregate_normalization():
    n = 9
    agg_assign = np.zeros(n, dtype=np.int64)
    from blocksolve.amg import AggregateMap
    P = tentative_prolongator(AggregateMap(agg_assign, 1), np.ones(n))
    np.testing.assert_allclose(P.toarray()[:, 0], np.ones(n) / 3.0)


def test_tentative_columns_orthonormal():
    S = strength_graph(poisson_2d(6), 0.0)
    agg = aggregate(S)
    rng = np.random.default_rng(0)
    ns = rng.uniform(0.5, 1.5, size=36)
    P = tentative_prolongator(agg, ns)
    G = (P.T @ P).toarray()
    np.testing.assert_allclose(G, np.eye(agg.count), atol=1e-14)


def test_tentative_rejects_zero_nullspace_on_aggregate():
    from blocksolve.amg import AggregateMap
    agg = AggregateMap(np.array([0, 0, 1, 1]), 2)
    ns = np.array([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="aggregate 1"):
        tentative_prolongator(agg, ns)


def test_filtered_matrix_theta_zero_is_identity_transform():
    A = poisson_1d(6)
    Af = filtered_matrix(A, 0.0)
    assert np.array_equal(Af.toarray(), A.toarray())


def test_filtered_matrix_lumps_dropped_magnitudes():
    A = two_material_chain(8)
    theta = 0.04
    Af = filtered_matrix(A, theta)
    dense, fdense = A.toarray(), Af.toarray()
    for i in range(8):
        dropped = 0.0
        for j in range(8):
            if i == j or dense[i, j] == 0.0:
                continue
            if abs(dense[i, j]) <= theta * np.sqrt(abs(dense[i, i]) * abs(dense[j, j])):
                dropped += abs(dense[i, j])
                assert fdense[i, j] == 0.0
        expected_diag = np.sign(dense[i, i]) * (abs(dense[i, i]) + dropped)
        np.testing.assert_allclose(fdense[i, i], expected_diag, rtol=1e-14)


@pytest.mark.parametrize("a", [0.15183035513979368, np.nextafter(0.15183035513979368, 1)])
def test_filter_keeps_exactly_the_strong_entries(a):
    # |a| / sqrt(a_00 a_11) and |a| <= theta * sqrt(a_00 a_11) round apart
    # here: one formula calls (0, 1) strong and the other drops it
    A = as_csr(np.array([[3.9902347752622385, -a], [-a, 3.61076133990776]]))
    S, Af = strength_graph(A, 0.04), filtered_matrix(A, 0.04)
    for i, j in ((0, 1), (1, 0)):
        assert (S[i, j] != 0.0) == (Af[i, j] != 0.0)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf, -1e-300, True, "0.04", None])
def test_drop_rule_takes_what_a_drop_tolerance_takes(theta):
    A = poisson_1d(5)
    got = re.escape(f"want a finite real >= 0, got {theta!r}")
    for setup in (strength_graph, filtered_matrix):
        with pytest.raises(ValueError, match=f"^{setup.__name__}: theta: {got}$"):
            setup(A, theta)
    with pytest.raises(ValueError, match=f"^drop_tolerance: {got}$"):
        AmgParams(drop_tolerance=theta)
    for theta in (0, 0.0, np.float32(0.25), 3):
        assert strength_graph(A, theta).shape == filtered_matrix(A, theta).shape == (5, 5)


def reference_drop_rule(A, theta):
    """The drop rule's arrays as the int64-row formula gave them."""
    diag = A.diagonal()
    absd = np.abs(diag)
    rows = np.repeat(np.arange(A.shape[0], dtype=np.int64), np.diff(A.indptr))
    ratio = np.abs(A.data) / np.sqrt(absd[rows] * absd[A.indices])
    offdiag = rows != A.indices
    return rows, offdiag, diag, ratio, offdiag & ~(ratio > theta)


@pytest.mark.parametrize("values", [np.float64, np.float32, np.int64, np.int32, np.complex128])
@pytest.mark.parametrize("index", [np.int32, np.int64])
def test_drop_rule_gives_the_bytes_of_the_int64_row_formula(values, index):
    # the rows follow the index dtype; the ratios keep the formula's dtype
    # and bits for every value dtype, float64 for all but float32 values
    A = awkward_matrix()
    A = sp.csr_matrix((np.round(A.data * 8).astype(values) if values in (np.int64, np.int32)
                       else A.data.astype(values), A.indices, A.indptr), shape=A.shape)
    A.indptr, A.indices = A.indptr.astype(index), A.indices.astype(index)
    assert not np.any(A.diagonal() == 0)
    for theta in (0.0, 0.04, 0.25):
        (rows, *got), (want_rows, *want) = amg._drop_rule(A, theta, "test"), \
            reference_drop_rule(A, theta)
        assert rows.dtype == index and rows.tobytes() == want_rows.astype(index).tobytes()
        assert got[2].dtype == (np.float32 if values is np.float32 else np.float64)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_smooth_prolongator_dense_oracle_theta_zero():
    A = poisson_1d(4)
    from blocksolve.amg import AggregateMap
    agg = AggregateMap(np.array([0, 0, 1, 1]), 2)
    P_tent = tentative_prolongator(agg, np.ones(4))
    params = AmgParams(drop_tolerance=0.0)
    P, lam, dinv = smooth_prolongator(A, P_tent, params)
    assert dinv.tobytes() == (1.0 / A.diagonal()).tobytes()
    assert lam == estimate_lambda_max(A, dinv, iterations=10, seed=params.seed)
    omega = (4.0 / 3.0) / lam
    expected = (np.eye(4) - omega * np.diag(dinv) @ A.toarray()) @ P_tent.toarray()
    np.testing.assert_allclose(P.toarray(), expected, atol=1e-14)


def test_smooth_prolongator_diagonal_closed_form():
    A = as_csr(np.diag([3.0, 5.0, 7.0, 9.0]))
    from blocksolve.amg import AggregateMap
    agg = AggregateMap(np.array([0, 0, 1, 1]), 2)
    P_tent = tentative_prolongator(agg, np.ones(4))
    P, _, _ = smooth_prolongator(A, P_tent, AmgParams(drop_tolerance=0.0))
    np.testing.assert_allclose(P.toarray(), -P_tent.toarray() / 3.0, rtol=1e-12)


@pytest.mark.parametrize("theta, owner", [(0.0, "smooth_prolongator"),
                                           (0.04, "filtered_matrix")])
def test_smooth_prolongator_rejects_zero_diagonal(theta, owner):
    # at drop tolerance 0 the level operator itself is scaled by D^-1, so
    # smooth_prolongator checks its diagonal; above 0 the filter does
    A = poisson_1d(4)
    A[2, 2] = 0.0  # a stored zero: the pattern is unchanged
    from blocksolve.amg import AggregateMap
    P_tent = tentative_prolongator(AggregateMap(np.array([0, 0, 1, 1]), 2), np.ones(4))
    assert A.nnz == 10
    with pytest.raises(ValueError, match=f"^{owner}: zero diagonal entry$"):
        smooth_prolongator(A, P_tent, AmgParams(drop_tolerance=theta))


def test_smooth_prolongator_pattern_growth_bound():
    A = poisson_2d(8)
    S = strength_graph(A, 0.0)
    agg = aggregate(S)
    P_tent = tentative_prolongator(agg, np.ones(64))
    params = AmgParams(drop_tolerance=0.0)
    P, _, _ = smooth_prolongator(A, P_tent, params)
    Af = filtered_matrix(A, params.drop_tolerance)
    nnz_p = np.diff(P.indptr)
    nnz_af = np.diff(Af.indptr)
    assert np.all(nnz_p <= nnz_af)


# ---------------------------------------------------------------- setup in CSR
# the setup functions build canonical CSR directly; these are the forms that
# went through COO and scipy's operators, verbatim, and the oracles every
# setup matrix must match byte for byte

def reference_strength_graph(A, theta):
    n = A.shape[0]
    diag = np.abs(A.diagonal())
    if np.any(diag == 0.0):
        raise ValueError("strength_graph: zero diagonal entry")
    indptr, indices, data = A.indptr, A.indices, A.data
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    cols = indices.astype(np.int64)
    scale = np.sqrt(diag[rows] * diag[cols])
    ratio = np.abs(data) / scale
    keep = (rows != cols) & (ratio > theta)
    ri, ci, rv = rows[keep], cols[keep], ratio[keep]
    # union-symmetrize; duplicate (i,j)/(j,i) strengths accumulate
    i_all = np.concatenate([ri, ci, np.arange(n, dtype=np.int64)])
    j_all = np.concatenate([ci, ri, np.arange(n, dtype=np.int64)])
    v_all = np.concatenate([rv, rv, np.zeros(n)])
    S = sp.coo_matrix((v_all, (i_all, j_all)), shape=(n, n)).tocsr()
    S.sum_duplicates()
    S.sort_indices()
    return S


def reference_tentative_prolongator(agg, nullspace):
    nullspace = np.asarray(nullspace, dtype=np.float64)
    n = nullspace.shape[0]
    if n != agg.assignments.shape[0]:
        raise ValueError("tentative_prolongator: nullspace length != node count")
    norms_sq = np.bincount(agg.assignments, weights=nullspace**2, minlength=agg.count)
    if np.any(norms_sq == 0.0):
        bad = int(np.flatnonzero(norms_sq == 0.0)[0])
        raise ValueError(
            f"tentative_prolongator: nullspace vanishes on aggregate {bad}"
        )
    norms = np.sqrt(norms_sq)
    P = sp.csr_matrix(
        (nullspace / norms[agg.assignments], (np.arange(n), agg.assignments)),
        shape=(n, agg.count),
    )
    P.sort_indices()
    return P


def reference_filtered_matrix(A, theta):
    n = A.shape[0]
    diag = A.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("filtered_matrix: zero diagonal entry")
    indptr, indices, data = A.indptr, A.indices, A.data
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    cols = indices.astype(np.int64)
    absd = np.abs(diag)
    offdiag = rows != cols
    weak = offdiag & (np.abs(data) <= theta * np.sqrt(absd[rows] * absd[cols]))
    dropped = np.bincount(rows[weak], weights=np.abs(data[weak]), minlength=n)
    compensated = np.sign(diag) * (absd + dropped)

    keep = ~weak & offdiag
    i_all = np.concatenate([rows[keep], np.arange(n, dtype=np.int64)])
    j_all = np.concatenate([cols[keep], np.arange(n, dtype=np.int64)])
    v_all = np.concatenate([data[keep], compensated])
    Af = sp.coo_matrix((v_all, (i_all, j_all)), shape=(n, n)).tocsr()
    Af.sum_duplicates()
    Af.sort_indices()
    return Af


def reference_smooth_prolongator(A, P_tent, params):
    Af = reference_filtered_matrix(A, params.drop_tolerance)
    dinv = 1.0 / Af.diagonal()
    lam = estimate_lambda_max(Af, dinv, seed=params.seed)
    if lam <= 0.0:
        raise CoarseningError(f"nonpositive spectral estimate {lam} for the filtered operator")
    omega = amg.PROLONGATOR_DAMPING / lam
    P = (P_tent - sp.diags(omega * dinv) @ (Af @ P_tent)).tocsr()
    P.sum_duplicates()
    P.sort_indices()
    return P, lam, dinv


REFERENCE_SETUP = {
    "strength_graph": reference_strength_graph,
    "tentative_prolongator": reference_tentative_prolongator,
    "filtered_matrix": reference_filtered_matrix,
    "smooth_prolongator": reference_smooth_prolongator,
    "triple_product": reference_triple_product,
}


def setup_bytes(result):
    """The bytes of a setup matrix, or of a (prolongator, lambda, inverse
    diagonal) triple."""
    if isinstance(result, tuple):
        return csr_bytes(result[0]), np.float64(result[1]).tobytes(), result[2].tobytes()
    return csr_bytes(result)


def hierarchy_bytes(H):
    """Every stored array and scalar of a hierarchy: each level's operator,
    P, R and smoother, and the coarse LU factors."""
    out = []
    for lvl in H.levels:
        out.append([None if M is None else csr_bytes(M)
                    for M in (lvl.operator, lvl.prolongator, lvl.restrictor)])
        S = lvl.smoother
        if S is not None:
            out.append((S.degree, np.float64(S.lambda_max_estimate).tobytes(),
                        S.inverse_diagonal.tobytes(), np.array(S.coefficients).tobytes()))
    c = H.coarse_solver
    out.append((c.dimension, c.factors.tobytes(), c.pivots.tobytes()))
    return out


def reference_hierarchy(monkeypatch, A, params):
    """The hierarchy the reference setup functions build. Every setup call
    also runs the library's function on the same arguments and requires its
    output to match the reference byte for byte."""
    def checked(name):
        new, reference = getattr(amg, name), REFERENCE_SETUP[name]

        def call(*args):
            expected = reference(*args)
            assert setup_bytes(new(*args)) == setup_bytes(expected), name
            return expected
        return call

    with monkeypatch.context() as m:
        for name in REFERENCE_SETUP:
            m.setattr(amg, name, checked(name))
        return build_hierarchy(A, params)


def awkward_matrix(nx=12):
    """A nonsymmetric 2D operator built to reach every branch of the setup:
    one-sided strong entries, stored off-diagonal zeros, negative diagonals
    and a row that stores only its diagonal."""
    A = poisson_2d(nx).tocoo()
    n = nx * nx
    rows, cols, vals = A.row, A.col, A.data.copy()
    vals[(rows < cols) & (rows % 3 == 0)] *= 1e-3   # weak above, strong below
    vals[(rows != cols) & (rows % 7 == 1)] = 0.0     # stored zeros in place
    vals[rows % 5 == 0] *= -1.0                      # negative diagonals
    extra = np.arange(0, n - 5, 4)
    rows = np.concatenate([rows, extra])
    cols = np.concatenate([cols, extra + 5])
    vals = np.concatenate([vals, np.zeros(extra.size)])  # zeros outside A's pattern
    lone = (rows != 7) | (cols == 7)
    A = sp.coo_matrix((vals[lone], (rows[lone], cols[lone])), shape=(n, n))
    return as_csr(A)


def test_awkward_matrix_has_what_it_promises():
    A = awkward_matrix()
    dense = A.toarray()
    offdiag = ~np.eye(A.shape[0], dtype=bool)
    stored = A.copy()
    stored.data[:] = 1.0
    assert np.any((stored.toarray() == 1.0) & (dense == 0.0) & offdiag)
    d = np.abs(np.diag(dense))
    assert np.any(np.diag(dense) < 0.0) and np.any(np.diag(dense) > 0.0)
    assert A.indptr[8] - A.indptr[7] == 1 and dense[7, 7] != 0.0
    strong = (np.abs(dense) > 0.04 * np.sqrt(np.outer(d, d))) & offdiag
    assert np.any(strong & ~strong.T)


@pytest.mark.parametrize("theta", [0.0, 0.04, 0.25])
def test_setup_functions_match_reference_on_awkward_matrix(theta):
    A = awkward_matrix()
    params = AmgParams(drop_tolerance=theta)
    S = strength_graph(A, theta)
    assert csr_bytes(S) == csr_bytes(reference_strength_graph(A, theta))
    assert csr_bytes(filtered_matrix(A, theta)) == csr_bytes(reference_filtered_matrix(A, theta))
    agg = aggregate(S)
    rng = np.random.default_rng(3)
    for nullspace in (np.ones(A.shape[0]), rng.uniform(-1.0, 1.0, A.shape[0])):
        P_tent = tentative_prolongator(agg, nullspace)
        assert csr_bytes(P_tent) == csr_bytes(reference_tentative_prolongator(agg, nullspace))
        assert (setup_bytes(smooth_prolongator(A, P_tent, params))
                == setup_bytes(reference_smooth_prolongator(A, P_tent, params)))
        P, _, _ = smooth_prolongator(A, P_tent, params)
        R = P.T.tocsr()
        assert csr_bytes(triple_product(R, A, P)) == csr_bytes(reference_triple_product(R, A, P))


@pytest.mark.parametrize("theta", [0.0, 0.04, 0.25])
def test_hierarchy_matches_reference_on_awkward_matrix(monkeypatch, theta):
    A = awkward_matrix()
    params = AmgParams(drop_tolerance=theta, max_coarse_size=8)
    H = build_hierarchy(A, params)
    assert H.depth >= 3
    assert hierarchy_bytes(H) == hierarchy_bytes(reference_hierarchy(monkeypatch, A, params))


@pytest.mark.parametrize("theta", [0.0, 0.04])
def test_int64_indexed_products_pick_one_index_dtype(theta):
    # scipy sizes the index dtype of a product of int64-indexed matrices by
    # scanning np.empty buffers whose unused tails hold whatever freed memory
    # held; large stale values there made P and R A P int64 on some calls
    A = awkward_matrix()
    A64 = A.copy()
    A64.indptr, A64.indices = A.indptr.astype(np.int64), A.indices.astype(np.int64)
    params = AmgParams(drop_tolerance=theta)
    P_tent = tentative_prolongator(aggregate(strength_graph(A, theta)), np.ones(A.shape[0]))
    P, _, _ = smooth_prolongator(A, P_tent, params)
    expected = [csr_bytes(P), csr_bytes(triple_product(P.T.tocsr(), A, P))]
    assert P.indices.dtype == np.int32
    for k in range(40):
        stale = [np.full(512 * (k % 7 + 1), 2**40) for _ in range(3)]
        del stale
        P64, _, _ = smooth_prolongator(A64, P_tent, params)
        C64 = triple_product(P64.T.tocsr(), A64, P64)
        assert [csr_bytes(P64), csr_bytes(C64)] == expected, k


def test_coarse_smoothers_take_the_prolongator_inverse_diagonal(monkeypatch):
    # below level 0 the drop tolerance is 0, so the smoother reuses the
    # inverse diagonal smooth_prolongator computed: 1 / diag(A), bit for bit
    made = []
    real = amg.smooth_prolongator

    def keep(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(amg, "smooth_prolongator", keep)
    H = build_hierarchy(awkward_matrix(), AmgParams(max_coarse_size=8))
    assert H.depth >= 3 and len(made) == H.depth - 1
    for lvl, (_, lam, dinv) in list(zip(H.levels, made))[1:]:
        assert lvl.smoother.inverse_diagonal is dinv
        assert lvl.smoother.lambda_max_estimate == lam
        assert dinv.tobytes() == (1.0 / lvl.operator.diagonal()).tobytes()


def test_hierarchy_matches_reference_on_case_blocks(monkeypatch):
    cases = [(r, f) for r in range(4) for f in ("phi_s", "phi_l", "p")]
    cases += [(5, f) for f in ("phi_s", "phi_l")]
    for r, field in cases:
        A = build_case(CaseConfig(refinement=r)).system.blocks[(field, field)]
        H = build_hierarchy(A, AmgParams())
        assert H.depth >= 2
        assert hierarchy_bytes(H) == hierarchy_bytes(
            reference_hierarchy(monkeypatch, A, AmgParams())), (r, field)


def test_coarse_nullspace_is_the_transposed_product(monkeypatch):
    # each level's tentative prolongator gets P_tent^T nullspace of the level
    # above, bit for bit as scipy's transposed product computes it
    made = []
    real = amg.tentative_prolongator

    def keep(agg, nullspace):
        made.append((real(agg, nullspace), nullspace))
        return made[-1][0]

    monkeypatch.setattr(amg, "tentative_prolongator", keep)
    for r, field in ((2, "phi_l"), (3, "phi_s")):
        made.clear()
        build_hierarchy(build_case(CaseConfig(refinement=r)).system.blocks[(field, field)],
                        AmgParams())
        assert len(made) >= 2
        for (P_tent, nullspace), (_, coarse) in zip(made, made[1:]):
            assert coarse.tobytes() == (P_tent.T @ nullspace).tobytes()


def test_one_symbolic_pass_per_product(monkeypatch):
    # A_f P_tent, R A and (R A) P: three symbolic passes per coarsening level,
    # counted also where scipy's own products look the kernel up
    calls = [0]
    real = blocksolve.sparse._csr_matmat_maxnnz

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(blocksolve.sparse, "_csr_matmat_maxnnz", counted)
    monkeypatch.setattr(scipy.sparse._compressed, "csr_matmat_maxnnz", counted)
    for r in range(3):
        blocks = build_case(CaseConfig(refinement=r)).system.blocks
        for field in ("phi_s", "phi_l", "p"):
            calls[0] = 0
            H = build_hierarchy(blocks[(field, field)], AmgParams())
            assert H.depth >= 2 and calls[0] == 3 * (H.depth - 1), (r, field)


def unsorted_csr():
    A = poisson_1d(5)
    A.indices[[0, 1]] = A.indices[[1, 0]]
    A.data[[0, 1]] = A.data[[1, 0]]
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def duplicate_csr():
    A = poisson_1d(5)
    return sp.csr_matrix((np.append(A.data, 1.0), np.append(A.indices, 4),
                          np.append(A.indptr[:-1], A.nnz + 1)), shape=A.shape)


@pytest.mark.parametrize("make", [lambda: poisson_1d(5).tocsc(), lambda: poisson_1d(5).tocoo(),
                                  unsorted_csr, duplicate_csr],
                         ids=["csc", "coo", "unsorted", "duplicate"])
def test_hierarchy_requires_canonical_csr_before_any_setup(monkeypatch, make):
    # CSC arrays read as CSR filter and lump the transpose
    A = make()
    calls = []
    monkeypatch.setattr(amg, "strength_graph", lambda *args: calls.append(args))
    monkeypatch.setattr(amg, "require_finite", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^build_hierarchy: "):
        build_hierarchy(A, AmgParams(max_coarse_size=2))
    assert calls == []


# ---------------------------------------------------------------- hierarchy

def test_hierarchy_single_level_is_direct_solve():
    A = poisson_1d(10)
    H = build_hierarchy(A, AmgParams(max_coarse_size=16))
    assert H.depth == 1
    b = A @ np.linspace(1, 2, 10)
    x = vcycle(H, b)
    np.testing.assert_allclose(x, np.linspace(1, 2, 10), rtol=1e-10)


def test_hierarchy_1d_poisson_coarsening_fixture():
    H = build_hierarchy(poisson_1d(1024),
                        AmgParams(drop_tolerance=0.0, max_coarse_size=16))
    # locked from the first deterministic build; path aggregation coarsens ~3x
    assert H.summary()["dims"] == [1024, 342, 114, 38, 13]


def test_hierarchy_galerkin_consistency():
    A = poisson_2d(12)
    H = build_hierarchy(A, AmgParams(max_coarse_size=16))
    for fine, coarse in zip(H.levels[:-1], H.levels[1:]):
        recomputed = triple_product(fine.restrictor, fine.operator, fine.prolongator)
        diff = (recomputed - coarse.operator).toarray()
        scale = max(1.0, np.abs(coarse.operator.toarray()).max())
        assert np.abs(diff).max() <= 1e-12 * scale


def test_hierarchy_nullspace_preservation():
    A = poisson_2d(8)
    S = strength_graph(A, 0.0)
    agg = aggregate(S)
    ns = np.ones(64)
    P_tent = tentative_prolongator(agg, ns)
    c = P_tent.T @ ns  # per-aggregate norms
    np.testing.assert_allclose(P_tent @ c, ns, atol=1e-12)


def test_hierarchy_stagnation_truncates_when_small():
    A = as_csr(np.diag(np.linspace(1.0, 2.0, 40)))
    H = build_hierarchy(A, AmgParams(max_coarse_size=16, drop_tolerance=0.0))
    b = A @ np.ones(40)
    np.testing.assert_allclose(vcycle(H, b), np.ones(40), rtol=1e-10)


def test_hierarchy_stagnation_failure_when_large():
    A = as_csr(np.diag(np.linspace(1.0, 2.0, 200)))
    with pytest.raises(CoarseningError, match="stagnated"):
        build_hierarchy(A, AmgParams(max_coarse_size=16, drop_tolerance=0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hierarchy_rejects_nonfinite_entry(bad):
    # without the check, a NaN in the r = 1 liquid-voltage block builds a
    # three-level hierarchy with a NaN coarse factor and no error
    A = build_case(CaseConfig(refinement=1)).system.blocks[("phi_l", "phi_l")].copy()
    p = A.indptr[40] + 1
    A.data[p] = bad
    with pytest.raises(ValueError, match=rf"build_hierarchy: non-finite entry "
                                         rf".* at \(40, {A.indices[p]}\)"):
        build_hierarchy(A, AmgParams())


def test_amg_params_bound_the_smoother_degree():
    assert AmgParams(smoother_degree=8).smoother_degree == 8
    with pytest.raises(ValueError, match="smoother_degree: want an integer >= 1 and <= 8, got 9"):
        AmgParams(smoother_degree=9)


# ---------------------------------------------------------------- v-cycle

def test_vcycle_fixed_point():
    A = poisson_2d(10)
    H = build_hierarchy(A, AmgParams(max_coarse_size=16))
    x_exact = np.sin(np.arange(100) * 0.1)
    b = A @ x_exact
    x = vcycle(H, b, x_exact.copy())
    np.testing.assert_allclose(x, x_exact, atol=1e-12)


def test_vcycle_linear_in_residual():
    A = poisson_2d(8)
    H = build_hierarchy(A, AmgParams(max_coarse_size=16))
    rng = np.random.default_rng(4)
    r1, r2 = rng.standard_normal(64), rng.standard_normal(64)
    z1 = vcycle(H, r1)
    z2 = vcycle(H, r2)
    z12 = vcycle(H, 2.0 * r1 + 3.0 * r2)
    np.testing.assert_allclose(z12, 2.0 * z1 + 3.0 * z2, atol=1e-10)


def reference_vcycle(H, b, x=None, level=0):
    """The V-cycle as loops over Python floats around the reference
    smoother, in the rounding order ``vcycle`` must match bit for bit: the
    residual s = A x - b starts at -b_i and adds a_ij x_j in row order, is
    restricted and negated, and the correction adds p_ij e_j into x_i in row
    order."""
    lvl = H.levels[level]
    b = np.asarray(b, dtype=np.float64)
    if x is None:
        x = np.zeros(b.shape[0])
    if lvl.prolongator is None:
        return H.coarse_solver.solve(b)
    A = lvl.operator
    x = reference_chebyshev_apply(lvl.smoother, A, b, x)
    s = add_row_products(A, x, [-bi for bi in b.tolist()])
    rc = -(lvl.restrictor @ np.array(s))
    ec = reference_vcycle(H, rc, None, level + 1)
    x = np.array(add_row_products(lvl.prolongator, ec, x.tolist()))
    return reference_chebyshev_apply(lvl.smoother, A, b, x)


@pytest.mark.parametrize("degree", [2, 4])
def test_vcycle_bit_identical_to_reference_on_every_level(degree):
    rng = np.random.default_rng(10 + degree)
    for r in range(3):
        blocks = build_case(CaseConfig(refinement=r)).system.blocks
        for field in ("phi_s", "phi_l", "p"):
            H = build_hierarchy(blocks[(field, field)], AmgParams(smoother_degree=degree))
            assert H.depth >= 2
            for level in range(H.depth):
                n = H.levels[level].operator.shape[0]
                b, x0 = rng.standard_normal(n), rng.standard_normal(n)
                for guess in (None, x0):
                    got = vcycle(H, b, guess, level)
                    assert got.tobytes() == reference_vcycle(H, b, guess, level).tobytes()


def test_vcycle_writes_neither_b_nor_x():
    H = build_hierarchy(poisson_2d(10), AmgParams(max_coarse_size=16))
    rng = np.random.default_rng(8)
    b, x = rng.standard_normal(100), rng.standard_normal(100)
    b_bytes, x_bytes = b.tobytes(), x.tobytes()
    vcycle(H, b)
    vcycle(H, b, x)
    assert b.tobytes() == b_bytes and x.tobytes() == x_bytes


def test_vcycle_smooths_through_module_globals(monkeypatch):
    # the benchmark's tracer counts smoother applies and V-cycles by
    # patching these two names, so the V-cycle must look them up each call
    H = build_hierarchy(poisson_2d(16), AmgParams(max_coarse_size=16))
    assert H.depth >= 3
    smooths, cycles = [], []
    real_smooth, real_cycle = amg.chebyshev_apply, amg.vcycle

    def smooth(S, A, b, x=None):
        smooths.append(x is None)
        return real_smooth(S, A, b, x)

    def cycle(*args):
        cycles.append(args[3] if len(args) > 3 else 0)
        return real_cycle(*args)

    monkeypatch.setattr(amg, "chebyshev_apply", smooth)
    monkeypatch.setattr(amg, "vcycle", cycle)
    amg.vcycle(H, np.ones(256))
    # pre-smoothing from the zero guess on the way down, post-smoothing from
    # the corrected iterate on the way up
    assert smooths == [True] * (H.depth - 1) + [False] * (H.depth - 1)
    assert cycles == list(range(H.depth))


@pytest.mark.parametrize("nx,max_iters", [(32, 15), (64, 15)])
def test_vcycle_preconditioned_gmres_h_independent(nx, max_iters):
    A = poisson_2d(nx)
    H = build_hierarchy(A, AmgParams(max_coarse_size=64))
    b = A @ np.ones(A.shape[0])
    x, stats = gmres(A, b, preconditioner=as_preconditioner(H),
                     config=SolverConfig(restart=30, tol=1e-8, maxiter=100))
    assert stats.converged
    assert stats.iterations <= max_iters
    np.testing.assert_allclose(x, np.ones(A.shape[0]), atol=1e-5)


def test_hierarchy_setup_facts_on_case_blocks():
    # pins the fixed setup internals (level cap, prolongator damping,
    # Chebyshev and power-iteration defaults) on the r = 1 diagonal blocks
    blocks = build_case(CaseConfig(refinement=1)).system.blocks
    expected = {
        "phi_s": (2, [264, 60], [1213, 478]),
        "phi_l": (3, [264, 109, 13], [1252, 819, 131]),
        "p": (2, [264, 53], [1252, 445]),
    }
    for field, facts in expected.items():
        summary = build_hierarchy(blocks[(field, field)], AmgParams()).summary()
        assert (summary["levels"], summary["dims"], summary["nnz"]) == facts


def test_hierarchy_setup_facts_at_refinement_3():
    # the headline scale: pins the aggregates through their coarse sizes
    blocks = build_case(CaseConfig(refinement=3)).system.blocks
    expected = {
        "phi_s": (4, [4224, 760, 79, 7], [20697, 6904, 901, 43]),
        "phi_l": (4, [4224, 735, 80, 8], [20848, 6505, 842, 56]),
        "p": (4, [4224, 735, 80, 8], [20848, 6505, 850, 56]),
    }
    for field, facts in expected.items():
        summary = build_hierarchy(blocks[(field, field)], AmgParams()).summary()
        assert (summary["levels"], summary["dims"], summary["nnz"]) == facts


def test_concurrent_builds_of_different_sizes_give_the_bytes_of_lone_builds():
    # the start-vector cache is shared by every build; its vectors are
    # read-only, and each build reads only the sizes it asks for
    import sys
    import threading
    from blocksolve import smoothers
    blocks = [build_case(CaseConfig(refinement=r)).system.blocks for r in (0, 1, 2)]
    jobs = [(blocks[1][("phi_s", "phi_s")], AmgParams()),
            (blocks[2][("p", "p")], AmgParams(smoother_degree=4, seed=3)),
            (blocks[0][("phi_l", "phi_l")], AmgParams(seed=3)),
            (blocks[1][("p", "p")], AmgParams(drop_tolerance=0.0))]
    smoothers._start_vector.cache_clear()
    alone = [hierarchy_bytes(build_hierarchy(A, params)) for A, params in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            smoothers._start_vector.cache_clear()
            start = threading.Barrier(len(jobs), timeout=60)
            got = [None] * len(jobs)

            def build(i):
                start.wait()
                got[i] = [hierarchy_bytes(build_hierarchy(*jobs[i])) for _ in range(2)]
            threads = [threading.Thread(target=build, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert got == [[want] * 2 for want in alone]
    finally:
        sys.setswitchinterval(interval)


def test_levels_bind_their_kernels_once():
    H = build_hierarchy(poisson_2d(12), AmgParams(max_coarse_size=16))
    assert H.depth >= 3
    for lvl in H.levels[:-1]:
        add_a, restrict, add_p = lvl.kernels
        # the restriction's as_apply holds R's bound kernel in its closure
        [add_r] = [c.cell_contents for c in restrict.__closure__
                   if isinstance(c.cell_contents, partial)]
        assert [add.args[2] is M.indptr and add.args[4] is M.data for add, M in
                zip((add_a, add_r, add_p),
                    (lvl.operator, lvl.restrictor, lvl.prolongator))] == [True] * 3
    assert H.levels[-1].kernels == ()


@pytest.mark.parametrize("fine", [200, 40])
def test_vcycle_names_itself_the_level_and_both_shapes(fine):
    # a 200-row operator coarsens over several levels; a 40-row one is the
    # coarsest level itself, solved by the dense factors
    A = poisson_1d(fine)
    H = build_hierarchy(A, AmgParams(max_coarse_size=64))
    assert (H.depth > 2) == (fine == 200)
    n = fine
    for b, x in ((np.ones(n + 3), None), (np.ones((n, 1)), None), (np.ones(n - 1), None),
                 (np.ones(n), np.ones(n + 1)), (np.ones(n), np.ones((n, 1)))):
        want = (rf"vcycle: level 0 has an operator of shape \({n}, {n}\), got b of shape "
                rf"{re.escape(str(b.shape))} and x of shape "
                rf"{re.escape(str(None if x is None else x.shape))} \(want \({n},\)\)")
        with pytest.raises(ValueError, match=want):
            vcycle(H, b, x)
        if x is None:
            with pytest.raises(ValueError, match=want):
                as_preconditioner(H)(b)
    if H.depth > 2:
        m = H.levels[1].operator.shape[0]
        with pytest.raises(ValueError, match=rf"vcycle: level 1 .*got b of shape \({m + 1},\)"):
            vcycle(H, np.ones(m + 1), None, 1)
