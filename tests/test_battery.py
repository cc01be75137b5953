import json
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from blocksolve.battery import (
    CaseConfig,
    FARADAY,
    GAS_CONSTANT,
    MATERIALS,
    assemble_advection_operator,
    assemble_coupling_blocks,
    assemble_diffusion_operator,
    assemble_species_block,
    bruggeman_tortuosity,
    build_case,
    build_grid,
    butler_volmer_slope,
    carman_kozeny_permeability,
    darcy_face_velocity,
    melt_mask,
    stack_layers,
)
from blocksolve.sparse import dense_factor
from test_case_bytes import CASES


# ---------------------------------------------------------------- grid

def test_minimal_grid_cell_count_equals_layer_count():
    grid = build_grid(nr=1, refinement_level=0, n_cells=1)
    assert grid.n == len(stack_layers(1)) == 7
    assert grid.nr == 1


def test_refinement_quadruples_cells():
    g0 = build_grid(nr=3, refinement_level=0, n_cells=1)
    g1 = build_grid(nr=3, refinement_level=1, n_cells=1)
    assert g1.n == 4 * g0.n
    assert g1.h == g0.h / 2


def test_reference_stack_topology():
    layers = stack_layers(20)
    assert layers[0] == "heat_pellet" and layers[-1] == "heat_pellet"
    assert layers.count("anode") == 20
    assert layers.count("separator") == 20
    assert layers.count("cathode") == 20
    assert layers.count("collector") == 21
    unit = layers[1:5]
    assert unit == ["collector", "anode", "separator", "cathode"]


def test_outer_columns_are_insulation_and_can():
    grid = build_grid(nr=20, refinement_level=0, n_cells=1)
    names = np.array(grid.material_names()).reshape(grid.nz, grid.nr)
    assert set(names[:, -2:].ravel()) == {"can"}
    assert set(names[:, 16:18].ravel()) == {"insulation"}
    assert "can" not in names[:, :16]


def test_every_cell_labeled_once():
    grid = build_grid(nr=6, refinement_level=1, n_cells=2)
    assert grid.labels.shape == (grid.n,)
    assert np.all((grid.labels >= 0) & (grid.labels < len(MATERIALS)))


# ---------------------------------------------------------------- coefficients

def test_bruggeman():
    assert bruggeman_tortuosity(0.25) == pytest.approx(2.0)


def test_carman_kozeny_direct_formula():
    phi, d = 0.4, 5e-5
    s_v = 6.0 / d
    tau = phi ** -0.5
    expected = phi**3 / (2.0 * s_v**2 * tau**2 * (1 - phi) ** 2)
    assert carman_kozeny_permeability(phi, d) == pytest.approx(expected, rel=1e-14)


def test_melt_mask_limits():
    assert melt_mask(800.0, 625.0, 50.0) < 1e-3
    assert melt_mask(400.0, 625.0, 50.0) > 0.99
    assert melt_mask(625.0, 625.0, 50.0) == pytest.approx(0.5)


def test_butler_volmer_slope_at_zero_overpotential():
    i0, z, T = 10.0, 1.0, 800.0
    expected = i0 * FARADAY * z / (GAS_CONSTANT * T)
    assert butler_volmer_slope(i0, z, 0.0, T) == pytest.approx(expected, rel=1e-14)


def test_butler_volmer_slope_matches_finite_difference():
    i0, z, T, beta = 3.0, 2.0, 700.0, 0.5

    def current(eta):
        a = FARADAY * z / (GAS_CONSTANT * T)
        return i0 * (np.exp(beta * a * eta) - np.exp(-(1 - beta) * a * eta))

    for eta0 in (0.0, 0.05, -0.03):
        h = 1e-7
        fd = (current(eta0 + h) - current(eta0 - h)) / (2 * h)
        g = butler_volmer_slope(i0, z, eta0, T, beta)
        assert g == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------- diffusion operator

def test_interior_five_point_stencil():
    grid = build_grid(nr=5, refinement_level=0, n_cells=1, h0=1.0)
    A = assemble_diffusion_operator(grid, np.ones(grid.n))
    i = grid.index(3, 2)  # interior cell
    row = A[i].toarray().ravel()
    assert row[i] == 4.0
    for j in (grid.index(3, 1), grid.index(3, 3), grid.index(2, 2), grid.index(4, 2)):
        assert row[j] == -1.0
    assert np.count_nonzero(row) == 5


def test_harmonic_mean_face_coefficient():
    grid = build_grid(nr=2, refinement_level=0, n_cells=1)
    coeff = np.ones(grid.n)
    i, j = grid.index(2, 0), grid.index(2, 1)
    coeff[i], coeff[j] = 1e-4, 1e6
    A = assemble_diffusion_operator(grid, coeff)
    expected = -2.0 * 1e-4 * 1e6 / (1e-4 + 1e6)
    assert A[i, j] == pytest.approx(expected, rel=1e-12)
    assert A[i, j] == pytest.approx(-2e-4, rel=1e-3)


def test_pure_neumann_zero_row_sums():
    grid = build_grid(nr=6, refinement_level=0, n_cells=2)
    rng = np.random.default_rng(0)
    coeff = rng.uniform(0.5, 2.0, grid.n)
    A = assemble_diffusion_operator(grid, coeff)
    row_sums = np.asarray(A.sum(axis=1)).ravel()
    row_norms = np.asarray(np.abs(A).sum(axis=1)).ravel()
    assert np.all(np.abs(row_sums) <= 1e-12 * row_norms)


# a one-cell stack and the default case (nr = 6, two cells) at r = 0..5
DIRICHLET_CONFIGS = ([CaseConfig(nr=4, refinement=1, n_cells=1)]
                     + [CaseConfig(refinement=r) for r in range(6)])


@pytest.mark.parametrize("cfg", DIRICHLET_CONFIGS,
                         ids=lambda c: f"nr{c.nr}-cells{c.n_cells}-r{c.refinement}")
def test_dirichlet_rows_are_identity(cfg):
    case = build_case(cfg)
    grid, system = case.grid, case.system
    # grounded: the cell row iz = 2**refinement of the bottom collector
    iz = 2 ** cfg.refinement
    rows = np.array([i for i in grid.cells_of("collector")
                     if grid.index(iz, 0) <= i < grid.index(iz + 1, 0)])
    assert rows.size and rows.size == case.regime["dirichlet_rows"]
    grounded = system.monolithic()[system.offset("phi_s") + rows]
    # one entry per row, a 1 on the diagonal
    assert np.array_equal(np.diff(grounded.indptr), np.ones(rows.size))
    assert np.array_equal(grounded.indices, system.offset("phi_s") + rows)
    assert np.all(grounded.data == 1.0)
    # the coupling blocks hold nothing on the grounded rows
    for col in ("phi_l", "x"):
        assert system.blocks[("phi_s", col)][rows].nnz == 0


def test_rejects_nonpositive_coefficient():
    grid = build_grid(nr=2, refinement_level=0, n_cells=1)
    coeff = np.ones(grid.n)
    coeff[3] = 0.0
    with pytest.raises(ValueError, match="cell 3"):
        assemble_diffusion_operator(grid, coeff)


# ---------------------------------------------------------------- species / advection

def test_zero_velocity_species_block_symmetric():
    grid = build_grid(nr=4, refinement_level=0, n_cells=1)
    zero_v = (np.zeros((grid.nr - 1) * grid.nz), np.zeros(grid.nr * (grid.nz - 1)))
    A_xx, _, _ = assemble_species_block(grid, zero_v, np.ones(grid.n), 1.0,
                                        np.ones(grid.n))
    diff = (A_xx - A_xx.T).toarray()
    assert np.abs(diff).max() <= 1e-14


def test_upwind_row_pattern_hand_oracle():
    grid = build_grid(nr=5, refinement_level=0, n_cells=1, h0=1.0)
    n_radial_faces = (grid.nr - 1) * grid.nz
    n_axial_faces = grid.nr * (grid.nz - 1)
    v = (np.full(n_radial_faces, 2.0), np.zeros(n_axial_faces))  # rightward
    A = assemble_advection_operator(grid, v)
    i = grid.index(3, 2)
    row = A[i].toarray().ravel()
    # hand-assembled upwind row: outflow right face +v*h, inflow carries the
    # left neighbor's (upwind) value
    assert row[i] == pytest.approx(2.0)
    assert row[grid.index(3, 1)] == pytest.approx(-2.0)
    assert row[grid.index(3, 3)] == 0.0


def test_frozen_state_suppresses_advection():
    cfg = CaseConfig(nr=6, refinement=0, n_cells=2, temperature=400.0)
    case = build_case(cfg)
    A_xx = case.system.blocks[("x", "x")]
    zero_v = (np.zeros((case.grid.nr - 1) * case.grid.nz),
              np.zeros(case.grid.nr * (case.grid.nz - 1)))
    porosity = np.array(
        [case.config.materials()[m].porosity for m in case.grid.material_names()])
    diff_only, _, _ = assemble_species_block(
        case.grid, zero_v,
        np.array([case.config.materials()[m].liquid_diffusivity
                  for m in case.grid.material_names()]) * porosity**1.5,
        cfg.dt, porosity * cfg.liquid_saturation)
    advection = (A_xx - diff_only).toarray()
    scale = np.abs(diff_only.toarray()).max()
    assert np.abs(advection).max() <= 1e-12 * scale


def test_darcy_velocity_sign():
    grid = build_grid(nr=5, refinement_level=0, n_cells=1, h0=1.0)
    pressure = grid.centers[:, 0].copy()  # increases with radius
    v_r, v_z = darcy_face_velocity(grid, np.ones(grid.n), pressure, 0.0, 0.0)
    assert np.all(v_r < 0)  # flow against the gradient
    assert np.allclose(v_z, 0.0)


# ---------------------------------------------------------------- couplings

def test_coupling_slope_value():
    grid = build_grid(nr=4, refinement_level=0, n_cells=1)
    config = CaseConfig(exchange_current=5.0, valence=1.0, overpotential=0.0,
                        temperature=800.0)
    slope, _ = assemble_coupling_blocks(grid, config)
    anode = grid.cells_of("anode")
    expected = 5.0 * FARADAY / (GAS_CONSTANT * 800.0) * grid.h**2
    assert slope[anode[0]] == pytest.approx(expected, rel=1e-12)


def test_zero_exchange_current_empty_couplings():
    grid = build_grid(nr=4, refinement_level=0, n_cells=1)
    _, blocks = assemble_coupling_blocks(grid, CaseConfig(exchange_current=0.0))
    assert blocks[("phi_s", "phi_l")].nnz == 0
    assert blocks[("x", "phi_l")].nnz == 0


def test_separator_cells_carry_no_coupling():
    grid = build_grid(nr=4, refinement_level=0, n_cells=2)
    slope, blocks = assemble_coupling_blocks(grid, CaseConfig())
    separator = grid.cells_of("separator")
    assert np.all(slope[separator] == 0.0)
    coo = blocks[("phi_s", "phi_l")].tocoo()
    assert not np.isin(coo.row, separator).any()


# ---------------------------------------------------------------- full case

def test_minimal_case_smoke():
    case = build_case(CaseConfig(nr=2, refinement=0, n_cells=1))
    assert case.system.total_dim == 5 * case.grid.n
    assert case.regime["sigma_contrast"] >= 1e9


def test_monolithic_nonsymmetric_with_velocity():
    case = build_case(CaseConfig(nr=6, refinement=0, n_cells=2))
    A = case.system.monolithic()
    asym = (A - A.T).toarray()
    assert np.abs(asym).max() > 0


def test_dof_scaling_and_field_proportions():
    dofs = []
    for r in (0, 1):
        case = build_case(CaseConfig(nr=6, refinement=r, n_cells=2))
        dofs.append(case.system.total_dim)
        # all five fields share the cell count
        assert all(case.system.dims[f] == case.grid.n for f in case.system.fields)
    assert dofs[1] == 4 * dofs[0]


def test_solid_species_block_diagonal():
    case = build_case(CaseConfig(nr=4, refinement=0, n_cells=1))
    A_s = case.system.blocks[("s", "s")]
    coo = A_s.tocoo()
    assert np.array_equal(coo.row, coo.col)


def test_forbidden_blocks_absent():
    case = build_case(CaseConfig(nr=6, refinement=0, n_cells=2))
    blocks = case.system.blocks
    for pair in [("s", "x"), ("x", "s"), ("s", "p"), ("p", "s"),
                 ("s", "phi_s"), ("phi_s", "s"), ("s", "phi_l"), ("phi_l", "s"),
                 ("phi_s", "p"), ("p", "phi_s"), ("phi_l", "p"), ("p", "phi_l")]:
        assert pair not in blocks


def test_voltage_coupling_confined_to_electrode_rows():
    case = build_case(CaseConfig(nr=6, refinement=0, n_cells=2))
    electrodes = set(case.grid.cells_of("anode")) | set(case.grid.cells_of("cathode"))
    for pair in [("phi_s", "phi_l"), ("phi_l", "phi_s"), ("phi_s", "x"),
                 ("phi_l", "x"), ("x", "phi_s"), ("x", "phi_l")]:
        coo = case.system.blocks[pair].tocoo()
        assert set(coo.row) <= electrodes


def test_conservation_away_from_dirichlet_rows():
    case = build_case(CaseConfig(nr=6, refinement=0, n_cells=2,
                                 exchange_current=0.0))
    A = case.system.blocks[("phi_s", "phi_s")]
    sums = np.asarray(A.sum(axis=1)).ravel()
    norms = np.asarray(np.abs(A).sum(axis=1)).ravel()
    dirichlet = np.flatnonzero(sums == 1.0)
    assert len(dirichlet) == case.regime["dirichlet_rows"]
    free = np.setdiff1d(np.arange(A.shape[0]), dirichlet)
    assert np.all(np.abs(sums[free]) <= 1e-12 * norms[free])


def test_manufactured_closure_dense_solve():
    case = build_case(CaseConfig(nr=6, refinement=0, n_cells=2))
    x = dense_factor(case.system.monolithic()).solve(case.system.rhs_vector())
    err = np.linalg.norm(x - case.solution) / np.linalg.norm(case.solution)
    assert err <= 1e-8


@pytest.mark.parametrize("key", CASES)
def test_blockwise_rhs_is_the_monolithic_product_bit_for_bit(key):
    """build_case adds each row field's blocks in field order into a zero
    vector; every row's sum starts from the stored entry, so it repeats the
    monolithic row's sum. The cases are the pinned ones of test_case_bytes."""
    case = build_case(CASES[key])
    expected = case.system.monolithic() @ case.solution
    assert case.system.rhs_vector().tobytes() == expected.tobytes()


def traced_peak(fn):
    """The traced peak of ``fn()`` in bytes, above what was allocated
    before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def csr_nbytes(A):
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


def test_build_case_allocates_no_monolithic_matrix():
    """At r = 3 the traced peak of build_case stays below its blocks plus
    one monolithic-sized matrix, so the two never coexist: 2.99 MB against
    1.77 + 1.64 MB (MB = 2^20 bytes). Assembling the monolithic matrix for
    the RHS peaked at 5.86 MB."""
    cases = []
    peak = traced_peak(lambda: cases.append(build_case(CaseConfig(refinement=3))))
    system = cases[0].system
    blocks = sum(csr_nbytes(A) for A in system.blocks.values())
    assert peak < blocks + csr_nbytes(system.monolithic())


def test_hierarchies_on_battery_blocks_stay_lean():
    from blocksolve.amg import AmgParams, build_hierarchy
    case = build_case(CaseConfig(nr=6, refinement=2, n_cells=2))
    for key in ("phi_s", "phi_l", "p"):
        A = case.system.blocks[(key, key)]
        H = build_hierarchy(A, AmgParams(drop_tolerance=0.04, max_coarse_size=64))
        assert H.summary()["operator_complexity"] <= 2.5


def test_case_deterministic():
    a = build_case(CaseConfig(nr=4, refinement=0, n_cells=1))
    b = build_case(CaseConfig(nr=4, refinement=0, n_cells=1))
    Ma, Mb = a.system.monolithic(), b.system.monolithic()
    assert np.array_equal(Ma.data, Mb.data)
    assert np.array_equal(a.system.rhs_vector(), b.system.rhs_vector())


def test_config_roundtrip(tmp_path):
    cfg = CaseConfig(nr=4, refinement=1, n_cells=2, overpotential=1.5,
                     material_overrides={"anode": {"sigma": 5e5}})
    path = tmp_path / "case.json"
    path.write_text(json.dumps(asdict(cfg)))
    loaded = CaseConfig(**json.loads(path.read_text()))
    assert loaded == cfg
    assert loaded.materials()["anode"].sigma == 5e5
    case = build_case(loaded)
    assert case.system.total_dim == 5 * case.grid.n


@pytest.mark.parametrize("field, value", [
    ("nr", 0), ("n_cells", 0), ("refinement", -1), ("nr", 2.0), ("refinement", "1"),
])
def test_case_config_checked_on_construction(field, value):
    with pytest.raises(ValueError, match=f"{field}: want an integer"):
        CaseConfig(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("symmetry_factor", 1.5, "symmetry_factor: want a finite real >= 0 and <= 1, got 1.5"),
    ("material_overrides", {"anode": {"porosity": 1.0}},
     "porosity: want a finite real > 0 and < 1, got 1.0"),
    ("material_overrides", {"anode": {"electrode": 1}}, "electrode: want a bool, got 1"),
])
def test_case_config_bounds_checked_on_construction(field, value, message):
    with pytest.raises(ValueError) as err:
        CaseConfig(**{field: value})
    assert str(err.value) == message


@pytest.mark.parametrize("values", [
    {"overpotential": 1000.0},
    {"overpotential": -1000.0},
    {"valence": 1e3},
    {"exchange_current": 0.0, "overpotential": 1e4},  # 0 * inf
])
def test_reaction_slope_overflow_rejected_on_construction(values):
    # every field passes its own bound; together they overflow the exponentials
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="make the Butler-Volmer slope (inf|nan)") as err:
            CaseConfig(nr=4, n_cells=1, **values)
    for name in ("overpotential", "temperature", "valence", "exchange_current",
                 "symmetry_factor"):
        assert f"{name} " in str(err.value)
