"""Synthetic thermal-battery-like coupled block systems.

Builds a layered 2D cell-centered grid (heat pellets sandwiching a repeated
collector/anode/separator/cathode unit, with insulation and can columns at
the outer radius), assembles finite-volume operators for the five coupled
fields, and closes the system with a manufactured solution so every case
carries an exact reference.

Coefficient models: Bruggeman tortuosity tau = phi^-0.5, Carman-Kozeny
permeability with S_v = 6/D, a tanh melt mask that shuts down Darcy
transport below the melt temperature, and an exponential current-voltage
law linearized at a configurable overpotential. Darcy mobilities are
normalized by their maximum (a units choice) so the monolithic system is
numerically balanced while every contrast survives.
"""

import json
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.sparse as sp

from .blockprec import FIELDS, BlockSystem
from .sparse import as_csr

FARADAY = 96485.33212      # C/mol
GAS_CONSTANT = 8.31446     # J/(mol K)

MATERIALS = (
    "heat_pellet",
    "collector",
    "anode",
    "separator",
    "cathode",
    "insulation",
    "can",
)

STACK_UNIT = ("collector", "anode", "separator", "cathode")

# radial fractions: inner stack, insulation ring, outer can
_INSULATION_FRACTION = 0.80
_CAN_FRACTION = 0.90


@dataclass
class Material:
    sigma: float                 # solid electrical conductivity (S/m)
    liquid_conductivity: float   # effective ionic conductivity scale
    liquid_diffusivity: float    # species diffusivity scale
    porosity: float
    particle_diameter: float
    electrode: bool = False      # carries Butler-Volmer reactions


def default_materials():
    return {
        "heat_pellet": Material(1e1, 1e-4, 1e-3, 0.02, 1e-3),
        "collector": Material(1e6, 1e-4, 1e-3, 0.02, 1e-3),
        "anode": Material(1e6, 1.0, 1.0, 0.40, 5e-5, electrode=True),
        "separator": Material(1e-4, 1.0, 1.0, 0.50, 5e-5),
        "cathode": Material(1e3, 1.0, 1.0, 0.35, 5e-5, electrode=True),
        "insulation": Material(1e-3, 1e-4, 1e-3, 0.02, 1e-3),
        "can": Material(1e6, 1e-4, 1e-3, 0.02, 1e-3),
    }


def bruggeman_tortuosity(porosity):
    return porosity ** -0.5


def carman_kozeny_permeability(porosity, particle_diameter):
    s_v = 6.0 / particle_diameter
    tau = bruggeman_tortuosity(porosity)
    return porosity**3 / (2.0 * s_v**2 * tau**2 * (1.0 - porosity) ** 2)


def melt_mask(temperature, melt_temperature, width):
    """Regularized indicator that is ~1 below melt and ~0 well above it."""
    return 0.5 * (1.0 + np.tanh((melt_temperature - temperature) / width))


def butler_volmer_slope(i0, valence, overpotential, temperature, beta=0.5):
    """d(current)/d(overpotential) of the exponential current-voltage law."""
    a = FARADAY * valence / (GAS_CONSTANT * temperature)
    return i0 * a * (
        beta * np.exp(beta * a * overpotential)
        + (1.0 - beta) * np.exp(-(1.0 - beta) * a * overpotential)
    )


@dataclass
class LayeredGrid:
    nr: int                  # radial cell count (includes insulation/can columns)
    nz: int                  # axial cell count
    h: float                 # cell size (meters)
    n_cells: int             # repetitions of the collector/anode/separator/cathode unit
    labels: np.ndarray       # per-cell material index into MATERIALS
    centers: np.ndarray      # per-cell (radial, axial) center coordinates

    @property
    def n(self):
        return self.nr * self.nz

    def index(self, iz, ir):
        return iz * self.nr + ir

    def material_names(self):
        return [MATERIALS[k] for k in self.labels]

    def cells_of(self, material):
        return np.flatnonzero(self.labels == MATERIALS.index(material))


def stack_layers(n_cells):
    layers = ["heat_pellet"]
    for _ in range(n_cells):
        layers.extend(STACK_UNIT)
    layers.append("collector")
    layers.append("heat_pellet")
    return layers


def build_grid(nr, refinement_level, n_cells, h0=1e-3):
    """Layered grid; refinement doubles both dimensions per level (UMR)."""
    if nr < 1 or n_cells < 1 or refinement_level < 0:
        raise ValueError("nr >= 1, n_cells >= 1, refinement_level >= 0 required")
    scale = 2 ** refinement_level
    layers = stack_layers(n_cells)
    nz = len(layers) * scale
    nr_total = nr * scale
    h = h0 / scale

    labels = np.empty(nz * nr_total, dtype=np.int64)
    iz = np.repeat(np.arange(nz), nr_total)
    ir = np.tile(np.arange(nr_total), nz)
    layer_of = iz // scale
    radial_fraction = (ir + 0.5) / nr_total
    for k in range(nz * nr_total):
        if radial_fraction[k] >= _CAN_FRACTION:
            name = "can"
        elif radial_fraction[k] >= _INSULATION_FRACTION:
            name = "insulation"
        else:
            name = layers[layer_of[k]]
        labels[k] = MATERIALS.index(name)
    centers = np.column_stack([(ir + 0.5) * h, (iz + 0.5) * h])
    return LayeredGrid(nr=nr_total, nz=nz, h=h, n_cells=n_cells,
                       labels=labels, centers=centers)


def _face_pairs(grid):
    ids = np.arange(grid.n).reshape(grid.nz, grid.nr)
    radial = (ids[:, :-1].ravel(), ids[:, 1:].ravel())
    axial = (ids[:-1, :].ravel(), ids[1:, :].ravel())
    return radial, axial


def _harmonic(a, b):
    return 2.0 * a * b / (a + b)


def assemble_diffusion_operator(grid, coefficient, lumped_mass_scale=0.0,
                                dirichlet_rows=None):
    """Cell-centered 5-point operator with harmonic-mean face coefficients.

    Scaled so a unit-coefficient interior row reads (-1, -1, 4, -1, -1);
    outer boundaries are homogeneous Neumann, ``lumped_mass_scale`` (scalar
    or per-cell) is added to the diagonal, and rows listed in
    ``dirichlet_rows`` are replaced by identity rows.
    """
    coefficient = np.asarray(coefficient, dtype=np.float64)
    if coefficient.shape != (grid.n,):
        raise ValueError(f"coefficient must have shape ({grid.n},)")
    if np.any(coefficient <= 0.0):
        bad = int(np.flatnonzero(coefficient <= 0.0)[0])
        raise ValueError(f"non-positive diffusion coefficient at cell {bad}")

    rows, cols, vals = [], [], []
    diag = np.zeros(grid.n)
    for i_side, j_side in _face_pairs(grid):
        cf = _harmonic(coefficient[i_side], coefficient[j_side])
        rows.extend([i_side, j_side])
        cols.extend([j_side, i_side])
        vals.extend([-cf, -cf])
        np.add.at(diag, i_side, cf)
        np.add.at(diag, j_side, cf)
    diag = diag + lumped_mass_scale
    rows.append(np.arange(grid.n))
    cols.append(np.arange(grid.n))
    vals.append(diag)
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n, grid.n),
    ).tocsr()

    if dirichlet_rows is not None and len(dirichlet_rows):
        return _set_dirichlet_rows(A, dirichlet_rows)
    return as_csr(A)


def darcy_face_velocity(grid, mobility, pressure, capillary_gradient, melt_fraction):
    """Discrete Darcy velocities on faces, oriented toward increasing index.

    v_f = -mob_f * ((p_j - p_i)/h - C_m * g0_f); the capillary gradient g0
    is nonzero only on faces separating different materials.
    """
    velocities = []
    for i_side, j_side in _face_pairs(grid):
        mob_f = _harmonic(mobility[i_side], mobility[j_side])
        grad = (pressure[j_side] - pressure[i_side]) / grid.h
        g0 = np.where(grid.labels[i_side] != grid.labels[j_side],
                      capillary_gradient, 0.0)
        velocities.append(-mob_f * (grad - melt_fraction * g0))
    return tuple(velocities)


def assemble_advection_operator(grid, velocity):
    """First-order upwind operator for div(x * v), face velocities given."""
    rows, cols, vals = [], [], []
    for (i_side, j_side), v in zip(_face_pairs(grid), velocity):
        q = v * grid.h
        up_i = q >= 0.0
        # outflow from the upwind cell, inflow to the downwind cell
        rows.extend([i_side[up_i], j_side[up_i]])
        cols.extend([i_side[up_i], i_side[up_i]])
        vals.extend([q[up_i], -q[up_i]])
        dn = ~up_i
        rows.extend([i_side[dn], j_side[dn]])
        cols.extend([j_side[dn], j_side[dn]])
        vals.extend([q[dn], -q[dn]])
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n, grid.n),
    ).tocsr()
    return as_csr(A)


def assemble_species_block(grid, velocity, diffusivity, dt, mass_coefficient,
                           pressure_coupling=None, feedback_magnitude=0.0):
    """Species transport blocks.

    A_xx = lumped mass / dt + upwind advection + diffusion. A_xp is the
    divergence-form linearization of the advective flux with respect to
    pressure; A_px is its transpose scaled by ``feedback_magnitude``.
    """
    mass = np.asarray(mass_coefficient, dtype=np.float64) * grid.h**2 / dt
    A_xx = assemble_diffusion_operator(grid, diffusivity, lumped_mass_scale=mass)
    A_xx = as_csr(A_xx + assemble_advection_operator(grid, velocity))
    if pressure_coupling is None:
        A_xp = sp.csr_matrix((grid.n, grid.n))
    else:
        A_xp = assemble_diffusion_operator(grid, pressure_coupling)
    A_px = as_csr(feedback_magnitude * A_xp.T)
    return A_xx, A_xp, A_px


@dataclass
class ReactionState:
    exchange_current: float = 10.0
    valence: float = 1.0
    overpotential: float = 2.0
    symmetry_factor: float = 0.5
    temperature: float = 800.0
    species_sensitivity: float = 0.05
    species_feedback: float = 0.01


@dataclass
class CouplingBlocks:
    slope: np.ndarray     # per-cell linearized reaction conductance
    phis_phil: sp.csr_matrix
    phil_phis: sp.csr_matrix
    phis_x: sp.csr_matrix
    phil_x: sp.csr_matrix
    x_phis: sp.csr_matrix
    x_phil: sp.csr_matrix


def assemble_coupling_blocks(grid, state, materials=None):
    """Linearized reaction coupling, active on electrode cells only.

    The diagonal blocks receive +g on electrode cells (returned in
    ``slope``); the off-diagonal voltage blocks carry -g so electron
    production in one phase is consumed by the other. Species columns scale
    the same conductance by the concentration-sensitivity factors.
    """
    materials = materials or default_materials()
    electrode = np.array(
        [materials[MATERIALS[k]].electrode for k in grid.labels], dtype=bool)
    g_cell = butler_volmer_slope(
        state.exchange_current, state.valence, state.overpotential,
        state.temperature, state.symmetry_factor,
    )
    slope = np.where(electrode, g_cell * grid.h**2, 0.0)

    def electrode_diag(scale):
        cells = np.flatnonzero(slope != 0.0)
        return sp.csr_matrix(
            (scale * slope[cells], (cells, cells)), shape=(grid.n, grid.n))

    return CouplingBlocks(
        slope=slope,
        phis_phil=electrode_diag(-1.0),
        phil_phis=electrode_diag(-1.0),
        phis_x=electrode_diag(+state.species_sensitivity),
        phil_x=electrode_diag(-state.species_sensitivity),
        x_phis=electrode_diag(+state.species_feedback),
        x_phil=electrode_diag(-state.species_feedback),
    )


@dataclass
class CaseConfig:
    """Everything needed to build a case deterministically."""

    nr: int = 6
    refinement: int = 0
    n_cells: int = 2
    h0: float = 1e-3
    dt: float = 1e-6
    temperature: float = 800.0
    melt_temperature: float = 625.0
    melt_width: float = 50.0
    exchange_current: float = 10.0
    valence: float = 1.0
    overpotential: float = 2.0
    symmetry_factor: float = 0.5
    species_sensitivity: float = 0.05
    species_feedback: float = 0.01
    pressure_species_coupling: float = 0.1
    capillary_gradient: float = 1.0
    advection_scale: float = 1.0
    molar_concentration: float = 1.0
    viscosity: float = 1.0
    melt_viscosity_factor: float = 1e14
    liquid_saturation: float = 0.9
    reference_mole_fraction: float = 0.3
    liquid_voltage_mass_fraction: float = 1e-3
    pressure_mass_fraction: float = 1e-3
    material_overrides: dict = field(default_factory=dict)
    case_id: str = "case"

    def materials(self):
        table = default_materials()
        for name, fields_ in self.material_overrides.items():
            for key, value in fields_.items():
                setattr(table[name], key, value)
        return table

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class BatteryCase:
    config: CaseConfig
    grid: LayeredGrid
    system: BlockSystem
    solution: np.ndarray      # manufactured monolithic solution
    regime: dict              # derived scalars worth reporting

    @property
    def total_dim(self):
        return self.system.total_dim


_FIELD_WAVES = {
    "phi_s": (1.0, 1.0, 0.3, 0.2),
    "phi_l": (2.0, 1.0, 0.9, 0.5),
    "s": (1.0, 2.0, 1.5, 0.8),
    "x": (2.0, 2.0, 0.4, 1.1),
    "p": (1.0, 3.0, 2.1, 0.4),
}


def manufactured_field(grid, fieldname):
    """Smooth per-field reference profile (product of sinusoids)."""
    kx, ky, px, py = _FIELD_WAVES[fieldname]
    lx = grid.nr * grid.h
    ly = grid.nz * grid.h
    x = grid.centers[:, 0] / lx
    y = grid.centers[:, 1] / ly
    return 1.0 + 0.5 * np.sin(np.pi * kx * x + px) * np.cos(np.pi * ky * y + py)


def build_case(config=None):
    """Assemble the full five-field block system with a manufactured RHS."""
    cfg = config or CaseConfig()
    grid = build_grid(cfg.nr, cfg.refinement, cfg.n_cells, cfg.h0)
    table = cfg.materials()

    def per_cell(attr):
        return np.array([getattr(table[MATERIALS[k]], attr) for k in grid.labels])

    sigma = per_cell("sigma")
    porosity = per_cell("porosity")
    c_m = melt_mask(cfg.temperature, cfg.melt_temperature, cfg.melt_width)
    # below melt the viscosity jumps to an arbitrarily large value, killing
    # Darcy transport outright; the tanh mask only regularizes the capillary
    # term of the velocity
    frozen = cfg.temperature < cfg.melt_temperature
    mu_eff = cfg.viscosity * (cfg.melt_viscosity_factor if frozen else 1.0)
    molten_mobility = (
        carman_kozeny_permeability(porosity, per_cell("particle_diameter"))
        / cfg.viscosity
    )
    # units choice: measure mobility relative to its molten maximum so the
    # pressure and species blocks sit at O(1) while every contrast (and the
    # frozen-state suppression) is preserved
    mobility = (molten_mobility / molten_mobility.max()) * (cfg.viscosity / mu_eff)
    liquid_conductivity = per_cell("liquid_conductivity") * porosity ** 1.5
    species_diffusivity = (
        cfg.molar_concentration * per_cell("liquid_diffusivity") * porosity ** 1.5
    )

    state = ReactionState(
        exchange_current=cfg.exchange_current,
        valence=cfg.valence,
        overpotential=cfg.overpotential,
        symmetry_factor=cfg.symmetry_factor,
        temperature=cfg.temperature,
        species_sensitivity=cfg.species_sensitivity,
        species_feedback=cfg.species_feedback,
    )
    coupling = assemble_coupling_blocks(grid, state, table)

    # solid voltage: grounded along one face of the bottom collector (a single
    # cell row, so no grounded cell is ever isolated from the matrix graph)
    scale = 2 ** cfg.refinement
    iz = np.arange(grid.n) // grid.nr
    bottom_collector = np.flatnonzero(
        (iz == scale) & (grid.labels == MATERIALS.index("collector")))
    A_phis = assemble_diffusion_operator(grid, sigma)
    A_phis = as_csr(A_phis + sp.diags(coupling.slope))
    A_phis = _set_dirichlet_rows(A_phis, bottom_collector)

    # liquid voltage: no explicit boundary conditions; a small stabilizing
    # mass term keeps the operator nonsingular
    A_phil0 = assemble_diffusion_operator(grid, liquid_conductivity)
    tau_mass = cfg.liquid_voltage_mass_fraction * A_phil0.diagonal().min()
    A_phil = as_csr(
        A_phil0 + sp.diags(np.full(grid.n, tau_mass)) + sp.diags(coupling.slope))

    # pressure: Darcy continuity with a compressibility-like mass term
    pressure_coeff = cfg.molar_concentration * mobility
    A_pp0 = assemble_diffusion_operator(grid, pressure_coeff)
    p_mass = cfg.pressure_mass_fraction * A_pp0.diagonal().min()
    A_pp = as_csr(A_pp0 + sp.diags(np.full(grid.n, p_mass)))

    # species: advected by the Darcy velocity of the reference pressure field
    p_ref = manufactured_field(grid, "p")
    velocity = darcy_face_velocity(
        grid, cfg.advection_scale * cfg.molar_concentration * mobility,
        p_ref, cfg.capillary_gradient, c_m)
    species_mass = cfg.molar_concentration * porosity * cfg.liquid_saturation
    A_xx, A_xp, A_px = assemble_species_block(
        grid, velocity, species_diffusivity, cfg.dt, species_mass,
        pressure_coupling=(
            cfg.molar_concentration * cfg.reference_mole_fraction * mobility),
        feedback_magnitude=cfg.pressure_species_coupling,
    )

    # solid species: decoupled ODEs, purely diagonal
    A_s = as_csr(sp.diags(np.full(grid.n, grid.h**2 / cfg.dt)))

    n = grid.n
    dims = {f: n for f in FIELDS}
    blocks = {
        ("phi_s", "phi_s"): A_phis,
        ("phi_l", "phi_l"): A_phil,
        ("s", "s"): A_s,
        ("x", "x"): A_xx,
        ("p", "p"): A_pp,
        ("x", "p"): A_xp,
        ("p", "x"): A_px,
    }
    # voltage cross-coupling and voltage/species coupling, electrode cells only
    for pair, block in (
        (("phi_s", "phi_l"), coupling.phis_phil),
        (("phi_l", "phi_s"), coupling.phil_phis),
        (("phi_s", "x"), coupling.phis_x),
        (("phi_l", "x"), coupling.phil_x),
        (("x", "phi_s"), coupling.x_phis),
        (("x", "phi_l"), coupling.x_phil),
    ):
        if block.nnz:
            blocks[pair] = as_csr(block)
    # a grounded row must be an identity row across the whole monolithic system
    if ("phi_s", "phi_l") in blocks:
        blocks[("phi_s", "phi_l")] = _zero_rows(blocks[("phi_s", "phi_l")], bottom_collector)
    if ("phi_s", "x") in blocks:
        blocks[("phi_s", "x")] = _zero_rows(blocks[("phi_s", "x")], bottom_collector)

    system = BlockSystem(fields=FIELDS, dims=dims, blocks=blocks)
    solution = np.concatenate([manufactured_field(grid, f) for f in FIELDS])
    rhs_vec = system.monolithic() @ solution
    system.rhs = {f: system.segment(rhs_vec, f) for f in FIELDS}

    regime = {
        "n_cells": grid.n,
        "dofs": system.total_dim,
        "melt_fraction": float(c_m),
        "reaction_slope": float(coupling.slope.max()),
        "tau_mass": float(tau_mass),
        "pressure_mass": float(p_mass),
        "sigma_contrast": float(sigma.max() / sigma.min()),
        "dirichlet_rows": int(len(bottom_collector)),
    }
    return BatteryCase(config=cfg, grid=grid, system=system,
                       solution=solution, regime=regime)


def _set_dirichlet_rows(A, rows):
    coo = A.tocoo()
    mask = np.zeros(A.shape[0], dtype=bool)
    mask[rows] = True
    keep = ~mask[coo.row]
    r = np.concatenate([coo.row[keep], np.asarray(rows)])
    c = np.concatenate([coo.col[keep], np.asarray(rows)])
    v = np.concatenate([coo.data[keep], np.ones(len(rows))])
    return as_csr(sp.coo_matrix((v, (r, c)), shape=A.shape))


def _zero_rows(A, rows):
    coo = A.tocoo()
    mask = np.zeros(A.shape[0], dtype=bool)
    mask[rows] = True
    keep = ~mask[coo.row]
    return as_csr(sp.coo_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=A.shape))
