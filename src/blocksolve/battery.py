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

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np
import scipy.sparse as sp

from .blockprec import FIELDS, BlockSystem
from .sparse import as_csr, product_adder, require_fields

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

MELT_TEMPERATURE = 625.0             # K; Darcy transport is frozen below it
MELT_WIDTH = 50.0                    # K; width of the tanh melt mask
MELT_VISCOSITY_FACTOR = 1e14         # viscosity jump below the melt temperature
CAPILLARY_GRADIENT = 1.0             # g0 on faces between different materials
SPECIES_SENSITIVITY = 0.05           # reaction conductance per unit mole fraction
SPECIES_FEEDBACK = 0.01              # species production per unit voltage
REFERENCE_MOLE_FRACTION = 0.3        # scales the species-pressure coupling
LIQUID_VOLTAGE_MASS_FRACTION = 1e-3  # phi_l mass term, of the least diagonal entry
PRESSURE_MASS_FRACTION = 1e-3        # pressure mass term, of the least diagonal entry


@dataclass
class Material:
    sigma: float = field(metadata={"above": 0})  # solid electrical conductivity (S/m)
    liquid_conductivity: float = field(metadata={"above": 0})  # ionic conductivity scale
    liquid_diffusivity: float = field(metadata={"above": 0})  # species diffusivity scale
    porosity: float = field(metadata={"above": 0, "below": 1})
    particle_diameter: float = field(metadata={"above": 0})
    electrode: bool = False  # carries Butler-Volmer reactions

    def __post_init__(self):
        require_fields(self)


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
    scale = 2 ** refinement_level
    layers = stack_layers(n_cells)
    nz = len(layers) * scale
    nr_total = nr * scale
    h = h0 / scale

    iz = np.repeat(np.arange(nz), nr_total)
    ir = np.tile(np.arange(nr_total), nz)
    layer_labels = np.array([MATERIALS.index(name) for name in layers], dtype=np.int64)
    radial_fraction = (ir + 0.5) / nr_total
    labels = np.where(
        radial_fraction >= _CAN_FRACTION, MATERIALS.index("can"),
        np.where(radial_fraction >= _INSULATION_FRACTION, MATERIALS.index("insulation"),
                 layer_labels[iz // scale]))
    centers = np.column_stack([(ir + 0.5) * h, (iz + 0.5) * h])
    return LayeredGrid(nr=nr_total, nz=nz, h=h, n_cells=n_cells,
                       labels=labels, centers=centers)


def _faces(grid):
    """Every interior face as the cells ``i`` and ``j`` on either side (j the
    neighbour at the higher index), radial faces first; and ``sides``, which
    indexes ``np.concatenate([i, j])`` in the order the operators add face
    terms to a cell, each direction's i sides and then its j sides: a
    cell's diagonal sum rounds in that order."""
    ids = np.arange(grid.n).reshape(grid.nz, grid.nr)
    i = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    j = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    radial, axial = np.split(np.arange(i.size), [ids[:, :-1].size])
    return i, j, np.concatenate([radial, radial + i.size, axial, axial + i.size])


def _harmonic(a, b):
    return 2.0 * a * b / (a + b)


def _coo_csr(grid, rows, cols, vals):
    """The n x n CSR matrix of the entries (rows, cols, vals); duplicates
    are summed in the order given."""
    return sp.csr_matrix((vals, (rows, cols)), shape=(grid.n, grid.n))


def assemble_diffusion_operator(grid, coefficient, lumped_mass_scale=0.0):
    """Cell-centered 5-point operator with harmonic-mean face coefficients.

    Scaled so a unit-coefficient interior row reads (-1, -1, 4, -1, -1);
    outer boundaries are homogeneous Neumann and ``lumped_mass_scale``
    (scalar or per-cell) is added to the diagonal.
    """
    coefficient = np.asarray(coefficient, dtype=np.float64)
    if coefficient.shape != (grid.n,):
        raise ValueError(f"coefficient must have shape ({grid.n},)")
    if np.any(coefficient <= 0.0):
        bad = int(np.flatnonzero(coefficient <= 0.0)[0])
        raise ValueError(f"non-positive diffusion coefficient at cell {bad}")

    i, j, sides = _faces(grid)
    cf = _harmonic(coefficient[i], coefficient[j])
    diag = np.bincount(np.concatenate([i, j])[sides], np.concatenate([cf, cf])[sides],
                       grid.n)
    cells = np.arange(grid.n)
    return _coo_csr(grid, np.concatenate([i, j, cells]), np.concatenate([j, i, cells]),
                    np.concatenate([-cf, -cf, diag + lumped_mass_scale]))


def darcy_face_velocity(grid, mobility, pressure, capillary_gradient, melt_fraction):
    """Discrete Darcy velocities on the (radial, axial) faces, oriented
    toward increasing index.

    v_f = -mob_f * ((p_j - p_i)/h - C_m * g0_f); the capillary gradient g0
    is nonzero only on faces separating different materials.
    """
    i, j, _ = _faces(grid)
    g0 = np.where(grid.labels[i] != grid.labels[j], capillary_gradient, 0.0)
    v = -_harmonic(mobility[i], mobility[j]) * (
        (pressure[j] - pressure[i]) / grid.h - melt_fraction * g0)
    return tuple(np.split(v, [(grid.nr - 1) * grid.nz]))


def assemble_advection_operator(grid, velocity):
    """First-order upwind operator for div(x * v), (radial, axial) face
    velocities given: each face's flux q = v h leaves its i side and enters
    its j side, carrying the upwind cell's value."""
    i, j, sides = _faces(grid)
    q = np.concatenate(velocity) * grid.h
    up = np.where(q >= 0.0, i, j)
    return _coo_csr(grid, np.concatenate([i, j])[sides], np.concatenate([up, up])[sides],
                    np.concatenate([q, -q])[sides])


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


def assemble_coupling_blocks(grid, config):
    """Linearized reaction coupling, active on electrode cells only.

    Returns ``(slope, blocks)``. The diagonal blocks receive +g on electrode
    cells (``slope``); the off-diagonal voltage blocks carry -g so electron
    production in one phase is consumed by the other. Species columns scale
    the same conductance by the concentration-sensitivity factors. ``blocks``
    maps (row_field, col_field) to a CSR block.
    """
    materials = config.materials()
    electrode = np.array([materials[m].electrode for m in MATERIALS])[grid.labels]
    slope = np.where(electrode, config.reaction_slope() * grid.h**2, 0.0)
    cells = np.flatnonzero(slope != 0.0)

    def electrode_diag(scale):
        return sp.csr_matrix(
            (scale * slope[cells], (cells, cells)), shape=(grid.n, grid.n))

    return slope, {
        ("phi_s", "phi_l"): electrode_diag(-1.0),
        ("phi_l", "phi_s"): electrode_diag(-1.0),
        ("phi_s", "x"): electrode_diag(+SPECIES_SENSITIVITY),
        ("phi_l", "x"): electrode_diag(-SPECIES_SENSITIVITY),
        ("x", "phi_s"): electrode_diag(+SPECIES_FEEDBACK),
        ("x", "phi_l"): electrode_diag(-SPECIES_FEEDBACK),
    }


@dataclass
class CaseConfig:
    """Everything needed to build a case deterministically."""

    nr: int = field(default=6, metadata={"least": 1})
    refinement: int = field(default=0, metadata={"least": 0})
    n_cells: int = field(default=2, metadata={"least": 1})
    h0: float = field(default=1e-3, metadata={"above": 0})
    dt: float = field(default=1e-6, metadata={"above": 0})
    temperature: float = field(default=800.0, metadata={"above": 0})
    exchange_current: float = field(default=10.0, metadata={"least": 0})
    valence: float = field(default=1.0, metadata={"least": 0})
    overpotential: float = 2.0
    symmetry_factor: float = field(default=0.5, metadata={"least": 0, "most": 1})
    pressure_species_coupling: float = 0.1
    liquid_saturation: float = field(default=0.9, metadata={"least": 0, "most": 1})
    material_overrides: dict[str, dict] = field(default_factory=dict)
    case_id: str = "case"

    def __post_init__(self):
        require_fields(self)
        self.materials()  # a bad override fails on construction
        # each field may pass its own bound while the exponentials overflow
        with np.errstate(over="ignore", invalid="ignore"):
            slope = self.reaction_slope()
        if not np.isfinite(slope):
            raise ValueError(
                f"overpotential {self.overpotential!r}, temperature {self.temperature!r}, "
                f"valence {self.valence!r}, exchange_current {self.exchange_current!r} "
                f"and symmetry_factor {self.symmetry_factor!r} make the Butler-Volmer "
                f"slope {slope}; lower |overpotential| or valence, or raise temperature")

    def materials(self):
        """The default material table with ``material_overrides`` applied."""
        table = default_materials()
        for name, values in self.material_overrides.items():
            if name not in table:
                raise ValueError(f"material_overrides: want a material of "
                                 f"{', '.join(MATERIALS)}, got {name!r}")
            if not isinstance(values, Mapping):
                raise ValueError(f"material_overrides[{name!r}]: want a mapping of "
                                 f"Material fields, got {values!r}")
            table[name] = replace(table[name], **values)
        return table

    def reaction_slope(self):
        """Butler-Volmer slope per unit area, before the cell area h^2."""
        return butler_volmer_slope(self.exchange_current, self.valence, self.overpotential,
                                   self.temperature, self.symmetry_factor)


@dataclass
class BatteryCase:
    config: CaseConfig
    grid: LayeredGrid
    system: BlockSystem
    solution: np.ndarray      # manufactured monolithic solution
    regime: dict              # derived scalars worth reporting


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
        return np.array([getattr(table[m], attr) for m in MATERIALS])[grid.labels]

    sigma = per_cell("sigma")
    porosity = per_cell("porosity")
    c_m = melt_mask(cfg.temperature, MELT_TEMPERATURE, MELT_WIDTH)
    # units choice: measure mobility relative to its molten maximum so the
    # pressure and species blocks sit at O(1) while every contrast survives;
    # below melt the viscosity jumps to an arbitrarily large value, killing
    # Darcy transport outright (the tanh mask only regularizes the capillary
    # term of the velocity)
    mobility = carman_kozeny_permeability(porosity, per_cell("particle_diameter"))
    mobility = mobility / mobility.max()
    if cfg.temperature < MELT_TEMPERATURE:
        mobility = mobility * (1.0 / MELT_VISCOSITY_FACTOR)
    liquid_conductivity = per_cell("liquid_conductivity") * porosity ** 1.5
    species_diffusivity = per_cell("liquid_diffusivity") * porosity ** 1.5

    slope, coupling = assemble_coupling_blocks(grid, cfg)

    # solid voltage: grounded along one face of the bottom collector (a single
    # cell row, so no grounded cell is ever isolated from the matrix graph)
    scale = 2 ** cfg.refinement
    iz = np.arange(grid.n) // grid.nr
    bottom_collector = np.flatnonzero(
        (iz == scale) & (grid.labels == MATERIALS.index("collector")))
    A_phis = _set_dirichlet_rows(
        assemble_diffusion_operator(grid, sigma, lumped_mass_scale=slope), bottom_collector)

    # liquid voltage: no explicit boundary conditions; a small stabilizing
    # mass term keeps the operator nonsingular
    A_phil = assemble_diffusion_operator(grid, liquid_conductivity)
    tau_mass = LIQUID_VOLTAGE_MASS_FRACTION * A_phil.diagonal().min()
    A_phil.setdiag(A_phil.diagonal() + tau_mass + slope)

    # pressure: Darcy continuity with a compressibility-like mass term
    A_pp = assemble_diffusion_operator(grid, mobility)
    p_mass = PRESSURE_MASS_FRACTION * A_pp.diagonal().min()
    A_pp.setdiag(A_pp.diagonal() + p_mass)

    # species: advected by the Darcy velocity of the reference pressure field
    velocity = darcy_face_velocity(grid, mobility, manufactured_field(grid, "p"),
                                   CAPILLARY_GRADIENT, c_m)
    A_xx, A_xp, A_px = assemble_species_block(
        grid, velocity, species_diffusivity, cfg.dt, porosity * cfg.liquid_saturation,
        pressure_coupling=REFERENCE_MOLE_FRACTION * mobility,
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
    # voltage cross-coupling and voltage/species coupling, electrode cells only;
    # the grounded cells are collector cells, so their rows hold no coupling
    # entry and stay identity rows across the whole monolithic system
    blocks.update((pair, block) for pair, block in coupling.items() if block.nnz)

    system = BlockSystem(fields=FIELDS, dims=dims, blocks=blocks)
    solution = np.concatenate([manufactured_field(grid, f) for f in FIELDS])
    # the RHS block by block, without the monolithic matrix: each row's sum
    # starts from the stored entry, so adding a row field's blocks in field
    # order repeats the monolithic row's sum bit for bit
    system.rhs = system.split(np.zeros(system.total_dim))
    parts = system.split(solution)
    for rf, cf in product(FIELDS, FIELDS):
        if (rf, cf) in blocks:
            product_adder(blocks[rf, cf])(parts[cf], system.rhs[rf])

    regime = {
        "n_cells": grid.n,
        "dofs": system.total_dim,
        "melt_fraction": float(c_m),
        "reaction_slope": float(slope.max()),
        "tau_mass": float(tau_mass),
        "pressure_mass": float(p_mass),
        "sigma_contrast": float(sigma.max() / sigma.min()),
        "dirichlet_rows": int(len(bottom_collector)),
    }
    return BatteryCase(config=cfg, grid=grid, system=system,
                       solution=solution, regime=regime)


def _set_dirichlet_rows(A, rows):
    """``A`` with ``rows``, each of which stores its diagonal, replaced by
    identity rows."""
    cells = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    grounded = np.isin(cells, rows)
    keep = ~grounded | (A.indices == cells)
    return sp.csr_matrix((np.where(grounded, 1.0, A.data)[keep], A.indices[keep],
                          np.concatenate(([0], np.cumsum(keep)))[A.indptr]), shape=A.shape)
