"""Labeled block operators and the nested block Gauss-Seidel preconditioners.

The monolithic system is split into a voltage group (solid and liquid
potentials) and a non-voltage group (solid species, liquid species,
pressure). The hierarchical preconditioner inverts the block
upper-triangular part of that 2x2 splitting: an inner flexible-GMRES solve
per group, each preconditioned by its own block Gauss-Seidel sweep over
field-level solvers (AMG V-cycles, restricted additive Schwarz, diagonal
inversion). Because the inner solves are themselves iterative, the outer
Krylov method must be flexible.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .amg import AmgParams, as_preconditioner, build_hierarchy
from .krylov import SolverConfig, fgmres
from .schwarz import extend_overlap, partition_nodes, ras_apply, ras_setup
from .smoothers import jacobi_apply

FIELDS = ("phi_s", "phi_l", "s", "x", "p")
VOLTAGE_FIELDS = ("phi_s", "phi_l")
NONVOLTAGE_FIELDS = ("s", "x", "p")


@dataclass
class BlockSystem:
    """Nested 2x2 block matrix with labeled fields and a segmented RHS.

    ``blocks`` maps (row_field, col_field) to a CSR subblock; absent pairs
    are structurally zero. Fields appear in ``fields`` order in the
    monolithic numbering.
    """

    fields: tuple
    dims: dict
    blocks: dict
    rhs: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in self.fields:
            if f not in self.dims:
                raise ValueError(f"field {f!r} has no dimension")
        for (rf, cf), block in self.blocks.items():
            if rf not in self.fields or cf not in self.fields:
                raise ValueError(f"block ({rf},{cf}) references unknown field")
            expected = (self.dims[rf], self.dims[cf])
            if block.shape != expected:
                raise ValueError(
                    f"block ({rf},{cf}) has shape {block.shape}, expected {expected}"
                )
        if ("s", "s") in self.blocks:
            A_s = self.blocks[("s", "s")]
            off = A_s - sp.diags(A_s.diagonal(), shape=A_s.shape)
            if off.nnz and np.any(off.data != 0.0):
                raise ValueError("solid-species block must be diagonal")
        for f, vec in self.rhs.items():
            if vec.shape[0] != self.dims[f]:
                raise ValueError(f"rhs segment {f!r} has wrong length")
        self._monolithic = None

    @property
    def total_dim(self):
        return sum(self.dims[f] for f in self.fields)

    def offset(self, fieldname):
        off = 0
        for f in self.fields:
            if f == fieldname:
                return off
            off += self.dims[f]
        raise KeyError(fieldname)

    def segment(self, vec, fieldname):
        off = self.offset(fieldname)
        return vec[off:off + self.dims[fieldname]]

    def split(self, vec):
        return {f: self.segment(vec, f) for f in self.fields}

    def join(self, parts):
        return np.concatenate([parts[f] for f in self.fields])

    def rhs_vector(self):
        return np.concatenate([self.rhs[f] for f in self.fields])

    def submatrix(self, row_fields, col_fields=None):
        """Concatenate a group of subblocks into one CSR matrix; absent
        subblocks enter as explicit zero blocks."""
        col_fields = col_fields or row_fields
        grid = [
            [
                self.blocks.get(
                    (rf, cf), sp.csr_matrix((self.dims[rf], self.dims[cf]))
                )
                for cf in col_fields
            ]
            for rf in row_fields
        ]
        M = sp.bmat(grid, format="csr")
        M.sum_duplicates()
        M.sort_indices()
        return M

    def monolithic(self):
        if self._monolithic is None:
            self._monolithic = self.submatrix(self.fields, self.fields)
        return self._monolithic


def assemble_block_operator(system):
    """The monolithic CSR matrix of a BlockSystem; its product equals the
    segment-wise sum over present subblocks."""
    return system.monolithic()


def amg_preconditioner(system, fieldname, options, degree):
    """One smoothed-aggregation V-cycle per application on the diagonal
    block of ``fieldname``, with that field's drop tolerance and a
    Chebyshev smoother of the given degree."""
    params = AmgParams(drop_tolerance=options.theta(fieldname),
                       max_coarse_size=options.max_coarse_size,
                       smoother_degree=degree, seed=options.seed)
    return as_preconditioner(
        build_hierarchy(system.blocks[(fieldname, fieldname)], params))


def ras_preconditioner(A, coordinates, count, overlap=0):
    """Restricted additive Schwarz with ILU(0) subdomain solves: partition
    ``coordinates`` into ``count`` subdomains, extend them by ``overlap``,
    factor, and wrap as an apply callable."""
    part = partition_nodes(coordinates, count)
    ras = ras_setup(A, extend_overlap(A, part, overlap), part)
    return lambda r: ras_apply(ras, r)


class VoltageBgs:
    """Block Gauss-Seidel sweep for the coupled voltage pair, laid out over
    the (phi_s, phi_l) concatenated vector: liquid first, then the solid
    residual corrected through the coupling block."""

    def __init__(self, system, precon_phi_s, precon_phi_l):
        self.n_s = system.dims["phi_s"]
        self.coupling = system.blocks.get(("phi_s", "phi_l"))
        self.precon_phi_s = precon_phi_s
        self.precon_phi_l = precon_phi_l

    @classmethod
    def build(cls, system, options):
        """The sweep with an AMG V-cycle on each voltage block."""
        degree = options.voltage_smoother_degree
        return cls(system,
                   amg_preconditioner(system, "phi_s", options, degree),
                   amg_preconditioner(system, "phi_l", options, degree))

    def __call__(self, r):
        r_s, r_l = r[:self.n_s], r[self.n_s:]
        z_l = self.precon_phi_l(r_l)
        if self.coupling is not None:
            r_s = r_s - self.coupling @ z_l
        z_s = self.precon_phi_s(r_s)
        return np.concatenate([z_s, z_l])


class NonvoltageBgs:
    """Block Gauss-Seidel sweep over the (s, x, p) concatenated vector:
    pressure, then species corrected through the species-pressure coupling,
    and an exact diagonal inversion for the solid species."""

    def __init__(self, system, precon_x, precon_p):
        self.n_s = system.dims["s"]
        self.n_x = system.dims["x"]
        self.A_s = system.blocks[("s", "s")]
        self.coupling_xp = system.blocks.get(("x", "p"))
        self.precon_x = precon_x
        self.precon_p = precon_p

    @classmethod
    def build(cls, system, coordinates, options):
        """The sweep with an AMG V-cycle on pressure and restricted additive
        Schwarz over the virtual subdomains of ``coordinates`` on species."""
        precon_p = amg_preconditioner(
            system, "p", options, options.pressure_smoother_degree)
        precon_x = ras_preconditioner(
            system.blocks[("x", "x")], coordinates,
            options.ras_subdomains, options.ras_overlap)
        return cls(system, precon_x, precon_p)

    def __call__(self, r):
        r_s = r[:self.n_s]
        r_x = r[self.n_s:self.n_s + self.n_x]
        r_p = r[self.n_s + self.n_x:]
        z_p = self.precon_p(r_p)
        if self.coupling_xp is not None:
            r_x = r_x - self.coupling_xp @ z_p
        z_x = self.precon_x(r_x)
        z_s = jacobi_apply(self.A_s, r_s)
        return np.concatenate([z_s, z_x, z_p])


@dataclass
class ElectrochemOptions:
    """Configuration for the hierarchical preconditioner.

    ``drop_tolerances`` may override the shared drop tolerance per field
    ("phi_s", "phi_l", "p").
    """

    inner_tol: float = 1e-6
    inner_restart: int = 30
    inner_maxiter: int = 100
    voltage_smoother_degree: int = 4
    pressure_smoother_degree: int = 2
    drop_tolerance: float = 0.04
    drop_tolerances: dict = field(default_factory=dict)
    max_coarse_size: int = 64
    ras_subdomains: int = 4
    ras_overlap: int = 0
    inner_mode: str = "iterative"  # or "direct"
    seed: int = 0

    def theta(self, fieldname):
        return self.drop_tolerances.get(fieldname, self.drop_tolerance)


class ElectrochemPreconditioner:
    """Hierarchical block Gauss-Seidel over the voltage/non-voltage split.

    One application solves the non-voltage group, substitutes through the
    voltage/non-voltage coupling, then solves the voltage group. Inner
    solves run flexible GMRES to the configured tolerance; inner
    non-convergence is not raised, since the outer flexible Krylov method
    tolerates an inexact preconditioner. Nothing is written after setup.
    """

    def __init__(self, system, coordinates, options=None):
        opts = options or ElectrochemOptions()
        self.n_v = sum(system.dims[f] for f in VOLTAGE_FIELDS)
        A_vv = system.submatrix(VOLTAGE_FIELDS)
        A_nn = system.submatrix(NONVOLTAGE_FIELDS)
        self.A_vn = system.submatrix(VOLTAGE_FIELDS, NONVOLTAGE_FIELDS)

        if opts.inner_mode == "direct":
            self._solve_vv = splu(A_vv.tocsc()).solve
            self._solve_nn = splu(A_nn.tocsc()).solve
            return
        if opts.inner_mode != "iterative":
            raise ValueError(f"unknown inner mode {opts.inner_mode!r}")

        cfg = SolverConfig(
            restart=opts.inner_restart, tol=opts.inner_tol,
            maxiter=opts.inner_maxiter, flexible=True,
        )
        self._solve_vv = partial(
            _inner_solve, A_vv, VoltageBgs.build(system, opts), cfg)
        self._solve_nn = partial(
            _inner_solve, A_nn, NonvoltageBgs.build(system, coordinates, opts), cfg)

    def __call__(self, r):
        r_v, r_n = r[:self.n_v], r[self.n_v:]
        z_n = self._solve_nn(r_n)
        z_v = self._solve_vv(r_v - self.A_vn @ z_n)
        return np.concatenate([z_v, z_n])


def _inner_solve(A, bgs, cfg, r):
    return fgmres(A, r, preconditioner=bgs, config=cfg)[0]


def build_electrochem_preconditioner(system, coordinates, options=None):
    """Set up the full hierarchical preconditioner for a battery-style
    BlockSystem; ``coordinates`` drive the virtual-subdomain partition."""
    return ElectrochemPreconditioner(system, coordinates, options)
