"""Labeled block operators and the nested block Gauss-Seidel preconditioners.

The monolithic system is split into a voltage group (solid and liquid
potentials) and a non-voltage group (solid species, liquid species,
pressure). The hierarchical preconditioner is one block Gauss-Seidel
sweep (``BlockGaussSeidel``) over that 2x2 splitting; each group is solved
by inner flexible GMRES, preconditioned by the same sweep over field-level
solvers (AMG V-cycles, restricted additive Schwarz, diagonal inversion).
Because the inner solves are themselves iterative, the outer Krylov method
must be flexible.
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
        # (row_fields, col_fields) -> submatrix; blocks are not replaced after construction
        self._submatrices = {}

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
        subblocks enter as explicit zero blocks.

        Built once per (row_fields, col_fields) and shared by every caller,
        so it must not be modified.
        """
        key = (tuple(row_fields), tuple(col_fields or row_fields))
        if key in self._submatrices:
            return self._submatrices[key]
        row_fields, col_fields = key
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
        self._submatrices[key] = M
        return M

    def monolithic(self):
        return self.submatrix(self.fields)


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


class BlockGaussSeidel:
    """Block Gauss-Seidel sweep over consecutive groups of fields.

    ``solvers[k]`` maps the residual of ``groups[k]`` to its correction.
    One application solves the last group first, then each earlier group
    with its residual corrected through its couplings to the later groups:
    the stored subblock between two single fields, else the concatenated
    ``submatrix``; absent or empty couplings are skipped.
    """

    def __init__(self, system, groups, solvers):
        self.solvers = tuple(solvers)
        sizes = [sum(system.dims[f] for f in g) for g in groups]
        self.bounds = tuple(np.cumsum([0] + sizes).tolist())
        # couplings[k][j] couples group k to group k + 1 + j
        self.couplings = tuple(
            tuple(_coupling(system, g, later) for later in groups[k + 1:])
            for k, g in enumerate(groups))

    def __call__(self, r):
        z = []
        for k in reversed(range(len(self.solvers))):
            r_k = r[self.bounds[k]:self.bounds[k + 1]]
            for C, z_later in zip(self.couplings[k], z):
                if C is not None:
                    r_k = r_k - C @ z_later
            z.insert(0, self.solvers[k](r_k))
        return np.concatenate(z)


def _coupling(system, rows, cols):
    C = (system.blocks.get((rows[0], cols[0])) if len(rows) == len(cols) == 1
         else system.submatrix(rows, cols))
    return C if C is not None and C.nnz else None


class VoltageBgs(BlockGaussSeidel):
    """The sweep over (phi_s, phi_l): liquid first, then the solid residual
    corrected through the coupling block."""

    @classmethod
    def build(cls, system, options):
        """The sweep with an AMG V-cycle on each voltage block."""
        degree = options.voltage_smoother_degree
        return cls(system, [(f,) for f in VOLTAGE_FIELDS],
                   [amg_preconditioner(system, f, options, degree)
                    for f in VOLTAGE_FIELDS])


class NonvoltageBgs(BlockGaussSeidel):
    """The sweep over (s, x, p): pressure, then species corrected through
    the species-pressure coupling, and an exact diagonal inversion for the
    solid species."""

    @classmethod
    def build(cls, system, coordinates, options):
        """The sweep with an AMG V-cycle on pressure and restricted additive
        Schwarz over the virtual subdomains of ``coordinates`` on species."""
        precon_p = amg_preconditioner(
            system, "p", options, options.pressure_smoother_degree)
        precon_x = ras_preconditioner(
            system.blocks[("x", "x")], coordinates,
            options.ras_subdomains, options.ras_overlap)
        precon_s = partial(jacobi_apply, system.blocks[("s", "s")])
        return cls(system, [(f,) for f in NONVOLTAGE_FIELDS],
                   [precon_s, precon_x, precon_p])


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


class ElectrochemPreconditioner(BlockGaussSeidel):
    """Block Gauss-Seidel over the voltage/non-voltage split: the
    non-voltage group, then the voltage group through their coupling.

    Each group is solved by flexible GMRES to the inner tolerance,
    preconditioned by its field-level sweep (or by sparse LU in direct
    mode). Inner non-convergence is not raised, since the outer flexible
    Krylov method tolerates an inexact preconditioner. Nothing is written
    after setup.
    """

    def __init__(self, system, coordinates, options=None):
        opts = options or ElectrochemOptions()
        A_vv = system.submatrix(VOLTAGE_FIELDS)
        A_nn = system.submatrix(NONVOLTAGE_FIELDS)
        if opts.inner_mode == "direct":
            solvers = [splu(A_vv.tocsc()).solve, splu(A_nn.tocsc()).solve]
        elif opts.inner_mode == "iterative":
            cfg = SolverConfig(restart=opts.inner_restart, tol=opts.inner_tol,
                               maxiter=opts.inner_maxiter, flexible=True)
            solvers = [partial(_inner_solve, A_vv, VoltageBgs.build(system, opts), cfg),
                       partial(_inner_solve, A_nn,
                               NonvoltageBgs.build(system, coordinates, opts), cfg)]
        else:
            raise ValueError(f"unknown inner mode {opts.inner_mode!r}")
        super().__init__(system, (VOLTAGE_FIELDS, NONVOLTAGE_FIELDS), solvers)


def _inner_solve(A, bgs, cfg, r):
    return fgmres(A, r, preconditioner=bgs, config=cfg)[0]


def build_electrochem_preconditioner(system, coordinates, options=None):
    """Set up the full hierarchical preconditioner for a battery-style
    BlockSystem; ``coordinates`` drive the virtual-subdomain partition."""
    return ElectrochemPreconditioner(system, coordinates, options)
