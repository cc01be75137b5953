"""Labeled block operators and the nested block Gauss-Seidel preconditioners.

The monolithic system is split into a voltage group (solid and liquid
potentials) and a non-voltage group (solid species, liquid species,
pressure). The hierarchical preconditioner is one ``BlockGaussSeidel``
sweep over that split; each group is solved by inner flexible GMRES,
preconditioned by the same sweep over field solvers (AMG V-cycles, RAS,
diagonal inversion), so the outer Krylov method must be flexible.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .amg import AmgParams, as_preconditioner, build_hierarchy
from .krylov import SolverConfig, fgmres
from .schwarz import extend_overlap, partition_nodes, ras_apply, ras_setup
from .smoothers import CHEBYSHEV_DEGREES, jacobi_apply, jacobi_setup
from .sparse import as_apply, require_fields

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
    return as_preconditioner(build_hierarchy(
        system.blocks[(fieldname, fieldname)], options.amg_params(fieldname, degree)))


def ras_preconditioner(A, coordinates, count, overlap=0):
    """Restricted additive Schwarz with ILU(0) subdomain solves: partition
    ``coordinates`` into ``count`` subdomains, extend them by ``overlap``,
    factor, and wrap as an apply callable."""
    part = partition_nodes(coordinates, count)
    ras = ras_setup(A, extend_overlap(A, part, overlap), part)
    return partial(ras_apply, ras)


class BlockGaussSeidel:
    """Block Gauss-Seidel sweep over consecutive groups of fields.

    ``solvers[k]`` maps the residual of ``groups[k]`` to its correction.
    One application solves the last group first, then each earlier group
    with its residual corrected through its couplings to the later groups:
    the stored subblock between two single fields, else the concatenated
    ``submatrix``, bound once by ``as_apply``; absent or empty couplings are
    skipped. Each solver's correction is checked before a coupling reads it.
    """

    def __init__(self, system, groups, solvers):
        self.solvers = tuple(solvers)
        sizes = [sum(system.dims[f] for f in g) for g in groups]
        self.bounds = tuple(np.cumsum([0] + sizes).tolist())
        # products[k][j] applies the coupling of group k to group k + 1 + j
        self.products = tuple(
            tuple(_coupling(system, g, later) for later in groups[k + 1:])
            for k, g in enumerate(groups))

    def __call__(self, r):
        name = type(self).__name__
        if np.shape(r) != (self.bounds[-1],):
            raise ValueError(f"{name}: residual of shape {np.shape(r)} "
                             f"for a system of length {self.bounds[-1]}")
        z = []
        for k in reversed(range(len(self.solvers))):
            lo, hi = self.bounds[k], self.bounds[k + 1]
            r_k = r[lo:hi]
            for product, z_later in zip(self.products[k], z):
                if product is not None:
                    r_k = r_k - product(z_later)
            z_k = self.solvers[k](r_k)
            if np.shape(z_k) != (hi - lo,):
                raise ValueError(f"{name}: solver {k} returned shape {np.shape(z_k)} "
                                 f"for a group of length {hi - lo} (want ({hi - lo},))")
            z.insert(0, z_k)
        return np.concatenate(z)


def _coupling(system, rows, cols):
    C = (system.blocks.get((rows[0], cols[0])) if len(rows) == len(cols) == 1
         else system.submatrix(rows, cols))
    return as_apply(C) if C is not None and C.nnz else None


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
        precon_s = partial(jacobi_apply, jacobi_setup(system.blocks[("s", "s")]))
        return cls(system, [(f,) for f in NONVOLTAGE_FIELDS],
                   [precon_s, precon_x, precon_p])


@dataclass
class ElectrochemOptions:
    """Configuration for the hierarchical preconditioner.

    ``drop_tolerances`` may override the shared drop tolerance per field
    ("phi_s", "phi_l", "p").
    """

    inner_tol: float = field(default=1e-6, metadata={"above": 0, "below": 1})
    inner_restart: int = field(default=30, metadata={"least": 1})
    inner_maxiter: int = field(default=100, metadata={"least": 1})
    voltage_smoother_degree: int = field(default=4, metadata=CHEBYSHEV_DEGREES)
    pressure_smoother_degree: int = field(default=2, metadata=CHEBYSHEV_DEGREES)
    drop_tolerance: float = field(default=0.04, metadata={"least": 0})
    drop_tolerances: dict[str, float] = field(default_factory=dict, metadata={"least": 0})
    max_coarse_size: int = field(default=64, metadata={"least": 1})
    ras_subdomains: int = field(default=4, metadata={"least": 1})
    ras_overlap: int = field(default=0, metadata={"least": 0})
    inner_mode: str = "iterative"  # or "direct"
    seed: int = field(default=0, metadata={"least": 0})

    def __post_init__(self):
        if self.inner_mode not in ("iterative", "direct"):
            raise ValueError(f"unknown inner mode {self.inner_mode!r}")
        require_fields(self)
        unknown = set(self.drop_tolerances) - {"phi_s", "phi_l", "p"}
        if unknown:
            raise ValueError(f"drop_tolerances: unknown fields {sorted(unknown)}; "
                             "want phi_s, phi_l or p")

    @property
    def inner_config(self):
        """The inner group solves' Krylov config, from the inner_* fields."""
        return SolverConfig(restart=self.inner_restart, tol=self.inner_tol,
                            maxiter=self.inner_maxiter, flexible=True)

    def theta(self, fieldname):
        return self.drop_tolerances.get(fieldname, self.drop_tolerance)

    def amg_params(self, fieldname, degree):
        """The AMG parameters of ``fieldname``'s block, with a Chebyshev
        smoother of the given degree."""
        return AmgParams(drop_tolerance=self.theta(fieldname),
                         max_coarse_size=self.max_coarse_size,
                         smoother_degree=degree, seed=self.seed)


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
        else:
            cfg = opts.inner_config
            solvers = [partial(_inner_solve, A_vv, VoltageBgs.build(system, opts), cfg),
                       partial(_inner_solve, A_nn,
                               NonvoltageBgs.build(system, coordinates, opts), cfg)]
        super().__init__(system, (VOLTAGE_FIELDS, NONVOLTAGE_FIELDS), solvers)


def _inner_solve(A, bgs, cfg, r):
    return fgmres(A, r, preconditioner=bgs, config=cfg)[0]


def build_electrochem_preconditioner(system, coordinates, options=None):
    """Set up the full hierarchical preconditioner for a battery-style
    BlockSystem; ``coordinates`` drive the virtual-subdomain partition."""
    return ElectrochemPreconditioner(system, coordinates, options)
