"""Composable sparse solvers and hierarchical block preconditioners for
coupled electrochemical block systems, plus a synthetic case generator and a
benchmark CLI."""

from .amg import AmgParams, as_preconditioner, build_hierarchy, vcycle
from .battery import CaseConfig, build_case, build_grid
from .bench import (
    ExperimentRecord,
    SuiteConfig,
    run_suite,
)
from .blockprec import (
    BlockSystem,
    ElectrochemOptions,
    assemble_block_operator,
    build_electrochem_preconditioner,
    ras_preconditioner,
)
from .krylov import SolverConfig, SolveStats, fgmres, gmres
from .mmio import load_matrix_market, store_matrix_market
from .schwarz import extend_overlap, partition_nodes, ras_apply, ras_setup
from .smoothers import (
    chebyshev_apply,
    chebyshev_setup,
    estimate_lambda_max,
    ilu0_apply,
    ilu0_factor,
    jacobi_apply,
    jacobi_setup,
)
from .sparse import as_csr, dense_factor, triple_product

__version__ = "0.1.0"

__all__ = [
    "AmgParams", "as_preconditioner", "build_hierarchy", "vcycle",
    "CaseConfig", "build_case", "build_grid",
    "ExperimentRecord", "SuiteConfig", "run_suite",
    "BlockSystem", "ElectrochemOptions",
    "assemble_block_operator", "build_electrochem_preconditioner",
    "SolverConfig", "SolveStats", "fgmres", "gmres",
    "load_matrix_market", "store_matrix_market",
    "extend_overlap", "partition_nodes",
    "ras_apply", "ras_preconditioner", "ras_setup",
    "chebyshev_apply", "chebyshev_setup",
    "estimate_lambda_max", "ilu0_apply", "ilu0_factor", "jacobi_apply",
    "jacobi_setup",
    "as_csr", "dense_factor", "triple_product",
]
