"""Composable sparse solvers and hierarchical block preconditioners for
coupled electrochemical block systems, plus a synthetic case generator and a
benchmark CLI."""

from .amg import AmgHierarchy, AmgParams, as_preconditioner, build_hierarchy, vcycle
from .battery import BatteryCase, CaseConfig, build_case, build_grid
from .bench import (
    EfficiencyFit,
    ExperimentRecord,
    SuiteConfig,
    fit_strong_efficiency,
    fit_weak_efficiency,
    run_suite,
)
from .blockprec import (
    BlockSystem,
    ElectrochemOptions,
    ElectrochemPreconditioner,
    assemble_block_operator,
    build_electrochem_preconditioner,
    ras_preconditioner,
)
from .krylov import SolverConfig, SolveStats, fgmres, gmres
from .mmio import load_matrix_market, store_matrix_market
from .schwarz import (
    Partition,
    RasPreconditioner,
    extend_overlap,
    partition_nodes,
    ras_apply,
    ras_setup,
)
from .smoothers import (
    ChebyshevSmoother,
    Ilu0Factors,
    chebyshev_apply,
    chebyshev_setup,
    estimate_lambda_max,
    ilu0_apply,
    ilu0_factor,
    jacobi_apply,
)
from .sparse import (
    DenseFactorization,
    as_csr,
    dense_factor,
    dense_factor_solve,
    spmv,
    triple_product,
)

__version__ = "0.1.0"

__all__ = [
    "AmgHierarchy", "AmgParams", "as_preconditioner", "build_hierarchy", "vcycle",
    "BatteryCase", "CaseConfig", "build_case", "build_grid",
    "EfficiencyFit", "ExperimentRecord", "SuiteConfig",
    "fit_strong_efficiency", "fit_weak_efficiency", "run_suite",
    "BlockSystem", "ElectrochemOptions", "ElectrochemPreconditioner",
    "assemble_block_operator", "build_electrochem_preconditioner",
    "SolverConfig", "SolveStats", "fgmres", "gmres",
    "load_matrix_market", "store_matrix_market",
    "Partition", "RasPreconditioner", "extend_overlap", "partition_nodes",
    "ras_apply", "ras_preconditioner", "ras_setup",
    "ChebyshevSmoother", "Ilu0Factors", "chebyshev_apply", "chebyshev_setup",
    "estimate_lambda_max", "ilu0_apply", "ilu0_factor", "jacobi_apply",
    "DenseFactorization", "as_csr", "dense_factor", "dense_factor_solve",
    "spmv", "triple_product",
]
