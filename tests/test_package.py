import ast
from pathlib import Path

import blocksolve

PUBLIC = [
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

# the names the benchmark in perfbench/ calls through the package namespace
BENCHMARK_NAMES = {
    "AmgParams", "CaseConfig", "SolverConfig", "as_csr", "as_preconditioner",
    "assemble_block_operator", "build_case", "build_electrochem_preconditioner",
    "build_hierarchy", "fgmres", "gmres", "load_matrix_market",
    "store_matrix_market",
}


def test_public_names_pinned_and_resolvable():
    assert blocksolve.__all__ == PUBLIC
    assert BENCHMARK_NAMES <= set(PUBLIC)
    for name in PUBLIC:
        assert getattr(blocksolve, name) is not None


def unused_imports(source):
    """Names a module imports but never mentions again."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_check_flags_a_leftover():
    source = "from .sparse import dense_factor, as_csr\n\nx = as_csr(1)\n"
    assert unused_imports(source) == [(1, "dense_factor")]


def test_no_unused_imports_in_library_modules():
    package = Path(blocksolve.__file__).parent
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
