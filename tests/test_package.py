import ast
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args, get_origin

import pytest

import blocksolve
from blocksolve.battery import default_materials

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


def test_import_leaves_scipy_io_unloaded():
    # only store_matrix_market needs scipy.io, and it imports it itself, so
    # the solver does not pay for the module's memory
    src = str(Path(blocksolve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys, blocksolve; print('scipy.io' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def unused_names(source):
    """Names a module imports, and private names it defines at module level
    (functions, classes, constants), that it never mentions again."""
    tree = ast.parse(source)
    defined = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                defined[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                defined[alias.asname or alias.name] = node.lineno
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [node])
        for target in targets:
            name = getattr(target, "name", getattr(target, "id", ""))
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted((line, name) for name, line in defined.items() if name not in used)


def test_unused_import_check_flags_a_leftover():
    source = "from .sparse import dense_factor, as_csr\n\nx = as_csr(1)\n"
    assert unused_names(source) == [(1, "dense_factor")]


def test_unused_name_check_flags_a_private_leftover():
    source = ("_LIMIT = 3\n_USED = 4\n\n\ndef _helper():\n    return _USED\n\n\n"
              "class _Cache:\n    pass\n\n\ndef public():\n    return 0\n")
    assert unused_names(source) == [(1, "_LIMIT"), (5, "_helper"), (9, "_Cache")]


def test_no_unused_names_in_library_modules():
    package = Path(blocksolve.__file__).parent
    found = {
        path.name: unused_names(path.read_text())
        for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def setup_cache_calls(source):
    """The number of ``get`` calls on the module-level ``SetupCache``
    objects of a module, and the lines of those whose key is no tuple
    literal or whose builder is no module-level function taking one
    positional parameter per key entry: ``get`` calls ``build(*key)``, and a
    builder that sees nothing but its key cannot keep what a hit would then
    serve stale (a ``partial`` or a lambda could close over a matrix)."""
    tree = ast.parse(source)
    caches = {target.id for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "SetupCache"
              for target in node.targets}
    functions = {node.name: node.args for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "get"
             and getattr(node.func.value, "id", None) in caches]
    bad = []
    for node in calls:
        key, build = (node.args + [None, None])[:2]
        params = functions.get(getattr(build, "id", None))
        if (len(node.args) != 2 or node.keywords or not isinstance(key, ast.Tuple)
                or any(isinstance(k, ast.Starred) for k in key.elts)
                or not isinstance(build, ast.Name) or params is None
                or params.vararg or params.kwarg or params.kwonlyargs or params.defaults
                or len(params.posonlyargs + params.args) != len(key.elts)):
            bad.append(node.lineno)
    return len(calls), bad


def test_setup_cache_check_flags_a_builder_that_sees_more_than_its_key():
    source = ("from functools import partial\n"
              "_A = SetupCache()\n"
              "_B = SetupCache()\n"
              "def _build(shape, indptr):\n"
              "    return shape\n"
              "def _wide(*args):\n"
              "    return args\n"
              "def setup(M, key):\n"
              "    def local(shape, indptr):\n"
              "        return M.data\n"
              "    _A.get((M.shape, M.indptr), _build)\n"
              "    _A.get((M.shape, M.indptr), partial(_build, M))\n"
              "    _B.get((M.shape,), lambda shape: M.data)\n"
              "    _B.get((M.shape, M.indptr, M.indices), _build)\n"
              "    _B.get(key, _build)\n"
              "    _B.get((M.shape, M.indptr), _wide)\n"
              "    _B.get((M.shape, M.indptr), local)\n"
              "    _B.get((M.shape, M.indptr), build=_build)\n"
              "    return {}.get(key, _build)\n")
    assert setup_cache_calls(source) == (8, [12, 13, 14, 15, 16, 17, 18])


def test_every_setup_cache_builder_takes_its_key_and_nothing_else():
    package = Path(blocksolve.__file__).parent
    found = {path.name: setup_cache_calls(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: calls for name, (calls, _) in found.items() if calls} == \
        {"schwarz.py": 2, "smoothers.py": 1}
    assert {name: bad for name, (_, bad) in found.items() if bad} == {}


PRIVATE_KERNELS = "scipy.sparse._sparsetools"


def private_kernel_imports(source):
    """Lines of a module that import from scipy's private ``_sparsetools``:
    a change of that module in a scipy release then breaks only the module
    that holds them."""
    tree = ast.parse(source)
    return [node.lineno for node in ast.walk(tree) if
            (isinstance(node, ast.ImportFrom) and (node.module == PRIVATE_KERNELS or (
                node.module == "scipy.sparse"
                and any(alias.name == "_sparsetools" for alias in node.names))))
            or (isinstance(node, ast.Import)
                and any(alias.name == PRIVATE_KERNELS for alias in node.names))]


def test_private_kernel_check_flags_an_import():
    source = ("import numpy as np\n"
              "from scipy.sparse._sparsetools import csr_matvec as _csr_matvec\n"
              "import scipy.sparse._sparsetools as kernels\n"
              "from scipy.sparse import _sparsetools, csr_matrix\n"
              "from scipy.sparse import csr_matrix\n")
    assert private_kernel_imports(source) == [2, 3, 4]


def test_only_sparse_imports_private_kernels():
    package = Path(blocksolve.__file__).parent
    found = {path.name: private_kernel_imports(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert found.pop("sparse.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


# every config class with its defaults; Material has none, so the anode's
CONFIGS = [blocksolve.SolverConfig(), blocksolve.AmgParams(), blocksolve.ElectrochemOptions(),
           blocksolve.CaseConfig(), blocksolve.SuiteConfig(), default_materials()["anode"]]
BAD = {int: [True], float: [float("nan"), float("inf")], bool: [1]}


def bad_fields():
    """(config, field name, value to set, bad entry, the name its error
    starts with) for each value a field's kind rejects, also as the entry of
    a list or dict field."""
    for cfg in CONFIGS:
        for f in fields(cfg):
            container, kind = get_origin(f.type), f.type
            if container in (list, dict):
                kind = get_args(f.type)[-1]
            for bad in BAD.get(kind, []):
                if container is list:
                    yield cfg, f.name, [bad], bad, f"{f.name}[0]"
                elif container is dict:
                    yield cfg, f.name, {"p": bad}, bad, f"{f.name}['p']"
                else:
                    yield cfg, f.name, bad, bad, f.name


BAD_FIELDS = list(bad_fields())


def test_every_config_class_has_checked_fields():
    assert {type(cfg) for cfg, *_ in BAD_FIELDS} == {type(cfg) for cfg in CONFIGS}


@pytest.mark.parametrize("cfg, name, value, bad, label", BAD_FIELDS,
                         ids=[f"{type(c).__name__}.{n}={v!r}" for c, n, v, *_ in BAD_FIELDS])
def test_every_number_field_rejects_bools_and_non_finite_values(cfg, name, value, bad, label):
    with pytest.raises(ValueError) as err:
        replace(cfg, **{name: value})
    assert str(err.value).startswith(f"{label}: want ")
    assert str(err.value).endswith(f", got {bad!r}")
