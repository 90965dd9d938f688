"""Checks on the package source itself."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cartanlab

SRC = Path(cartanlab.__file__).parent


def test_no_assert_statements_in_package():
    """Invariant checks must raise named exceptions: an ``assert`` would
    vanish under ``python -O``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SRC.name == "cartanlab" and len(list(SRC.rglob("*.py"))) >= 10
    assert found == []


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "numpy"
    return False


def test_numpy_is_imported_only_through_the_lazy_helper():
    """Module bodies get numpy as ``from ._lazy import np``; only
    ``_lazy.py`` names the module, and it does so without an import statement."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in tree.body if _imports_numpy(node)]
    assert found == []
    lazy = [path.stem for path in SRC.glob("*.py") if "from ._lazy import np" in path.read_text(encoding="utf-8")]
    assert sorted(lazy) == ["kernel_rep", "numeric_library", "spectral_bimodule", "vn_oracle"]


def _python_lines(code: str, *args: str, cwd=None) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _python(code: str, *args: str, cwd=None) -> str:
    return _python_lines(code, *args, cwd=cwd)[-1]


NUMERIC = ("kernel_rep", "vn_oracle", "spectral_bimodule")
# The private parts of the extension API that only some commands use, and
# the numeric commands' handlers, each executed by the commands that use it.
PER_COMMAND = ("_cocycle", "_section", "_equiv", "_numeric_cli")
# The library modules, which no command executes.
LIBRARIES = ("exact_library", "numeric_library")
# The exact modules that only some commands use, the public extension module
# and the libraries, which no command executes, the per-command parts, then
# the numeric half.
PROBED = ("boolean_monoid", "generators", "extension", *LIBRARIES, *PER_COMMAND, *NUMERIC)
# numpy's random-number stack, and a module it pulls in.
RANDOM_STACK = ("numpy.random", "secrets")

# Runs ``python -m cartanlab <args>`` in this interpreter and reports, second
# to last, the probed modules that were executed (a lazy module object in
# ``sys.modules`` changes its type to ``ModuleType`` when it executes) and the
# random-stack modules that were loaded and, last, the exit code and whether
# numpy's linear algebra was loaded.
RUN_CLI = """
import runpy, sys, types
sys.argv = ["cartanlab", *sys.argv[1:]]
try:
    runpy.run_module("cartanlab", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
probed, stack = %r, %r
executed = [n for n in probed if type(sys.modules.get("cartanlab." + n)) is types.ModuleType]
print(" ".join(executed + [m for m in stack if m in sys.modules]) or "-")
print(code, "numpy.linalg" in sys.modules)
""" % (PROBED, RANDOM_STACK)

ROOK2 = str(SRC / "data" / "rook2.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "rook", "2", "--out", "gen.json"],
        ["validate", ROOK2],
        ["section", ROOK2],
        ["equiv", ROOK2, ROOK2],
        ["represent", ROOK2],
    ],
    ids=["gen", "validate", "section", "equiv", "represent"],
)
def test_exact_commands_never_load_numpy(tmp_path, argv):
    """The exact commands, and ``represent``, which prints the lambdas from
    their monomial form, finish without executing numpy."""
    assert _python(RUN_CLI, *argv, cwd=tmp_path) == "0 False"


def test_oracle_loads_numpy(tmp_path):
    assert _python(RUN_CLI, "oracle", ROOK2, cwd=tmp_path) == "0 True"


@pytest.mark.parametrize(
    "argv, executed",
    [
        (["gen", "rook", "2", "--out", "gen.json"], "generators"),
        (["validate", ROOK2], "boolean_monoid _cocycle"),
        (["section", ROOK2], "_section"),
        (["equiv", ROOK2, ROOK2], "_equiv"),
        (["oracle", ROOK2], "generators _section _numeric_cli kernel_rep vn_oracle"),
        (["represent", ROOK2], "_section _numeric_cli kernel_rep"),
        (["spectral", ROOK2], "generators _section _numeric_cli kernel_rep vn_oracle spectral_bimodule"),
        (["msd", ROOK2], "generators _section _numeric_cli kernel_rep vn_oracle spectral_bimodule"),
        (["mtr", ROOK2], "generators _section _numeric_cli kernel_rep vn_oracle spectral_bimodule"),
    ],
    ids=["gen", "validate", "section", "equiv", "oracle", "represent", "spectral", "msd", "mtr"],
)
def test_commands_execute_only_the_modules_they_use(tmp_path, argv, executed):
    """The exact commands run without executing the numeric modules, and only
    validate executes boolean_monoid; of the extension API's parts, validate
    executes only the cocycle check, section only the section layer and
    equiv only equivalence, gen none, the numeric commands only the section
    layer, and no command the public ``extension`` module or a library
    module.  cli holds these modules as lazy module objects, executed on
    first use.  The oracle's sample draws load no ``numpy.random``."""
    lines = _python_lines(RUN_CLI, *argv, cwd=tmp_path)
    assert lines[-2] == executed and lines[-1].startswith("0 ")


# Before RUN_CLI: records, for each first import of ``dataclasses`` or
# ``inspect``, the top-level package of the module that asked for it, and
# prints them last.
WATCH_IMPORTS = """
import sys
importers = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name in ("dataclasses", "inspect") and name not in sys.modules:
            frame = sys._getframe(1)
            while frame.f_globals.get("__name__", "").startswith(("importlib", "_frozen_importlib")):
                frame = frame.f_back
            importers.append(name + " <- " + frame.f_globals["__name__"].split(".")[0])
sys.meta_path.insert(0, Watch())
"""


@pytest.mark.parametrize(
    "argv, importers",
    [
        (["gen", "rook", "2", "--out", "gen.json"], []),
        (["validate", ROOK2], []),
        (["section", ROOK2], []),
        (["equiv", ROOK2, ROOK2], []),
        (["oracle", ROOK2], ["inspect <- numpy"]),
        (["spectral", ROOK2], ["inspect <- numpy"]),
        (["msd", ROOK2], ["inspect <- numpy"]),
    ],
    ids=["gen", "validate", "section", "equiv", "oracle", "spectral", "msd"],
)
def test_commands_never_load_the_dataclass_machinery(tmp_path, argv, importers):
    """No command imports ``dataclasses`` or ``inspect``; the numeric ones
    get ``inspect`` only because numpy itself imports it."""
    code = WATCH_IMPORTS + RUN_CLI + 'print(importers, "dataclasses" in sys.modules)\n'
    lines = _python_lines(code, *argv, cwd=tmp_path)
    assert lines[-2].startswith("0 ") and lines[-1] == f"{importers} False"


def test_command_line_entry_defaults_blas_threads_to_one(tmp_path):
    """``python -m cartanlab`` sets an unset BLAS thread count to 1 and keeps
    one the caller set; importing the package sets neither."""
    code = """
import os, runpy, sys
os.environ.pop("OPENBLAS_NUM_THREADS", None)
os.environ["OMP_NUM_THREADS"] = "3"
import cartanlab.cli
print(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.argv = ["cartanlab", "gen", "rook", "2"]
try:
    runpy.run_module("cartanlab", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"])
"""
    lines = _python_lines(code, cwd=tmp_path)
    assert lines[0] == "None" and lines[-1] == "1 3"


def test_gc_is_frozen_only_at_the_process_entry():
    """``gc`` is imported, and ``gc.freeze`` called, in ``cli.run`` alone, so
    no in-process caller of the package ever has its heap frozen."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owner.setdefault(node, func.name)  # ast.walk visits outer functions first
        for node in ast.walk(tree):
            imports_gc = isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
            imports_gc |= isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "gc"
            freezes = isinstance(node, ast.Attribute) and node.attr == "freeze" and getattr(node.value, "id", None) == "gc"
            if imports_gc or freezes:
                found.append((path.name, owner.get(node), "freeze" if freezes else "import"))
    assert sorted(found) == [("cli.py", "run", "freeze"), ("cli.py", "run", "import")]


def test_only_the_command_line_entry_freezes_the_heap(tmp_path):
    """``python -m cartanlab`` ends with the heap frozen, so shutdown skips
    its final collection; ``cli.main`` called in-process freezes nothing."""
    code = """
import gc, runpy, sys
import cartanlab.cli
assert cartanlab.cli.main(["gen", "rook", "2", "--out", "in_process.json"]) == 0
print(gc.get_freeze_count())
sys.argv = ["cartanlab", "gen", "rook", "2", "--out", "entry.json"]
try:
    runpy.run_module("cartanlab", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count() > 0)
"""
    lines = _python_lines(code, cwd=tmp_path)
    assert lines == ["wrote in_process.json", "0", "wrote entry.json", "0 True"]


def _module_level_imports(tree, stems) -> list[int]:
    """Lines of module-level statements that import one of the package's
    modules ``stems``."""

    def names(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            base = "cartanlab." * (node.level > 0) + (node.module or "")
            return [base.rstrip(".")] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        return []

    targets = {f"cartanlab.{n}" for n in stems}
    return [node.lineno for node in tree.body if targets & set(names(node))]


def _numeric_imports(tree) -> list[int]:
    """Lines of module-level statements that import a numeric module."""
    return _module_level_imports(tree, NUMERIC)


def test_exact_half_imports_no_numeric_module_at_module_level():
    """The package, the command line and the exact half reach the numeric
    modules only through lazy bindings."""
    found = []
    stems = ("__init__", "cli", "_numeric_cli", "semigroup_core", "boolean_monoid", "extension", "generators")
    for stem in stems + ("_twist", "_cocycle", "_section", "_equiv", "exact_library"):
        path = SRC / f"{stem}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _numeric_imports(tree)]
    assert found == []


def test_numeric_import_scan_sees_every_form():
    tree = ast.parse(
        "import os\n"
        "from .kernel_rep import RepSpace\n"
        "from . import vn_oracle\n"
        "import cartanlab.spectral_bimodule\n"
        "from cartanlab.extension import sigma\n"
        "def f():\n"
        "    from .vn_oracle import span_basis\n"
    )
    assert _numeric_imports(tree) == [2, 3, 4]


def _per_command_imports(path: Path) -> list[str]:
    """Module-level imports of the public ``extension`` module anywhere, and
    of a per-command module in the core of the extension API or in cli."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    stems = ("extension", *PER_COMMAND) if path.stem in ("_twist", "cli") else ("extension",)
    return [f"{path.name}:{line}" for line in _module_level_imports(tree, stems)]


def test_core_and_cli_import_no_per_command_module_at_module_level():
    """Each command executes only its own part of the extension API: the
    core and cli bind the per-command parts lazily, and no module imports
    the public ``extension`` module, which re-exports every part."""
    assert [site for path in sorted(SRC.glob("*.py")) for site in _per_command_imports(path)] == []


def test_per_command_import_scan_sees_every_form(tmp_path):
    source = (
        "import os\n"
        "from ._section import Section\n"
        "from . import _equiv\n"
        "import cartanlab._cocycle\n"
        "from .extension import sigma\n"
        "from ._twist import Extension\n"
        "_numeric_cli = _lazy_import('cartanlab._numeric_cli')\n"
        "def f():\n"
        "    from ._cocycle import validate_cocycle\n"
    )
    for stem in ("cli", "_twist", "kernel_rep"):
        (tmp_path / f"{stem}.py").write_text(source)
    assert _per_command_imports(tmp_path / "cli.py") == ["cli.py:2", "cli.py:3", "cli.py:4", "cli.py:5"]
    assert _per_command_imports(tmp_path / "_twist.py") == ["_twist.py:2", "_twist.py:3", "_twist.py:4", "_twist.py:5"]
    assert _per_command_imports(tmp_path / "kernel_rep.py") == ["kernel_rep.py:5"]


# Every name ``cartanlab`` exported when it imported all of its modules.
EXPORTS = {
    "boolean_monoid": "AxiomReport GroupoidRelation check_axioms groupoid_relation",
    "errors": "CartanLabError ClosureError DomainError FormatError InvariantViolation OrthogonalityError "
    "SizeGuardError StructuralError",
    "exact_library": "chop meet meet_complement orthogonal_join",
    "extension": "CocycleTable Extension Section cohomologous delta extensions_equivalent lausch_alpha "
    "order_preserving_section point_coboundary_table point_cocycle_table sigma validate_cocycle validate_section",
    "generators": "eqrel_monoid product_monoid rook_monoid",
    "kernel_rep": "RBasis RepSpace dump_matrix expectation lambda_matrix",
    "numeric_library": "abstract_gram_check aoi_correspondence full_submonoids intermediate_algebra_check "
    "join_span kernel kernel_psd_check",
    "semigroup_core": "FiniteInverseMonoid PartialBijection PhasedElement classify compose dagger identity_map "
    "natural_leq partial_identity singleton zero_map",
    "spectral_bimodule": "enumerate_spectral_sets msd mtr psi spectral_closure theta verify_subdiagonal",
    "vn_oracle": "MatrixAlgebra cartan_report expectation_properties masa_check recover_extension span_basis",
}


def test_every_package_export_is_the_submodule_object():
    """``cartanlab.X``, ``from cartanlab import X`` and ``from cartanlab
    import *`` give the submodule's own object, and importing the package
    executes none of its modules."""
    code = """
import importlib, json, sys, cartanlab
exports = json.loads(sys.argv[1])
loaded = sorted(m for m in sys.modules if m.startswith("cartanlab."))
star = {}
exec("from cartanlab import *", star)
bad = []
for module, names in exports.items():
    sub = importlib.import_module("cartanlab." + module)
    for name in names.split():
        exec(f"from cartanlab import {name} as imported", star)
        if not getattr(cartanlab, name) is star.get(name) is star["imported"] is getattr(sub, name):
            bad.append(name)
print(json.dumps([loaded, bad]))
"""
    loaded, bad = json.loads(_python(code, json.dumps(EXPORTS)))
    assert bad == [] and sum(len(names.split()) for names in EXPORTS.values()) == 68
    assert loaded == []


def test_import_cli_loads_every_submodule():
    """Code that wraps the package from outside reads each submodule from
    ``sys.modules`` right after ``import cartanlab.cli``."""
    code = (
        "import sys, pkgutil, cartanlab.cli\n"
        "names = [m.name for m in pkgutil.iter_modules(cartanlab.__path__) if m.name != '__main__']\n"
        "print(sorted(n for n in names if 'cartanlab.' + n not in sys.modules), len(names))"
    )
    missing, count = _python(code).rsplit(" ", 1)
    assert missing == "[]" and int(count) >= 10


def _resolves(module: str, attr: str) -> bool:
    """Whether ``attr`` ("name" or "Class.method") is defined on the module."""
    owner = sys.modules.get(module)
    *classes, name = attr.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name, None)
    return owner is not None and name in vars(owner)


# Runs ``python -S -m cartanlab``: no site-packages, so numpy cannot be found
# (the numeric-command check below shows it), and only the package source on
# the path.
def _run_without_site_packages(argv, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC.parent)
    return subprocess.run(
        [sys.executable, "-S", "-m", "cartanlab", *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "rook", "2", "--out", "gen.json"],
        ["validate", ROOK2],
        ["section", ROOK2],
        ["equiv", ROOK2, ROOK2],
        ["represent", ROOK2],
    ],
    ids=["gen", "validate", "section", "equiv", "represent"],
)
def test_exact_commands_run_without_numpy(tmp_path, argv):
    proc = _run_without_site_packages(argv, tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


@pytest.mark.parametrize("command", ["oracle", "spectral", "msd", "mtr"])
def test_numeric_commands_without_numpy_stop_with_one_line(tmp_path, command):
    """Exit code 3 and one stderr line naming numpy, no traceback."""
    proc = _run_without_site_packages([command, ROOK2], tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [f"missing module: '{command}' needs numpy, which is not installed"]


def test_traced_names_resolve():
    """The benchmark's tracer wraps these functions by name; a rename would
    silently drop them from its ``--trace 1`` pass."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import cartanlab.cli  # noqa: F401  (loads every submodule)

    pairs = tracer.SPANNED + tracer.COUNTED
    assert len(pairs) > 20
    assert [f"{m}:{a}" for m, a in pairs if not _resolves(m, a)] == []
    assert not _resolves("cartanlab.extension", "Extension.no_such_method")


def test_every_exported_name_resolves():
    """A function deleted from a module must leave its ``__all__`` too."""
    import cartanlab.cli  # noqa: F401  (loads every submodule)

    loaded = (sys.modules.get(f"cartanlab.{path.stem}") for path in sorted(SRC.glob("*.py")))
    exporting = [module for module in loaded if hasattr(module, "__all__")]
    assert len(exporting) >= 8
    assert [f"{m.__name__}:{name}" for m in exporting for name in m.__all__ if not hasattr(m, name)] == []


def _is_trivial_cocycle_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "trivial_cocycle") or (
        isinstance(func, ast.Attribute) and func.attr == "trivial_cocycle"
    )


def call_sites(root: Path, is_call) -> list[str]:
    """Sites of the calls ``is_call`` accepts, as ``file:line``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if is_call(node)]
    return sorted(found)


def test_no_command_path_builds_the_zero_table():
    """The trivial twist is ``cocycle=None``: nothing in the package
    materializes the |S|^2 table of zeros that ``trivial_cocycle`` returns."""
    assert call_sites(SRC, _is_trivial_cocycle_call) == []


def test_zero_table_scan_sees_every_call_form(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .extension import trivial_cocycle\n"
        "def build(S, k, doc):\n"
        "    if doc.cocycle is None:\n"
        "        table = trivial_cocycle(S, k)\n"
    )
    (tmp_path / "extension.py").write_text(
        "def trivial_cocycle(S, k):\n"
        "    return {}\n"
        "class Extension:\n"
        "    def __init__(self, S, k, cocycle=None):\n"
        "        self.cocycle = cocycle if cocycle is not None else trivial_cocycle(S, k)\n"
        "def is_trivial(S, k, c):\n"
        "    return cohomologous(S, k, extension.trivial_cocycle(S, k), c)\n"
    )
    assert call_sites(tmp_path, _is_trivial_cocycle_call) == ["cli.py:4", "extension.py:5", "extension.py:7"]


def _is_membership_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "contains_matrix") or (
        isinstance(func, ast.Attribute) and func.attr == "contains"
    )


def _is_lambda_matrix_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "lambda_matrix") or (
        isinstance(func, ast.Attribute) and func.attr == "lambda_matrix"
    )


def calls_in_loops(root: Path, is_call) -> list[str]:
    """Sites of the calls ``is_call`` accepts inside a ``for`` loop or a
    comprehension, as ``file:line``."""
    loops = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for loop in ast.walk(tree):
            if isinstance(loop, loops):
                found.update(f"{path.name}:{node.lineno}" for node in ast.walk(loop) if is_call(node))
    return sorted(found)


def membership_calls_in_loops(root: Path) -> list[str]:
    """Sites of ``contains_matrix(...)`` and ``.contains(...)`` calls inside
    a ``for`` loop or a comprehension."""
    return calls_in_loops(root, _is_membership_call)


def test_no_one_matrix_membership_in_a_loop():
    """A family of matrices is tested against a span with one stacked
    residual (``vn_oracle._residual_norms``), not one projection per matrix."""
    assert membership_calls_in_loops(SRC) == []


def test_membership_scan_sees_loops_and_comprehensions(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(B, D, mats):\n"
        "    ok = all(contains_matrix(B, m) for m in mats)\n"
        "    for d in D.basis:\n"
        "        if not B.contains(d):\n"
        "            return False\n"
        "    return ok and B.contains(mats[0]) and contains_matrix(B, mats[1])\n"
    )
    assert membership_calls_in_loops(tmp_path) == ["m.py:2", "m.py:4"]


def test_no_lambda_matrix_in_a_loop():
    """lambda matrices are built through a ``RepSpace``, whose ``lam`` calls
    ``lambda_matrix`` once per element and keeps the result."""
    assert calls_in_loops(SRC, _is_lambda_matrix_call) == []


def test_lambda_matrix_scan_sees_loops_and_comprehensions(tmp_path):
    (tmp_path / "k.py").write_text(
        "def f(ext, j, rb, rs):\n"
        "    mats = [lambda_matrix(ext, j, v, rb) for v in ext.elements]\n"
        "    for v in ext.elements:\n"
        "        mats.append(kernel_rep.lambda_matrix(ext, j, v))\n"
        "    return mats, lambda_matrix(ext, j, ext.unit), rs.lam(ext.unit)\n"
    )
    assert calls_in_loops(tmp_path, _is_lambda_matrix_call) == ["k.py:2", "k.py:4"]


def _is_one_pattern_solve(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    return name in ("_pattern_intersection", "_point_accepted")


def test_no_one_pattern_solve_in_a_loop():
    """Pattern systems are solved together, one SVD per stack of systems
    (``vn_oracle._pattern_solves``), not one ``_pattern_intersection`` or
    ``_point_accepted`` solve per point or element."""
    assert calls_in_loops(SRC, _is_one_pattern_solve) == []


def test_pattern_solve_scan_sees_loops_and_comprehensions(tmp_path):
    (tmp_path / "p.py").write_text(
        "def f(M, rb, maps, tol):\n"
        "    pts = {(x, y) for x, y in rb.pairs if _point_accepted(M, x, y, tol)}\n"
        "    for g in maps:\n"
        "        vn_oracle._pattern_intersection(M, g, tol)\n"
        "    return pts, _pattern_intersection(M, maps[0], tol), _point_accepted(M, 0, 0, tol)\n"
    )
    assert calls_in_loops(tmp_path, _is_one_pattern_solve) == ["p.py:2", "p.py:4"]


# The Cayley table of a monoid and the closure checks that build it.
CAYLEY_READS = ("mul", "check_closed", "closure_witness")


def attribute_reads(path: Path, names) -> list[str]:
    """Sites of the attribute reads ``<expr>.<name>`` for the given names, as
    ``file:line``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    nodes = (node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in names)
    return sorted(f"{path.name}:{node.lineno}" for node in nodes)


def test_spectral_layer_reads_no_cayley_table():
    """Spectral monoids are decided on masks, from the products of the
    minimal elements (``_TraceIndex.products``), not from ``S.mul``."""
    assert attribute_reads(SRC / "spectral_bimodule.py", CAYLEY_READS) == []


def test_cayley_read_scan_sees_attribute_reads(tmp_path):
    path = tmp_path / "s.py"
    path.write_text(
        "def f(idx, S, mul):\n"
        "    table = idx.S.mul\n"
        "    if S.closure_witness() is not None:\n"
        "        return mul\n"
        "    return table[0][0], S.multiply, S.images, np.matmul\n"
    )
    assert attribute_reads(path, CAYLEY_READS) == ["s.py:2", "s.py:3"]


def _is_singleton_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "singleton") or (
        isinstance(func, ast.Attribute) and func.attr == "singleton"
    )


def test_one_point_maps_are_looked_up_by_graph():
    """The extension API, ``kernel_rep`` and ``spectral_bimodule`` find the
    one-point map of a point through ``S.point_maps``; none builds it with
    ``singleton``."""
    sites = call_sites(SRC, _is_singleton_call)
    modules = (
        "extension", "_twist", "_cocycle", "_section", "_equiv", "exact_library", "kernel_rep", "spectral_bimodule"
    )
    assert [site for site in sites if site.startswith(tuple(f"{m}.py:" for m in modules))] == []


def test_one_point_map_rule_has_one_home():
    """Only ``FiniteInverseMonoid.point_maps`` refuses a monoid that lacks
    the one-point map of a point of R; every reader raises its error."""
    message = "relation pair has no one-point map in S"
    assert [path.name for path in sorted(SRC.rglob("*.py")) if message in path.read_text(encoding="utf-8")] == [
        "semigroup_core.py"
    ]


def _closure_sites(path) -> list:
    """``line: what`` for each ``ClosureError(...)`` call and each statement
    that only reads ``.mul`` or ``.inv`` (alone or in a tuple), so forces
    the closure check for its side effect, in the module at path."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ClosureError":
            sites.append(f"{node.lineno}: ClosureError(")
        if isinstance(node, ast.Expr):
            values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
            if any(isinstance(v, ast.Attribute) and v.attr in ("mul", "inv") for v in values):
                sites.append(f"{node.lineno}: bare .mul/.inv")
    return sites


def test_closure_is_decided_in_one_home():
    """Only ``semigroup_core`` raises ClosureError or forces ``mul`` and
    ``inv`` for their closure check; every other module calls
    ``check_closed`` or reads the tables for their values."""
    found = {path.name: _closure_sites(path) for path in sorted(SRC.rglob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites and name != "semigroup_core.py"} == {}
    assert found["semigroup_core.py"]  # the check sees the sites it allows


def _reads_graph(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "graph" for n in ast.walk(node))


def _keys_built(node) -> list:
    """The key expressions of a dict or set that ``node`` builds: the keys of
    a comprehension or display, or the element of a generator passed to
    ``dict``, ``set`` or ``frozenset`` (a pair's first member for ``dict``)."""
    if isinstance(node, ast.DictComp):
        return [node.key]
    if isinstance(node, ast.SetComp):
        return [node.elt]
    if isinstance(node, ast.Dict):
        return [key for key in node.keys if key is not None]
    if isinstance(node, ast.Set):
        return node.elts
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args:
        arg = node.args[0]
        if node.func.id in ("dict", "set", "frozenset") and isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            pair = node.func.id == "dict" and isinstance(arg.elt, ast.Tuple)
            return [arg.elt.elts[0] if pair else arg.elt]
    return []


def graph_keyed_builds(root: Path) -> list[str]:
    """Sites of the dicts and sets keyed by a ``.graph`` read, as ``file:line``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        nodes = (node for node in ast.walk(tree) if any(_reads_graph(key) for key in _keys_built(node)))
        found += [f"{path.name}:{node.lineno}" for node in nodes]
    return sorted(found)


def test_only_the_monoid_keys_by_graph():
    """One graph lookup per monoid: ``FiniteInverseMonoid.id_of_graph`` is
    the only dict or set keyed by element graphs."""
    builds = graph_keyed_builds(SRC)
    assert len(builds) == 1 and builds[0].startswith("semigroup_core.py:")


def test_graph_key_scan_sees_every_form(tmp_path):
    (tmp_path / "g.py").write_text(
        "def f(S, idx, B):\n"
        "    ids = {s.graph: i for i, s in enumerate(S.elements)}\n"
        "    in_S = {t.graph for t in S}\n"
        "    traces = dict((s.graph, t) for s, t in idx.trace.items())\n"
        "    seen = frozenset(s.graph for s in B)\n"
        "    first = {S.one.graph: 0}\n"
        "    listed = [s.graph for s in S]\n"
        "    by_id = {i: s.graph for i, s in enumerate(S.elements)}\n"
        "    return ids, in_S, traces, seen, first, listed, by_id, {S.one.graph}\n"
    )
    assert graph_keyed_builds(tmp_path) == ["g.py:2", "g.py:3", "g.py:4", "g.py:5", "g.py:6", "g.py:9"]
    (tmp_path / "s.py").write_text("def f(n):\n    return singleton(n, 0, 1), core.singleton(n, 1, 0), n.singletons\n")
    assert call_sites(tmp_path, _is_singleton_call) == ["s.py:2", "s.py:2"]


# The objects that own the tolerance of a numeric decision.
TOL_OWNERS = ("RepSpace", "MatrixAlgebra")


def _annotated_class(node) -> str | None:
    """The class an annotation names: ``C``, ``module.C`` or the string ``"C"``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rpartition(".")[2]
    return None


def tol_beside_owner(path: Path) -> list[str]:
    """Functions that take a ``RepSpace`` or ``MatrixAlgebra`` (a parameter
    annotated with either, or the ``self`` of their methods) and a ``tol``
    parameter too, as ``file:line``.  A constructor sets the tol its object
    carries, so ``__init__`` is left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    owner = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, functions) or fn.name == "__init__":
            continue
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        takes = {_annotated_class(p.annotation) for p in params}
        if params and params[0].arg == "self":
            takes.add(owner.get(fn))
        if takes & set(TOL_OWNERS) and any(p.arg == "tol" for p in params):
            found.append(fn.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_checks_on_a_space_or_span_read_its_tol():
    """A check on a ``RepSpace`` or a span decides at the tol that object
    was built at: no such function takes its own ``tol`` as well."""
    modules = (*NUMERIC[1:], "numeric_library")
    assert [site for name in modules for site in tol_beside_owner(SRC / f"{name}.py")] == []


def test_tol_scan_sees_every_form(tmp_path):
    path = tmp_path / "t.py"
    path.write_text(
        "class MatrixAlgebra:\n"
        "    def __init__(self, basis, tol):\n"
        "        self.tol = tol\n"
        "    def contains(self, M, tol):\n"
        "        return M\n"
        "def psi(rs: RepSpace, A, tol: float = 1e-9):\n"
        "    return A\n"
        "def theta(rs: 'kernel_rep.RepSpace', B, *, tol):\n"
        "    return B\n"
        "def check(M: vn_oracle.MatrixAlgebra, D, tol):\n"
        "    return M\n"
        "def span_basis(matrices, rbasis: RBasis, tol):\n"
        "    return matrices\n"
        "def masa_check(M: MatrixAlgebra, D: MatrixAlgebra):\n"
        "    return M.tol\n"
    )
    assert tol_beside_owner(path) == ["t.py:4", "t.py:6", "t.py:8", "t.py:10"]


def twisted_product_sites(path) -> list[str]:
    """Calls of ``_product`` or ``_dagger`` and imports of ``_check_in_P``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("_product", "_dagger"):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(alias.name == "_check_in_P" for alias in node.names):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_kernel_rep_reads_sigma_from_extension():
    """The lambda columns take sigma from ``_section._sigma``; ``kernel_rep``
    forms no twisted product or inverse of its own."""
    assert twisted_product_sites(SRC / "kernel_rep.py") == []


def test_twisted_product_scan_sees_every_form(tmp_path):
    path = tmp_path / "t.py"
    path.write_text(
        "from .extension import Section, _check_in_P\n"
        "def f(ext, i, a):\n"
        "    vt, p = ext._product(i, a, i, a)\n"
        "    return _dagger(vt, p), ext.multiply(a, a)\n"
    )
    assert twisted_product_sites(path) == ["t.py:1", "t.py:3", "t.py:4"]
