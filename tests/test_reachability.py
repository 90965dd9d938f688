"""``src/`` holds what the commands run.

Every command of the golden ladder (``tests/golden/commands.json``) and the
three ``gen`` kinds run through ``cli.main`` in one fresh interpreter under
``sys.setprofile``, which records each code object entered, from the first
import on.  Every function of the package outside the two library modules,
``exact_library`` and ``numeric_library``, must have run, or be listed in
``UNEXECUTED`` with the reason it stays where the commands compile it; a
listed function that runs, or is gone, must leave the list.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import cartanlab

SRC = Path(cartanlab.__file__).resolve().parent
GOLDEN = Path(__file__).resolve().parent / "golden"
LIBRARIES = ("exact_library", "numeric_library")

FAILURE = "failure path the golden set does not reach"
TRACED = "wrapped by name by the benchmark's tracer (perfbench/tracer.py)"

# The functions outside the libraries that no command of the ladder runs,
# each with the reason it stays.
UNEXECUTED = {
    "__init__:__getattr__": "entry point: serves the package's exports, which the commands import directly",
    "cli:run": "entry point: the `cartanlab` script and `python -m cartanlab`, which call `main`",
    "_lazy:_Missing.__getattr__": f"{FAILURE}: a numeric command where numpy is not installed",
    "errors:OrthogonalityError.__init__": f"{FAILURE}: raised by exact_library.orthogonal_join",
    "semigroup_core:PartialBijection.__setattr__": f"{FAILURE}: assignment to an immutable element",
    "semigroup_core:PhasedElement.__repr__": f"{FAILURE}: the text of a witness that names a phased element",
    "semigroup_core:compose": f"{TRACED}; on a failure path, the witness of a missing product",
    "semigroup_core:natural_leq": TRACED,
    "semigroup_core:_check_same_atoms": f"read by compose and natural_leq, {TRACED}",
    "_twist:CocycleTable.entry_at": TRACED,
    "_twist:CocycleTable.entry": f"read by CocycleTable.entry_at, {TRACED}",
    "_twist:_rank": f"read by CocycleTable.entry_at, {TRACED}",
    "_twist:Extension.multiply": TRACED,
    "kernel_rep:lambda_matrix": TRACED,
    "spectral_bimodule:spectral_closure": TRACED,
    "spectral_bimodule:enumerate_spectral_sets": f"{TRACED}; read by numeric_library.aoi_correspondence",
    "_twist:Extension.dagger": "method: the element-level inverse beside multiply, read by the tests and demo 02",
    "_twist:Extension.__repr__": "method: the extension's repr",
    "semigroup_core:PartialBijection.restrict": "method: restriction, read by the meets of exact_library",
    "semigroup_core:FiniteInverseMonoid.__contains__": "method: membership, read by the tests",
    "semigroup_core:FiniteInverseMonoid.__repr__": "method: the monoid's repr",
    "semigroup_core:PhasedElement.__eq__": "method: value equality of phased elements, read by the tests",
    "semigroup_core:PhasedElement.is_zero": "method: read by the tests",
    "semigroup_core:GroupoidRelation.__len__": "method: |R|, read by demo 01",
    "_section:Section.__eq__": "method: equality of sections, read by the tests",
    "_section:_section_loops": (
        "the witnesses of validate_section, for callers of it with a section that no command builds: "
        "`section` checks j = -b, which passes on the points, and a missing meet raises first"
    ),
    "_section:Section.items": "method: the lifts, read by the tests",
    "_cocycle:CocycleReport.__eq__": "method: equality of reports, read by the tests",
    "_section:SectionReport.__eq__": "method: equality of reports, read by the tests",
    "spectral_bimodule:SubdiagonalReport.__eq__": "method: equality of reports, read by the tests",
    "cli:ExtensionDocument.__eq__": "method: equality of documents, read by the tests",
    "kernel_rep:RepSpace.lam": "method: one dense lambda, read by numeric_library.abstract_gram_check, demo 03 and the tests",
    "kernel_rep:RepSpace.lam_of": "method: the dense lambda of a section value, read by demo 03 and the tests",
    "vn_oracle:MatrixAlgebra.contains": "method: one-matrix membership, read by the tests",
}


def functions(path: Path) -> list:
    """(first line, qualified name, parent's first line) of each function and
    method that the module at path defines, nested ones under their parent
    (None at the top); the first line of a decorated function is its first
    decorator's, as in its code object."""
    found = []

    def visit(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found.append((first, prefix + child.name, parent))
                visit(child, f"{prefix}{child.name}.", first)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", parent)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return found


# Runs the script given in argv[1] in this interpreter under
# ``sys.setprofile``, from before its first import, and prints, last, the
# (file, first line) of every code object it entered.
PROFILE = """
import json, sys
entered = set()
def record(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
script = sys.argv.pop(1)
sys.setprofile(record)
exec(compile(script, "<script>", "exec"), {"__name__": "__script__"})
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def profiled(script: str, *args: str, cwd):
    """The (resolved file, first line) of every code object that ``script``,
    run with ``args`` in a fresh interpreter, entered, and the lines the
    script printed.  A function that only an import or a first load runs
    counts as run, whatever this process has already imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(cwd)]))
    proc = subprocess.run(
        [sys.executable, "-c", PROFILE, script, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    resolved = {name: str(Path(cwd, name).resolve()) for name, _ in json.loads(last)}
    return {(resolved[name], line) for name, line in json.loads(last)}, printed


def unexecuted(root: Path, ran: set, skip=()) -> list:
    """``stem:qualname`` of each function of the modules in root, except the
    stems in skip, that did not run; a nested function is listed only when
    its parent ran."""
    missed = []
    for path in sorted(root.glob("*.py")):
        if path.stem in skip:
            continue
        where = str(path.resolve())
        for first, name, parent in functions(path):
            if (where, first) not in ran and (parent is None or (where, parent) in ran):
                missed.append(f"{path.stem}:{name}")
    return missed


def _ladder(tmp_path) -> list:
    """(argv, exit code) of every golden command, then of one ``gen`` of
    each kind."""
    docs = GOLDEN / "docs"
    runs = json.loads((GOLDEN / "commands.json").read_text())
    ladder = [([str(docs / f"{a}.json") if (docs / f"{a}.json").exists() else a for a in r["argv"]], r["exit"]) for r in runs]
    rook2 = str(docs / "rook2.json")
    return ladder + [
        (["gen", "rook", "2", "--out", str(tmp_path / "rook2.json")], 0),
        (["gen", "eqrel", "0,1|2"], 0),
        (["gen", "product", rook2, rook2], 0),
    ]


# Runs every command of the ladder in argv[1] through ``cli.main`` and
# prints their exit codes.
RUN_LADDER = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from cartanlab.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def test_every_function_outside_the_libraries_runs_or_is_listed(tmp_path):
    ladder = _ladder(tmp_path)
    ran, printed = profiled(RUN_LADDER, json.dumps([argv for argv, _ in ladder]), cwd=tmp_path)
    assert json.loads(printed[-1]) == [code for _, code in ladder] and len(ladder) > 80
    missed = unexecuted(SRC, ran, skip=LIBRARIES)
    assert sorted(set(missed) - set(UNEXECUTED)) == []
    assert sorted(set(UNEXECUTED) - set(missed)) == []


def test_reachability_scan_sees_an_unexecuted_function(tmp_path):
    (tmp_path / "m.py").write_text(
        "import functools\n"
        "def used():\n"
        "    def inner():\n"
        "        return helper()\n"
        "    def nested_unused():\n"
        "        return 0\n"
        "    return inner()\n"
        "def helper():\n"
        "    return 1\n"
        "def unused():\n"
        "    def never():\n"
        "        return 2\n"
        "    return never\n"
        "class C:\n"
        "    @functools.cached_property\n"
        "    def prop(self):\n"
        "        return 3\n"
        "    def method(self):\n"
        "        return 4\n"
    )
    (tmp_path / "lib.py").write_text("def library_only():\n    return 5\n")
    ran, _ = profiled("import m\nm.used()\nm.C().prop\n", cwd=tmp_path)
    missed = unexecuted(tmp_path, ran, skip=("lib",))
    assert missed == ["m:used.nested_unused", "m:unused", "m:C.method"]
    assert unexecuted(tmp_path, ran) == ["lib:library_only", *missed]
    listed = {"m:unused": "reason", "m:C.method": "reason"}
    assert sorted(set(missed) - set(listed)) == ["m:used.nested_unused"]
