"""Source hygiene: every name a dimlab module imports is used there,
every function or class it defines is used by the package or the
benchmark (not only by tests or a re-export), every function the benchmark
tracer wraps exists, every exception class it defines is raised somewhere,
numpy loads only when a transform or an energy bracket needs it, and a
failing property test reports its example under the suite's warning
filters.

Stdlib-`ast` stand-ins for a linter's unused-import and dead-code rules.
The import check skips `__init__.py`, since its imports are the package's
re-exports.
"""

import ast
import builtins
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dimlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def referenced_names(tree: ast.AST) -> set[str]:
    """Every identifier the code loads, including those inside string
    annotations such as "DyadicMeasureTree"."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = (getattr(node, "annotation", None),
                       getattr(node, "returns", None))
        for ann in filter(None, annotations):
            for sub in ast.walk(ann):
                if (isinstance(sub, ast.Constant)
                        and isinstance(sub.value, str)):
                    used |= referenced_names(ast.parse(sub.value,
                                                       mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = referenced_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports but never uses: {unused}"


ROOT = SRC.parent.parent
# the code that can call a definition: the other modules of the package and
# the benchmark, whose tracer names its targets in strings. Tests and the
# re-exports of __init__.py do not count: a name only they reach is dead.
BENCH = sorted((ROOT / "perfbench").rglob("*.py"))
CALLERS = MODULES + BENCH


def used_identifiers(tree: ast.AST, attributes_only: bool = False,
                     strings: bool = False) -> Counter:
    """How often each identifier is read as an attribute, is the whole of
    a string that is not a docstring when `strings` (the benchmark tracer
    names its targets so), and, unless attributes_only, is loaded as a bare
    name or imported. Any other string (a message, a report key) names
    nothing."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not attributes_only:
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias) and not attributes_only:
            used[node.name.split(".")[-1]] += 1
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and id(node) not in docstrings
              and node.value.isidentifier()):
            used[node.value] += 1
    return used


def test_no_dead_definitions():
    """Every function, method and class defined in src/dimlab is named
    somewhere in its modules (__init__.py aside) or in perfbench outside its
    own definition. A method or property counts as used only when it is
    read as an attribute or is a perfbench string: a bare name of the same
    spelling is some other variable."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in CALLERS}
    used = {False: Counter(), True: Counter()}
    for path, tree in trees.items():
        for attributes_only, counts in used.items():
            counts.update(used_identifiers(tree, attributes_only,
                                           path in BENCH))
    dead = []
    for path in MODULES:
        tree = trees[path]
        members = {id(item) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            member = id(node) in members
            if (used[member][name]
                    - used_identifiers(node, member)[name] <= 0):
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, f"defined but never used: {dead}"


def tracer_targets() -> list[tuple[str, str | None, str]]:
    """(module, class or None, attribute) of each TARGETS row of the
    benchmark tracer, read from its source: importing it loads numpy."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    rows = next(node.value.elts for node in tree.body
                if isinstance(node, ast.Assign)
                and "TARGETS" in defined_names([node]))
    return [tuple(ast.literal_eval(field) for field in row.elts[1:4])
            for row in rows]


def defined_names(body) -> set[str]:
    """Names a module or class body binds by def, class or assignment."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                names.update(sub.id for sub in ast.walk(target)
                             if isinstance(sub, ast.Name))
    return names


def test_tracer_targets_exist():
    """Every function the benchmark tracer wraps is defined in src/dimlab:
    the benchmark is not part of this suite, so a deleted or renamed
    target would otherwise show only when the benchmark runs."""
    targets = tracer_targets()
    assert targets
    missing = []
    for module, cls, attr in targets:
        path = SRC / f"{module}.py"
        if not path.exists():
            missing.append(f"module {module}")
            continue
        body = ast.parse(path.read_text(), filename=str(path)).body
        if cls is not None:
            owner = [node for node in body
                     if isinstance(node, ast.ClassDef) and node.name == cls]
            if not owner:
                missing.append(f"{module}.{cls}")
                continue
            body = owner[0].body
        if attr not in defined_names(body):
            missing.append(".".join(filter(None, (module, cls, attr))))
    assert not missing, f"the tracer wraps what src/dimlab lacks: {missing}"


def test_exceptions_are_raised():
    """Every exception class defined in src/dimlab is raised somewhere in
    src: an exception nothing raises makes its handlers dead code."""
    trees = [ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))]
    classes = {node.name: node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return name in classes and any(
            isinstance(base, ast.Name) and is_exception(base.id)
            for base in classes[name].bases)

    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    unraised = sorted(name for name in classes
                      if is_exception(name) and name not in raised)
    assert not unraised, f"exception classes never raised: {unraised}"


NUMPY_PROBE = """
import sys
from fractions import Fraction

import dimlab
import dimlab.cli
from dimlab import fourier, io
from dimlab.measure import DyadicMeasureTree
from dimlab.settree import DyadicSetTree

tree = DyadicSetTree.from_digit_ifs(1, group=2, keep=[0, 3], depth=8)
io.save_json(tree, sys.argv[1])
for argv in (["ineq-chain"],
             ["corr-sandwich", "--levels", "2..8", "--random-measures", "5"],
             ["ball-lower-bound", "--levels", "2,4,6"]):
    assert dimlab.cli.main(["verify", *argv, "--in", sys.argv[1]]) == 0
    assert "numpy" not in sys.modules, f"verify {argv[0]} loaded numpy"
square = DyadicMeasureTree.uniform_on_set(DyadicSetTree.full(2, 2))
assert square.ball_correlation_bracket(Fraction(1, 5)).cap_level > 2
assert "numpy" not in sys.modules, "a 2-D ball bracket loaded numpy"
if sys.argv[2] == "transform":
    fourier.near_zero_report(DyadicMeasureTree.uniform_on_set(tree))
else:
    square.energy_bracket(Fraction(1, 2), refine_depth=1)
assert "numpy" in sys.modules, f"the {sys.argv[2]} ran without numpy"
"""


def test_numpy_loads_only_for_transforms(tmp_path):
    """Importing the package, running the exact verify commands
    (ineq-chain, corr-sandwich with random measures, ball-lower-bound) and a
    2-D ball bracket (whose pair sums resolve pairs below the leaves) leave
    numpy unloaded; the first transform, or the first energy bracket, loads
    it. The benchmark's runner preloads numpy, so a numpy import on these
    paths would not show in its batch times, only in every CLI start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    for loader in ("transform", "energy"):
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, str(tmp_path / "cantor.json"),
             loader], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_property_shows_its_example(tmp_path):
    """Under the suite's `filterwarnings` (every warning an error), a failing
    @given test ends in its falsifying example, not in an INTERNALERROR
    raised while hypothesis formats the failure report."""
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(SRC.parent.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
