"""Source hygiene: every name a dimlab module imports is used there.

A stdlib-`ast` stand-in for a linter's unused-import rule. `__init__.py`
is skipped, since its imports are the package's re-exports.
"""

import ast
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
