"""The package imports only the standard library, numpy and click."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "colorgraph").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "click", "colorgraph"}


def imported_packages(tree: ast.AST) -> set[str]:
    """Top-level package of every import statement in ``tree``; relative imports count as colorgraph."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("colorgraph" if node.level else node.module.split(".")[0])
    return names


def test_sources_found():
    assert any(path.name == "colorsim.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_numpy_click(path):
    undeclared = imported_packages(ast.parse(path.read_text(), filename=str(path))) - ALLOWED
    assert not undeclared, f"{path.name} imports {sorted(undeclared)}"


def test_guard_catches_scipy():
    assert imported_packages(ast.parse("import scipy.stats\nfrom scipy import linalg\n")) == {"scipy"}
