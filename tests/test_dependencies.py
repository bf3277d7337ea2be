"""The package imports only the standard library, numpy and click; each module loads only what ``LOAD_TIME`` lists."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "colorgraph").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "click", "colorgraph"}


def lazy_handle(node: ast.AST) -> str | None:
    """The module that a ``lazy("name")`` call binds (``errors.lazy``), or None for any other node.

    A call whose argument is not one string literal names no module the guards can check, so it
    returns a name that no rule allows.
    """
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lazy"):
        return None
    literal = len(node.args) == 1 and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
    return node.args[0].value if literal else "<lazy call without a literal name>"


def imported_packages(tree: ast.AST) -> set[str]:
    """Top-level package of every import statement and lazy handle in ``tree``; relative imports count as colorgraph."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("colorgraph" if node.level else node.module.split(".")[0])
        elif (name := lazy_handle(node)) is not None:
            names.add(name.split(".")[0])
    return names


def test_sources_found():
    assert any(path.name == "colorsim.py" for path in SOURCES)


def test_every_module_loads_lazily_from_the_package():
    import colorgraph

    assert set(colorgraph._SUBMODULES) == {path.stem for path in SOURCES} - {"__init__"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_numpy_click(path):
    undeclared = imported_packages(ast.parse(path.read_text(), filename=str(path))) - ALLOWED
    assert not undeclared, f"{path.name} imports {sorted(undeclared)}"


def test_guard_catches_scipy():
    assert imported_packages(ast.parse("import scipy.stats\nfrom scipy import linalg\n")) == {"scipy"}


def test_guard_catches_a_lazy_scipy():
    source = "from .errors import lazy\nsparse = lazy('scipy.sparse')\ndef run():\n    return errors.lazy('pandas')\n"
    assert imported_packages(ast.parse(source)) == {"colorgraph", "scipy", "pandas"}
    assert imported_packages(ast.parse("np = lazy(NAME)\n")) - ALLOWED


def misplaced_handles(tree: ast.AST) -> list[str]:
    """Each ``lazy`` handle in ``tree`` that names a submodule of a package other than colorgraph."""
    return [name for node in ast.walk(tree) if (name := lazy_handle(node)) is not None
            and "." in name and not name.startswith("colorgraph.")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_lazy_handles_name_top_level_or_package_modules(path):
    # lazy binds no handle on its parent package: a later ``import concurrent.futures`` would read it off
    # ``concurrent`` and miss it, and binding it imports that package at once
    misplaced = misplaced_handles(ast.parse(path.read_text(), filename=str(path)))
    assert not misplaced, f"{path.name} binds lazy handles on submodules of other packages: {misplaced}"


def test_handle_guard_catches_a_submodule_of_another_package():
    source = "np, rng = lazy('numpy'), lazy('colorgraph.rng')\nfutures = lazy('concurrent.futures')\n"
    assert misplaced_handles(ast.parse(source)) == ["concurrent.futures"]


# what each module imports when it loads, beyond the standard library; a lazy handle, "name (lazy)", is
# bound when the module loads and loads its module on its first read; the rest is imported where it runs
LOAD_TIME = {
    "__init__.py": set(),
    "census.py": {"numpy", "colorgraph.errors", "colorgraph.graph", "colorgraph.rng", "colorgraph.spectral (lazy)"},
    # each command loads the rest when it runs
    "cli.py": {"click", "colorgraph.__version__", "colorgraph.errors", "numpy (lazy)", "colorgraph.census (lazy)",
               "colorgraph.colorsim (lazy)", "colorgraph.extremal (lazy)", "colorgraph.graph (lazy)",
               "colorgraph.limits (lazy)", "colorgraph.moments (lazy)", "colorgraph.spectral (lazy)",
               "colorgraph.stats (lazy)"},
    "colorsim.py": {"numpy", "colorgraph.errors", "colorgraph.graph", "colorgraph.rng"},
    "errors.py": set(),  # the home of Params, so the laws load no graph
    "extremal.py": {"numpy", "colorgraph.census", "colorgraph.errors", "colorgraph.graph", "colorgraph.spectral"},
    # numpy and rng where a graph is built or walked, so a family spec is parsed without them
    "graph.py": {"colorgraph.errors", "numpy (lazy)", "colorgraph.rng (lazy)"},
    # numpy and rng where a law draws or sums arrays; graph, census, spectral only for a fixed-c host
    "limits.py": {"colorgraph.errors", "numpy (lazy)", "colorgraph.rng (lazy)", "colorgraph.graph (lazy)",
                  "colorgraph.census (lazy)", "colorgraph.spectral (lazy)"},
    "moments.py": {"colorgraph.census", "colorgraph.errors", "colorgraph.graph"},
    "rng.py": {"numpy", "colorgraph.errors"},
    "spectral.py": {"numpy", "colorgraph.errors", "colorgraph.graph"},
    # numpy where a statistic sums arrays, so a TV comparison runs without it
    "stats.py": {"colorgraph.errors", "numpy (lazy)", "colorgraph.limits (lazy)"},
}
CLI_START_UP = {"colorgraph", *LOAD_TIME["cli.py"]}


def load_time_imports(tree: ast.AST) -> set[str]:
    """Each name that ``tree`` imports when the module loads, as ``package.module`` or ``package.name``.

    A lazy handle bound at load time is named ``"module (lazy)"``. Function
    bodies and ``if TYPE_CHECKING:`` blocks do not run at load time and are
    skipped; relative imports are named from ``colorgraph``.
    """
    names, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            todo.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("colorgraph" if node.level else None, node.module)))
            names.update(f"{module}.{alias.name}" if module == "colorgraph" else module for alias in node.names)
        elif (name := lazy_handle(node)) is not None:
            names.add(f"{name} (lazy)")
        todo.extend(ast.iter_child_nodes(node))
    return names


def in_stdlib(name: str) -> bool:
    """Whether a ``load_time_imports`` name, a lazy handle's included, is in the standard library."""
    return name.removesuffix(" (lazy)").split(".")[0] in sys.stdlib_module_names


def function_level_imports(tree: ast.AST) -> list[int]:
    """The line of each import statement inside a function body of ``tree``."""
    return sorted({node.lineno for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_function_level_imports(path):
    # one import mechanism: a module a function needs only sometimes is an errors.lazy handle at module level
    lines = function_level_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} imports inside a function at lines {lines}"


def test_function_level_import_guard_catches_nested_imports():
    source = "import math\ndef run():\n    def inner():\n        from . import stats\n    import json\n"
    assert function_level_imports(ast.parse(source)) == [4, 5]


def test_cli_loads_only_stdlib_click_and_errors():
    cli = next(path for path in SOURCES if path.name == "cli.py")
    eager = load_time_imports(ast.parse(cli.read_text(), filename=str(cli)))
    outside = {name for name in eager if not in_stdlib(name)} - CLI_START_UP
    assert not outside, f"cli.py imports {sorted(outside)} at load time; bind them as errors.lazy handles"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_each_module_loads_only_its_listed_imports(path):
    eager = load_time_imports(ast.parse(path.read_text(), filename=str(path)))
    assert {name for name in eager if not in_stdlib(name)} == LOAD_TIME[path.name]


def test_cli_guard_catches_eager_imports():
    source = (
        "import numpy as np\n"
        "from . import __version__, census\n"
        "from .errors import ColorGraphError\n"
        "from .graph import Graph\n"
        "from colorgraph import limits\n"
        "spectral = lazy('colorgraph.spectral')\n"
        "if TYPE_CHECKING:\n"
        "    from .limits import Law\n"
        "def run():\n"
        "    from . import stats\n"
        "    moments = lazy('colorgraph.moments')\n"
    )
    assert load_time_imports(ast.parse(source)) == {
        "numpy", "colorgraph.__version__", "colorgraph.census", "colorgraph.errors", "colorgraph.graph",
        "colorgraph.limits", "colorgraph.spectral (lazy)"}
