"""The package's modules import one another in layers.

A module in ``src/amdiscnt`` imports another package module only at its
top level, never inside a function or class, and those top-level imports
form no cycle. A function-local import is how a cycle is usually
hidden, so both rules together keep the import graph a plain hierarchy.
A standard-library import inside a function, such as an ``import csv``
that only one reader needs, is not a package import and stays allowed.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "amdiscnt"


def _package_targets(stmt: ast.stmt, modules: set[str]) -> list[str]:
    """The package modules an import statement reads, by module name;
    ``__init__`` stands for the package itself."""
    if isinstance(stmt, ast.Import):
        return [alias.name.split(".")[1] if "." in alias.name else "__init__"
                for alias in stmt.names if alias.name.split(".")[0] == PACKAGE.name]
    if not isinstance(stmt, ast.ImportFrom):
        return []
    if stmt.level == 0:
        if stmt.module is None or stmt.module.split(".")[0] != PACKAGE.name:
            return []
        path = stmt.module.split(".")[1:]
    elif stmt.level == 1:
        path = stmt.module.split(".") if stmt.module else []
    else:
        return []
    if path:
        return [path[0]]
    # `from . import x` reads module x when there is one, else a name of __init__
    return [alias.name if alias.name in modules else "__init__" for alias in stmt.names]


def _import_graph(sources: dict[str, str]) -> tuple[dict[str, set[str]], list[str]]:
    """Each module's top-level package imports, and every nested one as
    ``module:line target``."""
    modules = set(sources)
    graph, nested = {}, []
    for name, text in sources.items():
        tree = ast.parse(text)
        graph[name] = {target for stmt in tree.body
                       for target in _package_targets(stmt, modules)}
        top = set(map(id, tree.body))
        nested += [f"{name}:{node.lineno} {target}" for node in ast.walk(tree)
                   if id(node) not in top for target in _package_targets(node, modules)]
    return graph, nested


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """One import cycle as the modules along it, its first repeated last; empty if none."""
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as error:
        return list(error.args[1])
    return []


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_no_module_imports_a_package_module_inside_a_function():
    assert _import_graph(_package_sources())[1] == []


def test_top_level_package_imports_form_no_cycle():
    assert _cycle(_import_graph(_package_sources())[0]) == []


def test_the_guard_finds_a_nested_import_and_a_cycle():
    sources = {
        "a": "from .b import f\n",
        "b": "import csv\nfrom amdiscnt import c\n\n"
             "def f():\n    import csv\n    from .a import g\n",
        "c": "from . import a\n",
    }
    graph, nested = _import_graph(sources)
    assert nested == ["b:6 a"]
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a"}}
    cycle = _cycle(graph)
    assert cycle[0] == cycle[-1] and sorted(cycle[1:]) == ["a", "b", "c"]
    assert _cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) == []
