"""Every module-level name in the package is used somewhere.

A ``def``, ``class`` or assigned name at the top level of a module in
``src/amdiscnt`` must appear, as a whole word, somewhere in ``src/``,
``tests/``, ``demos/`` or ``README.md`` besides its own definition line.
A name that nothing reads is dead code and should be deleted. Dunder
names such as ``__all__`` and ``__version__`` are read by the import
system and by tools, not by name in the code, so they are exempt.

A ``def`` in a class body must be read as an attribute, ``.name``,
somewhere in ``src/``, ``demos/``, ``perfbench/`` or ``README.md``: a
method only tests call is a test helper and belongs in ``tests/``. The
dot keeps a mode string such as ``"two_level"`` from counting as a use
of a method of the same name.

A name a module imports at its top level must be read in that module,
in code or in an annotation, so that an import left behind by an edit
fails here. ``__init__.py`` imports to re-export, so there the name must
be listed in ``__all__``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amdiscnt"


def _corpus(folders=("src", "tests", "demos")) -> dict[Path, list[str]]:
    paths = [ROOT / "README.md"]
    for folder in folders:
        paths += sorted((ROOT / folder).rglob("*.py"))
    return {path: path.read_text(encoding="utf-8").splitlines() for path in paths}


def _definitions(path: Path):
    """(name, line number) of every top-level def, class and assigned name."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt.lineno
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt.lineno
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id, stmt.lineno


def test_every_module_level_name_is_used():
    corpus = _corpus()
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, lineno in _definitions(module):
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(word.search(line)
                       for path, lines in corpus.items()
                       for number, line in enumerate(lines, start=1)
                       if (path, number) != (module, lineno))
            if not used:
                dead.append(f"{module.name}:{lineno} {name}")
    assert dead == []


def _methods(path: Path):
    """(class.name, name) of every def in the body of a top-level class."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{stmt.name}.{member.name}", member.name


def test_every_method_is_used_outside_the_tests():
    text = "\n".join(line for lines in _corpus(("src", "demos", "perfbench")).values()
                     for line in lines)
    dead = [f"{module.name} {qualified}"
            for module in sorted(PACKAGE.glob("*.py"))
            for qualified, name in _methods(module)
            if not (name.startswith("__") and name.endswith("__"))
            and not re.search(rf"\.{re.escape(name)}\b", text)]
    assert dead == []


def _imports(tree: ast.Module):
    """(bound name, line number) of every top-level import but ``__future__``'s."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield alias.asname or alias.name.partition(".")[0], stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                yield alias.asname or alias.name, stmt.lineno


def _exported(tree: ast.Module) -> set[str]:
    """The names ``__all__`` lists."""
    return {name for stmt in tree.body if isinstance(stmt, ast.Assign)
            for target in stmt.targets if isinstance(target, ast.Name)
            and target.id == "__all__" for name in ast.literal_eval(stmt.value)}


def test_every_module_level_import_is_read_in_its_module():
    unread = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        if module.name == "__init__.py":
            read = _exported(tree)
        else:
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{module.name}:{lineno} {name}" for name, lineno in _imports(tree)
                   if name not in read]
    assert unread == []
