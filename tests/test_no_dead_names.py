"""Every module-level name in the package is used somewhere.

A ``def``, ``class`` or assigned name at the top level of a module in
``src/amdiscnt`` must appear, as a whole word, somewhere in ``src/``,
``tests/``, ``demos/`` or ``README.md`` besides its own definition line.
A name that nothing reads is dead code and should be deleted. Dunder
names such as ``__all__`` and ``__version__`` are read by the import
system and by tools, not by name in the code, so they are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amdiscnt"


def _corpus() -> dict[Path, list[str]]:
    paths = [ROOT / "README.md"]
    for folder in ("src", "tests", "demos"):
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
