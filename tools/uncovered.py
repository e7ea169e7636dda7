"""List each statement of ``src/amdiscnt`` that the Tier-1 tests never run.

Runs the Tier-1 suite in this process under a ``sys.settrace`` line
tracer, then prints ``path:line: source`` for every statement of the
package that no test ran, and a count. ``__main__.py`` is skipped: the
tests run it only in a subprocess, which the tracer does not reach.

    python tools/uncovered.py

The package is imported from ``src/``, whatever is installed. A
statement counts as run when any of its own lines ran: a simple
statement's lines, or a compound statement's header up to its body,
decorators included. ``try`` headers and docstrings compile to no code
of their own and are not listed. Tracing makes the suite three to five
times slower: 107-146 s against 33-36 s on a 2-vCPU host with CPython
3.11. The exit status is pytest's when a test fails, else 1 when any
statement is listed and 0 when none is.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "amdiscnt"
SKIPPED = {"__main__.py"}


def _compiles_to_nothing(stmt: ast.stmt) -> bool:
    """A ``try`` header, or a bare string such as a docstring."""
    return isinstance(stmt, ast.Try) or (isinstance(stmt, ast.Expr)
                                         and isinstance(stmt.value, ast.Constant)
                                         and isinstance(stmt.value.value, str))


def statements(tree: ast.Module):
    """``(first line, lines that count as running it)`` of every statement."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for stmt in block:
                if _compiles_to_nothing(stmt):
                    continue
                body = getattr(stmt, "body", None)
                if isinstance(body, list):  # a compound statement: its header
                    first = min([stmt.lineno] + [d.lineno for d in
                                                 getattr(stmt, "decorator_list", [])])
                    yield first, range(first, max(body[0].lineno, first + 1))
                else:
                    yield stmt.lineno, range(stmt.lineno, stmt.end_lineno + 1)
        for handler in getattr(node, "handlers", []):  # except clauses of a try
            yield handler.lineno, range(handler.lineno,
                                        max(handler.body[0].lineno, handler.lineno + 1))


def trace_suite() -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; its exit status and the lines run, by real path."""
    import pytest

    package = os.path.realpath(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def tracer_for(filename: str):
        add = hits.setdefault(filename, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        tracer = tracers.get(filename, trace)
        if tracer is trace:
            real = os.path.realpath(filename)
            tracer = tracers[filename] = tracer_for(real) if real.startswith(package) else None
        return tracer

    sys.path.insert(0, str(SRC))
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    imported = sys.modules.get(PACKAGE.name)
    if imported is not None and not os.path.realpath(imported.__file__).startswith(package):
        raise SystemExit(f"the tests imported {imported.__file__}, not {PACKAGE}")
    return int(status), hits


def main() -> int:
    status, hits = trace_suite()
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in SKIPPED:
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        ran = hits.get(os.path.realpath(path), set())
        for first, own in sorted(statements(ast.parse(text)), key=lambda stmt: stmt[0]):
            if not ran.intersection(own):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statement(s) of {PACKAGE.relative_to(ROOT)} never ran")
    return status or (1 if missed else 0)


if __name__ == "__main__":
    sys.exit(main())
