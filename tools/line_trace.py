"""Line trace: which statements under ``src/pdcg`` does the test suite never execute?

Usage, from anywhere::

    python3 tools/line_trace.py [PYTEST_ARGS ...]

The tool runs pytest in this process (on the whole repository, as the
tier-1 suite does, unless arguments are given) under a ``sys.settrace``
hook that records every line executed in a file under ``src/pdcg``; no
coverage package is needed.  A statement
counts as executed when any line of its own text (a compound
statement's header, decorators included, not its body) emitted a line
event.  It then prints, one per line, each statement that has
executable code and never ran, as ``path:line: source``, and a count.
Docstrings are skipped, and so is every statement whose header line, or
the header of a statement enclosing it, carries ``# pragma: no cover``.

Code run only in a child process (a ``ProcessPoolExecutor`` worker, a
``subprocess``) is not traced, so it shows as never executed.  The exit
code is 0 when the tests pass and nothing is listed, 1 when statements
are listed, and pytest's own code when the tests fail.  Not part of the
test suite: tracing roughly doubles the run, to about 45 s.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "pdcg") + os.sep
PRAGMA = "# pragma: no cover"


def _code_lines(code) -> set:
    """Every line that holds bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node, parent) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _header(node) -> range:
    """The lines of a statement's own text: a compound statement's up to its body."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    last = max(node.lineno, body[0].lineno - 1) if isinstance(body, list) and body else node.end_lineno
    return range(first, last + 1)


def _statements(tree, source_lines: list):
    """(statement, header lines) for every statement not excluded as a docstring or by the pragma."""
    def walk(parent):
        for field in ("body", "orelse", "finalbody", "handlers"):
            for node in getattr(parent, field, ()):
                if not isinstance(node, (ast.stmt, ast.excepthandler)):
                    continue
                header = _header(node)
                if any(PRAGMA in source_lines[line - 1] for line in header):
                    continue
                if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
                    yield node, header
                yield from walk(node)

    yield from walk(tree)


def untraced(executed: dict) -> list:
    """(path, line, source) of each statement under ``src/pdcg`` with code that never ran."""
    missing = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        source_lines = source.splitlines()
        code_lines = _code_lines(compile(source, path, "exec"))
        ran = executed.get(path, set())
        for node, header in _statements(ast.parse(source), source_lines):
            if code_lines.intersection(header) and not ran.intersection(header):
                missing.append((os.path.relpath(path, ROOT), node.lineno, source_lines[node.lineno - 1].strip()))
    return missing


def main(argv=None) -> int:
    import pytest

    pytest_args = list(sys.argv[1:] if argv is None else argv) or [ROOT]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    executed: dict = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        executed.setdefault(filename, set())
        return local

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"the tests fail (pytest exited {int(code)}); the trace is not the suite's", file=sys.stderr)
        return int(code)
    missing = untraced(executed)
    for path, line, text in missing:
        print(f"{path}:{line}: {text}")
    print(f"{len(missing)} statements never executed")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
