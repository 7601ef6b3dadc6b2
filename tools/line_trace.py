"""Line trace: which statements under ``src/pdcg`` do the tests, or the CLI grid and benchmark, never execute?

Usage, from anywhere::

    python3 tools/line_trace.py [PYTEST_ARGS ...]
    python3 tools/line_trace.py --traffic

The tool runs its workload in this process under a ``sys.settrace``
hook that records every line executed in a file under ``src/pdcg``; no
coverage package is needed.  By default the workload is pytest (on the
whole repository, as the tier-1 suite does, unless arguments are
given).  With ``--traffic`` it is what the program meets outside its
tests instead: every call of ``tools/output_grid.py``'s grid, in a
temporary workdir, then the four benchmark workloads of ``bench/run.py``
at their tiny sizes (``run_workload(..., tiny=True)``, one untimed
round each), with their reports going to a temporary directory.
Nothing under ``bench/`` is written, not even bytecode.

A statement counts as executed when any line of its own text (a
compound statement's header, decorators included, not its body)
emitted a line event.  The tool then prints, one per line, each
statement that has executable code and never ran, as
``path:line: source``, and a count.  Docstrings are skipped, and so is
every statement whose header line, or the header of a statement
enclosing it, carries ``# pragma: no cover``.

Code run only in a child process (a ``ProcessPoolExecutor`` worker, a
``subprocess``) is not traced, so it shows as never executed.  The exit
code is 0 when the workload succeeds and nothing is listed, 1 when
statements are listed, pytest's own code when the tests fail, and 2
when a benchmark workload reports a failed operation.  Not part of the
test suite: tracing roughly doubles the run, to about 45 s for the
tests and about 30 s for the traffic.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
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


def traced(workload) -> tuple:
    """``workload()``'s return value and the lines it executed, by file under ``src/pdcg``."""
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
        return workload(), executed
    finally:
        sys.settrace(None)
        threading.settrace(None)


def run_tests(pytest_args: list) -> int:
    """pytest's exit code on ``pytest_args``, the whole repository when empty."""
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", *(pytest_args or [ROOT])])
    if code != 0:
        print(f"the tests fail (pytest exited {int(code)}); the trace is not the suite's", file=sys.stderr)
    return int(code)


def run_traffic() -> int:
    """The output grid and the four tiny benchmark workloads; 2 if a workload reports a failure, else 0."""
    sys.dont_write_bytecode = True  # importing bench/ must leave nothing there
    spec = importlib.util.spec_from_file_location("output_grid", os.path.join(ROOT, "tools", "output_grid.py"))
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    sys.path.insert(0, BENCH)
    bench_run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    failed = 0
    with tempfile.TemporaryDirectory(prefix="pdcg-traffic-") as tmp:
        grid.build_manifest(os.path.join(tmp, "grid"))
        for name in workloads.WORKLOADS:
            report = bench_run.run_workload(name, 0, 0.0, False, out_dir=tmp, tiny=True)
            for failure in report["failures"]:
                print(f"{name}: FAILED {failure}", file=sys.stderr)
            failed += len(report["failures"])
    if failed:
        print(f"{failed} benchmark operations fail; the trace is not the traffic's", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    if args == ["--traffic"]:
        code, executed = traced(run_traffic)
    else:
        code, executed = traced(lambda: run_tests(args))
    if code != 0:
        return code
    missing = untraced(executed)
    for path, line, text in missing:
        print(f"{path}:{line}: {text}")
    print(f"{len(missing)} statements never executed")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
