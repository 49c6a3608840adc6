#!/usr/bin/env python3
"""List every statement in a src/minjump function that no traffic runs.

The traffic is pytest, run in this process on the given arguments
(default: tests), then every input of each benchmark workload's pool
(3 design, 98 verify, 96 simulate) solved once, and one pass of each
workload built, as a timed run builds it.  perfbench's tests are not run:
its conftest and that of tests/ cannot share one pytest session, and the
workloads reach the same code.  Code run in a subprocess or another
thread is not seen.  The trace is the standard library's sys.settrace, no
coverage tool.  The package is imported from src/ of this checkout,
through perfbench's own set-up, with the BLAS threads pinned as in a
benchmark run.

Usage: python3 scripts/unreached.py [pytest args]   (default: tests)

Prints `src/minjump/<file>.py:<line>: <statement>` for each statement
that never ran, and exits with pytest's exit code.  pytest's own report
goes to stderr, so stdout holds the list alone.  Run on an empty test
directory (pytest exits 5), it lists what the benchmark traffic alone
leaves unreached.
"""

import ast
import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import bootstrap  # noqa: E402

bootstrap.pin_threads()  # before anything loads numpy
bootstrap.add_src_path()

import pytest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SOURCES = {str(p): p for p in sorted(bootstrap.PACKAGE.glob("*.py"))}


def statements(path):
    """Line of every statement inside a function of path, docstrings left out."""
    lines, docstrings = set(), set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(fn) is not None:
                docstrings.add(fn.body[0].lineno)
            lines.update(node.lineno for stmt in fn.body for node in ast.walk(stmt)
                         if isinstance(node, ast.stmt))
    return lines - docstrings


def main(argv):
    ran = {name: set() for name in SOURCES}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(argv or [str(ROOT / "tests")])
        for workload in WORKLOADS.values():
            run = workload(seed=0)
            for key in run.all_keys():
                run.solve(key)
            run.next_pass()
    finally:
        sys.settrace(None)
    for name, path in SOURCES.items():
        text = path.read_text().splitlines()
        for line in sorted(statements(path) - ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
