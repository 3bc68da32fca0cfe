#!/usr/bin/env python3
"""Print every executable line of ``src/cmrr`` that no test runs.

Usage: python tools/uncovered.py [PYTEST_ARGS ...]

Runs pytest in this process, with PYTEST_ARGS, under a line tracer set by
``sys.settrace`` and ``threading.settrace``, so the lines that threads
started by the tests run are seen too. Then prints, file by file, each
line of ``src/cmrr`` that holds code (``co_lines()`` of the compiled
file) and that no test ran, as ``path:line: source``, and a count. The
header lines of ``def`` and ``class`` statements and their decorators
are skipped: they run at import.

Tests that run cmrr in a subprocess, such as the CLI tests and
``tools/crossversion.py``, are not traced, so a line that only they run
is printed. Uses the standard library and pytest only. Exits with
pytest's status.
"""

from __future__ import annotations

import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "cmrr")
HEADERS = ("def ", "async def ", "class ", "@")


def executable_lines(path: str) -> dict[int, str]:
    """Line number to source text of each line of ``path`` that holds
    code, leaving out ``def`` and ``class`` headers and decorators."""
    with open(path) as f:
        source = f.read()
    lines, stack = set(), [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    text = source.splitlines()
    return {n: text[n - 1] for n in sorted(lines)
            if 0 < n <= len(text) and not text[n - 1].lstrip().startswith(HEADERS)}


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest here; return its status and the ``(file, line)`` pairs
    of ``src/cmrr`` that ran."""
    ran: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(PACKAGE) else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    status, ran = run_traced(argv)
    missed = 0
    paths = sorted(os.path.join(folder, name) for folder, _, names in os.walk(PACKAGE)
                   for name in names if name.endswith(".py"))
    for path in paths:
        for line, text in executable_lines(path).items():
            if (path, line) not in ran:
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{line}: {text.strip()}")
    print(f"{missed} lines of src/cmrr that no test ran; tests that run cmrr in a "
          f"subprocess (the CLI tests, tools/crossversion.py) are not traced")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
