#!/usr/bin/env python3
"""Count the physical and code lines of Python modules.

Usage: python tools/loc.py [PATH ...]

Each PATH is a ``.py`` file or a directory, whose ``*.py`` files are
counted without descending into subdirectories. The default PATHs are
``src/cmrr`` and ``src/cmrr/bench``. Prints one line per module and one
total per PATH, each as physical lines, code lines and the name.

A code line is one that holds a token other than a comment, is not blank,
and is not inside a module, class or function docstring. So deleting a
comment or a docstring line leaves the code count as it was, and a line
of a string that is not a docstring counts. Uses the standard library
only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PATHS = ("src/cmrr", "src/cmrr/bench")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines that the module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """Physical and code lines of one module's source."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def modules(path: str) -> list[str]:
    if os.path.isdir(path):
        return sorted(os.path.join(path, name) for name in os.listdir(path)
                      if name.endswith(".py"))
    return [path]


def main(argv: list[str]) -> int:
    paths = argv or [os.path.join(ROOT, p) for p in DEFAULT_PATHS]
    print(f"{'lines':>7} {'code':>6}  module")
    for path in paths:
        total_lines = total_code = 0
        for module in modules(path):
            with open(module) as f:
                lines, code = count_lines(f.read())
            total_lines += lines
            total_code += code
            print(f"{lines:7d} {code:6d}  {os.path.relpath(module, ROOT)}")
        name = os.path.relpath(path, ROOT)
        if os.path.isdir(path):
            name = os.path.join(name, "*.py")
        print(f"{total_lines:7d} {total_code:6d}  total {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
