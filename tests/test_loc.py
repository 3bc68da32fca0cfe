"""Smoke test of tools/loc.py on a temporary module."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "loc.py")

BASE = '''"""Module docstring."""


def double(x):
    """Function docstring,
    over two lines."""
    # a comment
    return 2 * x  # a trailing comment


class Box:
    """Class docstring."""

    size = 1
'''


def _counts(tmp_path, source):
    module = tmp_path / "module.py"
    module.write_text(source)
    done = subprocess.run([sys.executable, TOOL, str(module)], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1].split()[2] == "total"
    physical, code, _ = lines[1].split(None, 2)
    return int(physical), int(code)


def test_counts_code_lines_without_comments_and_docstrings(tmp_path):
    assert _counts(tmp_path, BASE) == (14, 4)
    commented = BASE.replace("    # a comment\n", "    # a comment\n    # and one more\n")
    assert _counts(tmp_path, commented) == (15, 4)
    documented = BASE.replace("over two lines.", "over two lines,\n    now three.")
    assert _counts(tmp_path, documented) == (15, 4)
    grown = BASE.replace("    size = 1\n", "    size = 1\n    limit = 3\n")
    assert _counts(tmp_path, grown) == (15, 5)
