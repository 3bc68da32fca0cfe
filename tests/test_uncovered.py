"""Smoke test of tools/uncovered.py on one small test file."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "uncovered.py")


def test_lists_the_lines_one_test_file_leaves_unrun():
    done = subprocess.run(
        [sys.executable, TOOL, "-q", "-p", "no:cacheprovider", "tests/test_events.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    unrun = [line for line in lines if line.startswith("src/cmrr/")]
    assert lines[-1] == (f"{len(unrun)} lines of src/cmrr that no test ran; tests that run "
                         f"cmrr in a subprocess (the CLI tests, tools/crossversion.py) "
                         f"are not traced")
    texts = [line.split(": ", 1)[1] for line in unrun]
    # test_events.py never opens a channel, but it encodes and decodes events.
    assert "writer = self._slot" in texts
    assert "return pack_event(*event)" not in texts
    assert not any(text.startswith(("def ", "class ", "@")) for text in texts)
