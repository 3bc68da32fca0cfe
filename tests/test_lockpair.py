"""Smoke test of tools/lockpair.py: its output format at a tiny count."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "lockpair.py")

EXPECTED = [
    r"lockpair: 50 uncontended pairs per batch, best of 2, pinned to CPU \d+",
    r"reference: threading\.RLock pair as `with rlock: pass`: \d+\.\d ns",
    r"passive: RRLock pair as `with lock: pass`: \d+\.\d ns, \d+\.\d\dx reference",
    r"record: RRLock pair as `with lock: pass`: \d+\.\d ns, \d+\.\d\dx reference",
]


def test_prints_each_mode_against_the_rlock_reference():
    done = subprocess.run([sys.executable, TOOL, "--pairs", "50", "--repeats", "2"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(EXPECTED), done.stdout
    for line, pattern in zip(lines, EXPECTED):
        assert re.fullmatch(pattern, line), line
