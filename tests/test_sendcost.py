"""Smoke test of tools/sendcost.py: its output format at a tiny count."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "sendcost.py")

EXPECTED = [
    r"sendcost: 50 plain sends to one counting actor per batch, best of 2, "
    r"pinned to CPU \d+",
    r"passive: \d+\.\d ns per message",
    r"record: \d+\.\d ns per message, \d+\.\d\dx passive, [+-]\d+\.\d ns",
    r"replay: \d+\.\d ns per message, \d+\.\d\dx passive, [+-]\d+\.\d ns",
]


def test_prints_record_and_replay_against_passive():
    done = subprocess.run([sys.executable, TOOL, "--messages", "50", "--repeats", "2"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(EXPECTED), done.stdout
    for line, pattern in zip(lines, EXPECTED):
        assert re.fullmatch(pattern, line), line
