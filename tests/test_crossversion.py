"""Smoke test of tools/crossversion.py, with this tree on both sides."""

import importlib.util
import os
import subprocess
import sys

from test_primitives import SMALL_PARAMS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "crossversion.py")
SRC = os.path.join(ROOT, "src")


def _crossversion(*args):
    return subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True,
                          timeout=300)


def test_tool_runs_the_suites_small_parameters():
    spec = importlib.util.spec_from_file_location("crossversion", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.PARAMS == SMALL_PARAMS


def test_one_benchmark_replays_equal_with_the_same_tree():
    done = _crossversion(SRC, SRC, "philosophers-csp")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "philosophers-csp sender", "philosophers-csp receiver"]
    assert all(": ok, digest " in line for line in lines[:-1])
    assert lines[-1].startswith("2/2 cases equal")


def test_usage_errors_exit_2():
    assert _crossversion(SRC).returncode == 2
    assert _crossversion(SRC, os.path.join(ROOT, "tests")).returncode == 2
    done = _crossversion(SRC, SRC, "no-such-benchmark")
    assert done.returncode == 2 and "unknown benchmark no-such-benchmark" in done.stderr


def test_a_failed_replay_exits_1(tmp_path):
    (tmp_path / "cmrr").mkdir()
    (tmp_path / "cmrr" / "__init__.py").write_text("raise ImportError('broken tree')\n")
    done = _crossversion(SRC, str(tmp_path), "counting-actors")
    assert done.returncode == 1
    assert "counting-actors sender: replay failed: ImportError: broken tree" in done.stdout
    assert done.stdout.splitlines()[-1].startswith("0/2 cases equal")
