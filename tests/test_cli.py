"""CLI surface: run/dump/stats, output format, exit codes."""

import os
import re
import subprocess
import sys

import pytest

from cmrr import EventType, bench, current_activity, spawn_thread
from cmrr.bench import BenchmarkSpec
from cmrr.cli import EXIT_DIVERGENCE, EXIT_FORMAT, EXIT_OK, main
from cmrr.tracefile import write_chunk, write_header

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _field(out, key):
    match = re.search(rf"^{key} (.+)$", out, re.MULTILINE)
    assert match, f"missing field {key!r} in:\n{out}"
    return match.group(1)


def test_run_record_then_replay_same_digest(tmp_path, capsys):
    trace = str(tmp_path / "phil.trc")
    code, out, _ = _run(
        capsys, "run", "philosophers-locks", "--mode", "record",
        "--trace", trace, "--params", "rounds=5",
    )
    assert code == EXIT_OK
    assert os.path.exists(trace)
    digest = _field(out, "digest")

    code, out, _ = _run(
        capsys, "run", "philosophers-locks", "--mode", "replay",
        "--trace", trace, "--params", "rounds=5", "--seed", "9",
        "--watchdog", "5",
    )
    assert code == EXIT_OK
    assert _field(out, "digest") == digest


def test_run_passive_needs_no_trace(capsys):
    code, out, _ = _run(capsys, "run", "philosophers-stm", "--params", "rounds=3")
    assert code == EXIT_OK
    assert _field(out, "mode") == "passive"


def test_stats_totals_reconcile_with_file_size(tmp_path, capsys):
    trace = str(tmp_path / "c.trc")
    code, _, _ = _run(
        capsys, "run", "counting-actors", "--mode", "record",
        "--trace", trace, "--params", "count=30",
    )
    assert code == EXIT_OK
    code, out, _ = _run(capsys, "stats", trace)
    assert code == EXIT_OK
    octets_total = int(_field(out, "octets_total"))
    octets_events = int(_field(out, "octets_events"))
    octets_framing = int(_field(out, "octets_framing"))
    assert octets_total == octets_events + octets_framing
    assert octets_total == os.path.getsize(trace)
    assert int(_field(out, "events_total")) * 9 == octets_events


def test_stats_tx_commit_count_matches_benchmark_arithmetic(tmp_path, capsys):
    # philosophers-stm commits once per philosopher per round
    trace = str(tmp_path / "stm.trc")
    _run(capsys, "run", "philosophers-stm", "--mode", "record",
         "--trace", trace, "--params", "philosophers=5", "--params", "rounds=7")
    code, out, _ = _run(capsys, "stats", trace)
    assert code == EXIT_OK
    assert _field(out, "type TX_COMMIT count") == str(5 * 7)


def test_dump_lists_events_per_activity(tmp_path, capsys):
    trace = str(tmp_path / "d.trc")
    _run(capsys, "run", "philosophers-stm", "--mode", "record",
         "--trace", trace, "--params", "rounds=2")
    code, out, _ = _run(capsys, "dump", trace)
    assert code == EXIT_OK
    assert re.search(r"^activity 0 events \d+$", out, re.MULTILINE)
    assert "[0] ACTIVITY_SPAWN data=" in out
    assert "TX_COMMIT data=" in out


def test_exit_code_for_garbage_trace(tmp_path, capsys):
    bad = str(tmp_path / "bad.trc")
    with open(bad, "wb") as fh:
        fh.write(b"not a trace at all")
    for command in (["dump", bad], ["stats", bad],
                    ["run", "philosophers-stm", "--mode", "replay", "--trace", bad]):
        code, _, err = _run(capsys, *command)
        assert code == EXIT_FORMAT
        assert "trace format error" in err


def test_located_error_for_unregistered_tag(tmp_path, capsys):
    bad = str(tmp_path / "tag.trc")
    with open(bad, "wb") as fh:
        write_header(fh, 0)
        write_chunk(fh, 3, bytes([EventType.LOCK]) + bytes(8) + bytes([0xEE]) + bytes(8))
    for command in ("dump", "stats"):
        code, out, err = _run(capsys, command, bad)
        assert code == EXIT_FORMAT
        assert out == ""
        assert "trace format error: activity 3, chunk at offset 8: " \
               "unregistered event tag 238 at event 1" in err


def test_exit_code_for_strategy_mismatch(tmp_path, capsys):
    trace = str(tmp_path / "s.trc")
    _run(capsys, "run", "pingpong-actors", "--mode", "record",
         "--trace", trace, "--params", "rounds=3")
    code, _, err = _run(
        capsys, "run", "pingpong-actors", "--mode", "replay",
        "--trace", trace, "--params", "rounds=3", "--strategy", "receiver",
    )
    assert code == EXIT_FORMAT
    assert "trace format error" in err


def test_exit_code_for_divergent_replay(tmp_path, capsys):
    trace = str(tmp_path / "v.trc")
    _run(capsys, "run", "philosophers-stm", "--mode", "record",
         "--trace", trace, "--params", "rounds=3")
    code, _, err = _run(
        capsys, "run", "philosophers-stm", "--mode", "replay",
        "--trace", trace, "--params", "rounds=4", "--watchdog", "2",
    )
    assert code == EXIT_DIVERGENCE
    assert "replay divergence" in err


def test_unknown_benchmark(capsys):
    code, _, err = _run(capsys, "run", "no-such-benchmark")
    assert code == EXIT_FORMAT
    assert "unknown benchmark" in err


@pytest.mark.parametrize("argv,message", [
    (["run", "philosophers-stm", "--mode", "replay"], "replay needs a trace path"),
    (["run", "philosophers-stm", "--mode", "record"],
     "recording to a file needs a trace path"),
    (["run", "philosophers-stm", "--params", "rounds=x"],
     "parameter rounds expects an integer, got 'x'"),
    (["run", "philosophers-stm", "--params", "rounds"], "expects key=value"),
    (["run", "counting-actors", "--pool", "-1", "--params", "count=10"],
     "actor pool size must be at least 1, got -1"),
    (["run", "counting-actors", "--pool", "0", "--params", "count=10"],
     "actor pool size must be at least 1, got 0"),
    (["run", "philosophers-locks", "--params", "round=5"],
     "benchmark philosophers-locks has no parameter 'round'; known: philosophers, rounds"),
    (["run", "philosophers-locks", "--watchdog", "0"],
     "watchdog must be more than 0 seconds, got 0.0"),
    (["run", "philosophers-locks", "--watchdog=-1"],
     "watchdog must be more than 0 seconds, got -1.0"),
    (["run", "philosophers-locks", "--watchdog", "nan"],
     "watchdog must be more than 0 seconds, got nan"),
])
def test_usage_errors_print_one_line(argv, message, capsys):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_FORMAT
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("usage error: ")
    assert message in err


@pytest.mark.parametrize("command", [
    ["run", "philosophers-stm", "--mode", "replay", "--trace"], ["dump"], ["stats"],
])
def test_missing_trace_file_prints_one_line(command, tmp_path, capsys):
    missing = str(tmp_path / "missing.trc")
    code, out, err = _run(capsys, *command, missing)
    assert code == EXIT_FORMAT
    assert out == ""
    assert err.count("\n") == 1 and "No such file" in err and missing in err


@pytest.mark.parametrize("command", [
    ["run", "philosophers-stm", "--mode", "record", "--trace"],
    ["run", "philosophers-stm", "--mode", "replay", "--trace"], ["dump"], ["stats"],
])
def test_directory_as_trace_prints_one_line(command, tmp_path, capsys):
    code, out, err = _run(capsys, *command, str(tmp_path))
    assert code == EXIT_FORMAT
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("usage error: ")
    assert str(tmp_path) in err


def test_self_join_is_a_usage_error(monkeypatch, capsys):
    def self_join(params):
        spawn_thread(lambda: current_activity().join()).join()

    monkeypatch.setitem(bench.REGISTRY, "self-join",
                        BenchmarkSpec("self-join", self_join))
    code, out, err = _run(capsys, "run", "self-join")
    assert code == EXIT_FORMAT
    assert out == ""
    assert err == "usage error: activity cannot join itself\n"


@pytest.mark.parametrize("name, params, message", [
    ("philosophers-csp", ["philosophers=1"],
     "parameter philosophers must be at least 2, got 1"),
    ("fj-creation-actors", ["fanout=0"], "parameter fanout must be at least 1, got 0"),
    ("fj-creation-actors", ["depth=-1"], "parameter depth must be at least 0, got -1"),
    ("sales-pipeline", ["projects=0"], "parameter projects must be at least 1, got 0"),
    ("fj-creation-actors", ["fanout=1", "depth=20"],
     "cannot spawn: spawn tree too deep/wide for 64-bit activity ids"),
], ids=["one-philosopher", "no-fanout", "negative-depth", "no-projects", "past-id-limit"])
def test_run_refuses_parameters_it_could_not_finish_with(name, params, message):
    """Each of these would otherwise run for ever; the run is a
    subprocess, so a hang ends in its timeout."""
    argv = [sys.executable, "-m", "cmrr.cli", "run", name]
    for param in params:
        argv += ["--params", param]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(argv, capture_output=True, text=True, timeout=10, env=env)
    assert done.returncode == EXIT_FORMAT, done.stdout + done.stderr
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("usage error: ")
    assert message in done.stderr
