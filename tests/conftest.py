from __future__ import annotations

import sys
import threading

import pytest

from cmrr import Execution, ExecutionMode, encode_event, parse_trace
from cmrr.tracefile import write_trace


@pytest.fixture
def trace_path(tmp_path):
    return str(tmp_path / "run.trc")


def record_run(program, trace_path, *args, strategy=None, seed=None, **kwargs):
    from cmrr import PerturbationPlan

    perturb = PerturbationPlan(seed) if seed is not None else None
    ex = Execution(ExecutionMode.RECORD, strategy=strategy, trace_path=trace_path,
                   perturb=perturb, **kwargs)
    return ex, ex.run(program, *args)


def replay_run(program, trace_path, *args, seed=None, watchdog=5.0, **kwargs):
    from cmrr import PerturbationPlan

    perturb = PerturbationPlan(seed) if seed is not None else None
    ex = Execution(ExecutionMode.REPLAY, trace_path=trace_path,
                   watchdog_seconds=watchdog, perturb=perturb, **kwargs)
    return ex, ex.run(program, *args)


def rewrite_trace(path, edit) -> None:
    """Rewrite the trace file at ``path`` in place: each activity's events
    become ``edit(activity_id, events)``, called with a list of its
    ``TraceEvent``s; the header keeps its strategy flags."""
    trace = parse_trace(path)
    chunks = [(activity_id, b"".join(map(encode_event, edit(activity_id, list(queue.events)))))
              for activity_id, queue in trace.queues.items()]
    write_trace(path, trace.strategy_flags, chunks)


def passive_run(program, *args, **kwargs):
    ex = Execution(ExecutionMode.PASSIVE, **kwargs)
    return ex, ex.run(program, *args)


def note_watchdog_waits(monkeypatch) -> list:
    """Note ``watchdog_wait`` calls: returns a list that gains, per call at
    every binding of the function, ``(monitor, blocked, thread_ident)``,
    ``blocked`` telling whether the predicate was false on entry, as it
    must be, since the wait layer is entered only to park. Waits on the
    execution's run-end monitor (joins and the run's end) are not noted:
    they wait for threads and actors, not for a model operation."""
    from cmrr import tracing

    original = tracing.watchdog_wait
    waits = []

    def noting_wait(cond, predicate, execution):
        if cond is not execution.live_monitor:
            # The caller holds the monitor, so the predicate may be tested.
            waits.append((cond, not predicate(), threading.get_ident()))
        return original(cond, predicate, execution)

    patch_bindings(monkeypatch, original, noting_wait)
    return waits


def count_wasted_wakes(monkeypatch) -> tuple[list, list]:
    """Count the wake-ups of parked model waits that find their predicate
    still false, by wrapping the predicate that every binding of
    ``watchdog_wait`` receives. Returns ``(parked, wasted)``: ``parked``
    gains one entry per wait, which parks, ``wasted`` one per wake-up of
    it that did not end the wait. Run-end waits are left out, as in
    ``note_watchdog_waits``."""
    from cmrr import tracing

    original = tracing.watchdog_wait
    parked, wasted = [], []

    def counting_wait(cond, predicate, execution):
        if cond is execution.live_monitor:
            return original(cond, predicate, execution)
        checks = []

        def counted():
            checks.append(1)
            return predicate()

        original(cond, counted, execution)
        # One check per wake-up; the last one passed.
        parked.append(1)
        wasted.extend(checks[1:])

    patch_bindings(monkeypatch, original, counting_wait)
    return parked, wasted


def patch_bindings(monkeypatch, original, replacement) -> None:
    """Replace ``original`` at every binding in a loaded cmrr module, since
    the substrate functions are imported by name into several modules."""
    for name, module in list(sys.modules.items()):
        if name == "cmrr" or name.startswith("cmrr."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
