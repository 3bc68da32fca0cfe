"""Actor benchmarks: message ping-pong, producer/counter, and a
fork/join-style actor-creation tree.

All three complete through a latch the actors count down, so the whole
run, including the cross-model thread/actor hand-off at the end, is part
of the recorded behavior.
"""

from __future__ import annotations

from ..activities import current_activity
from ..actors import Promise, send
from ..runtime import spawn_actor
from .support import CompletionLatch, int_param


def pingpong(params: dict) -> dict:
    rounds = int_param(params, "rounds", 800)
    latch = CompletionLatch(1)
    counts = {"ping": 0, "pong": 0}
    refs = {}

    def ping_handler(msg):
        if msg == "start":
            send(refs["pong"], rounds)
            return
        counts["ping"] += 1
        if msg > 0:
            send(refs["pong"], msg - 1)
        else:
            latch.count_down()

    def pong_handler(msg):
        counts["pong"] += 1
        send(refs["ping"], msg)

    refs["ping"] = spawn_actor(ping_handler, name="ping")
    refs["pong"] = spawn_actor(pong_handler, name="pong")
    send(refs["ping"], "start")
    latch.wait()
    return {"rounds": rounds, "ping": counts["ping"], "pong": counts["pong"]}


def counting(params: dict) -> dict:
    count = int_param(params, "count", 1500)
    latch = CompletionLatch(1)
    result = {}
    state = {"total": 0}

    def counter_handler(msg):
        if isinstance(msg, Promise):
            msg.resolve(state["total"])
        else:
            state["total"] += msg

    def producer_handler(counter):
        for _ in range(count):
            send(counter, 1)
        reply = Promise()
        send(counter, reply)

        def on_total(total):
            result["total"] = total
            latch.count_down()

        reply.when_resolved(on_total)

    counter = spawn_actor(counter_handler, name="counter")
    producer = spawn_actor(producer_handler, name="producer")
    send(producer, counter)
    latch.wait()
    return {"sent": count, "total": result["total"]}


def fj_creation(params: dict) -> dict:
    # Without children a node never finishes; below depth 0 none is a leaf.
    fanout = int_param(params, "fanout", 5, least=1)
    depth = int_param(params, "depth", 3, least=0)
    latch = CompletionLatch(1)
    result = {}

    def make_node():
        # Subtree sizes travel up in the done messages; actors share no
        # state with each other.
        state = {"parent": None, "remaining": 0, "subtree": 1}

        def handler(msg):
            kind = msg[0]
            if kind == "start":
                _, parent, level = msg
                state["parent"] = parent
                if level == 0:
                    _finish()
                    return
                state["remaining"] = fanout
                me = current_activity()
                for _ in range(fanout):
                    child = spawn_actor(make_node())
                    send(child, ("start", me, level - 1))
            else:  # ("done", subtree_size)
                state["subtree"] += msg[1]
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    _finish()

        def _finish():
            if state["parent"] is None:
                result["total"] = state["subtree"]
                latch.count_down()
            else:
                send(state["parent"], ("done", state["subtree"]))

        return handler

    root = spawn_actor(make_node(), name="fj-root")
    send(root, ("start", None, depth))
    latch.wait()
    expected = sum(fanout ** i for i in range(depth + 1))
    return {
        "fanout": fanout,
        "depth": depth,
        "actors": result["total"],
        "expected": expected,
    }
