"""Dining philosophers in three concurrency models.

The same contention pattern (N philosophers competing for N shared forks)
expressed with locks, transactions, and rendezvous channels. Each
variant reports per-philosopher meal counts plus a digest of the global
meal order, which is exactly the nondeterministic outcome replay must
reproduce. Deadlock is avoided by ordered fork acquisition.
"""

from __future__ import annotations

from ..channels import Channel
from ..locks import RRLock
from ..runtime import spawn_process, spawn_thread
from ..stm import TxRef, atomic
from .support import int_param, sequence_digest


def philosophers_locks(params: dict) -> dict:
    n = int_param(params, "philosophers", 5)
    rounds = int_param(params, "rounds", 200)
    forks = [RRLock() for _ in range(n)]
    table_lock = RRLock()
    meal_order: list[int] = []
    meals = [0] * n

    def philosopher(i: int) -> None:
        first, second = sorted((i, (i + 1) % n))
        for _ in range(rounds):
            with forks[first]:
                with forks[second]:
                    with table_lock:
                        meal_order.append(i)
                    meals[i] += 1

    threads = [spawn_thread(philosopher, i, name=f"phil-{i}") for i in range(n)]
    for t in threads:
        t.join()
    return {"meals": meals, "order_digest": sequence_digest(meal_order)}


def philosophers_stm(params: dict) -> dict:
    n = int_param(params, "philosophers", 5)
    rounds = int_param(params, "rounds", 200)
    meal_refs = [TxRef(0, f"meals-{i}") for i in range(n)]
    order_ref = TxRef((), "meal-order")

    def philosopher(i: int) -> None:
        def eat():
            order_ref.set(order_ref.get() + (i,))
            meal_refs[i].set(meal_refs[i].get() + 1)

        for _ in range(rounds):
            atomic(eat)

    threads = [spawn_thread(philosopher, i, name=f"phil-{i}") for i in range(n)]
    for t in threads:
        t.join()
    return {
        "meals": [ref.get() for ref in meal_refs],
        "order_digest": sequence_digest(order_ref.get()),
    }


def philosophers_csp(params: dict) -> dict:
    # A lone philosopher would write twice to a fork that awaits its put.
    n = int_param(params, "philosophers", 5, least=2)
    rounds = int_param(params, "rounds", 200)
    take = [Channel() for _ in range(n)]
    put = [Channel() for _ in range(n)]
    log_ch = Channel()
    done_ch = Channel()

    def fork(i: int) -> None:
        # Each fork serves its two neighbors; one take/put pair per use.
        for _ in range(2 * rounds):
            take[i].read()
            put[i].read()

    def philosopher(i: int) -> None:
        first, second = sorted((i, (i + 1) % n))
        for _ in range(rounds):
            take[first].write(i)
            take[second].write(i)
            log_ch.write(i)
            put[second].write(i)
            put[first].write(i)

    def logger() -> None:
        order = [log_ch.read() for _ in range(n * rounds)]
        done_ch.write(order)

    procs = [spawn_process(fork, i, name=f"fork-{i}") for i in range(n)]
    procs += [spawn_process(philosopher, i, name=f"phil-{i}") for i in range(n)]
    procs.append(spawn_process(logger, name="logger"))
    order = done_ch.read()
    for p in procs:
        p.join()
    meals = [order.count(i) for i in range(n)]
    return {"meals": meals, "order_digest": sequence_digest(order)}
