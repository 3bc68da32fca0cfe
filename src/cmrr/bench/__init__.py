"""Built-in benchmark programs and their registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import UsageError
from ..runtime import Execution, PerturbationPlan, RunResult
from ..tracefile import ActorStrategy
from ..tracing import DEFAULT_WATCHDOG_SECONDS, ExecutionMode
from .actor_suite import counting, fj_creation, pingpong
from .philosophers import philosophers_csp, philosophers_locks, philosophers_stm
from .sales import sales_pipeline


@dataclass(frozen=True)
class BenchmarkSpec:
    """A registered benchmark: entry point plus defaults and metadata."""

    name: str
    func: Callable[[dict], dict]
    paradigms: tuple[str, ...]
    defaults: dict = field(default_factory=dict)
    description: str = ""


REGISTRY: dict[str, BenchmarkSpec] = {}


def _register(spec: BenchmarkSpec) -> None:
    REGISTRY[spec.name] = spec


_register(BenchmarkSpec(
    "philosophers-locks", philosophers_locks, ("locks",),
    {"philosophers": 5, "rounds": 200},
    "dining philosophers on reentrant locks",
))
_register(BenchmarkSpec(
    "philosophers-stm", philosophers_stm, ("stm",),
    {"philosophers": 5, "rounds": 200},
    "dining philosophers as transactions on shared cells",
))
_register(BenchmarkSpec(
    "philosophers-csp", philosophers_csp, ("csp",),
    {"philosophers": 5, "rounds": 200},
    "dining philosophers with forks as rendezvous channels",
))
_register(BenchmarkSpec(
    "pingpong-actors", pingpong, ("actors",),
    {"rounds": 800},
    "two actors bouncing a counter",
))
_register(BenchmarkSpec(
    "counting-actors", counting, ("actors",),
    {"count": 1500},
    "producer floods a counter actor, result returned via promise",
))
_register(BenchmarkSpec(
    "fj-creation-actors", fj_creation, ("actors",),
    {"fanout": 5, "depth": 3},
    "fork/join tree of short-lived actors",
))
_register(BenchmarkSpec(
    "sales-pipeline", sales_pipeline, ("actors", "csp", "stm", "locks"),
    {"records": 50, "projects": 4, "feed_seed": 42},
    "multi-model sales processing: simulator, CSP JSON parsing, STM storage, threaded forecast",
))


def run_benchmark(
    name: str,
    mode: ExecutionMode | str,
    strategy: ActorStrategy | str | None = None,
    trace_path: Optional[str] = None,
    sink: str = "file",
    seed: Optional[int] = None,
    params: Optional[dict] = None,
    watchdog_seconds: float = DEFAULT_WATCHDOG_SECONDS,
    pool_size: Optional[int] = None,
) -> RunResult:
    """Run one registered benchmark under the given execution mode.

    An unknown benchmark name or parameter key raises ``UsageError``.
    """
    spec = REGISTRY.get(name)
    if spec is None:
        raise UsageError(f"unknown benchmark {name!r}; known: {', '.join(sorted(REGISTRY))}")
    merged = dict(spec.defaults)
    for key, value in (params or {}).items():
        if key not in spec.defaults:
            raise UsageError(f"benchmark {name} has no parameter {key!r}; "
                             f"known: {', '.join(spec.defaults)}")
        merged[key] = value
    perturb = PerturbationPlan(seed) if seed is not None else None
    execution = Execution(
        mode,
        strategy=strategy,
        trace_path=trace_path,
        sink=sink,
        watchdog_seconds=watchdog_seconds,
        pool_size=pool_size,
        perturb=perturb,
    )
    return execution.run(spec.func, merged)
