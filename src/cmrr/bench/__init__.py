"""Built-in benchmark programs and their registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import UsageError
from ..runtime import Execution, PerturbationPlan, RunResult
from ..tracing import ExecutionMode
from .actor_suite import counting, fj_creation, pingpong
from .philosophers import philosophers_csp, philosophers_locks, philosophers_stm
from .sales import sales_pipeline


@dataclass(frozen=True)
class BenchmarkSpec:
    """A registered benchmark: entry point plus default parameters."""

    name: str
    func: Callable[[dict], dict]
    defaults: dict = field(default_factory=dict)


REGISTRY: dict[str, BenchmarkSpec] = {spec.name: spec for spec in (
    BenchmarkSpec("philosophers-locks", philosophers_locks, {"philosophers": 5, "rounds": 200}),
    BenchmarkSpec("philosophers-stm", philosophers_stm, {"philosophers": 5, "rounds": 200}),
    BenchmarkSpec("philosophers-csp", philosophers_csp, {"philosophers": 5, "rounds": 200}),
    BenchmarkSpec("pingpong-actors", pingpong, {"rounds": 800}),
    BenchmarkSpec("counting-actors", counting, {"count": 1500}),
    BenchmarkSpec("fj-creation-actors", fj_creation, {"fanout": 5, "depth": 3}),
    BenchmarkSpec("sales-pipeline", sales_pipeline,
                  {"records": 50, "projects": 4, "feed_seed": 42}),
)}


def run_benchmark(name: str, mode: ExecutionMode | str, seed: Optional[int] = None,
                  params: Optional[dict] = None, **options) -> RunResult:
    """Run one registered benchmark under the given execution mode.

    ``seed`` selects a ``PerturbationPlan``; ``options`` are passed to
    ``Execution`` as they are. An unknown benchmark name or parameter key
    raises ``UsageError``.
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
    return Execution(mode, perturb=perturb, **options).run(spec.func, merged)
