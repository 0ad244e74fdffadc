"""The one way to run a task batch: a lookup and a loop.

*What* a batch computes is its task list; *how* it runs is three values
— worker processes, campaign store, telemetry registry — none of which
may change a row.  :class:`RunConfig` carries them as one frozen,
validated value from the CLI flags (or a library caller) down to
:func:`run_batch`, which

* looks every task's fingerprint up in the run's one store **before
  anything is queued**: hits go straight into their result slots and
  only missing cells run (an all-hits batch builds no executor and
  compiles no topology);
* runs the missing cells on one
  :class:`~repro.runner.supervisor.SupervisedExecutor` — in-process on
  the caller's engine and cache, or a worker pool;
* ``put``-s each result into the store **as it settles**, through the
  executor's ``on_settled`` callback, so a failed or interrupted run
  keeps every cell it finished, and rerunning it executes only the rest.

The result list is bit-identical at any worker count and persistence
state: every task is a pure function of its descriptor, so *where* it
runs can never change *what* it returns.  Telemetry lands under
``scheduler.tasks``, ``scheduler.store_hits`` and ``scheduler.executed``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner.cache import BaselineCache
from repro.runner.fingerprint import task_fingerprint
from repro.runner.supervisor import SupervisedExecutor
from repro.runner.tasks import WorkerSpec
from repro.store.store import MISSING, get_active_store
from repro.telemetry.metrics import RunMetrics

__all__ = ["RunConfig", "run_batch"]


@dataclass(frozen=True)
class RunConfig:
    """How a task batch runs — never what it computes.

    Rows, fingerprints and stored records are identical under every
    value of every field; ``RunConfig()`` is the plain path (serial,
    in-process, nothing persisted, nothing recorded).
    """

    #: pool size; ``None``/``0``/``1`` run serially in-process.
    workers: int | None = None
    #: content-addressed store consulted before and fed after every
    #: task (``get(fp, default)`` / ``put(fp, value)``), e.g. a
    #: :class:`~repro.store.CampaignStore` directory;
    #: ``None`` falls back to the ambient :func:`~repro.store.use_store`
    #: binding.  Its lifetime stays with the caller.
    store: Any = None
    #: registry the run's telemetry is recorded into.
    metrics: RunMetrics | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise SimulationError(f"worker count must be >= 0, got {self.workers}")


def run_batch(
    engine: PropagationEngine,
    tasks: Sequence[Any],
    run: RunConfig = RunConfig(),
    *,
    cache: BaselineCache | None = None,
    monitors: tuple[int, ...] | None = None,
    prepare: Callable[[Any, list[Any]], None] | None = None,
) -> list[Any]:
    """Run ``tasks`` on ``engine``'s topology as ``run`` says; results
    in task order.

    Recorded cells replay from the store (``run.store``, else the
    ambient binding); only missing cells run, each recorded as it
    settles.  The first failure ends the batch with the executor's
    error, after every cell that settled before it was recorded.
    Serially the executor adopts ``engine`` and ``cache`` and records
    straight into ``run.metrics``; a pooled run builds its own contexts
    and merges the deltas its workers ship back, so the deterministic
    counters are identical for every worker count.  ``monitors`` is the
    fleet of tasks that run detection; ``prepare(ctx, missing_tasks)``
    is a warm-up run on the serial context before the loop.
    """
    metrics = run.metrics
    store = run.store if run.store is not None else get_active_store()
    fingerprints = [task_fingerprint(task) for task in tasks]
    results = [
        MISSING if store is None else store.get(fp, MISSING) for fp in fingerprints
    ]
    todo = [index for index, value in enumerate(results) if value is MISSING]
    if metrics is not None and metrics.enabled:
        hits = len(results) - len(todo)
        for name, n in (("tasks", len(results)), ("store_hits", hits), ("executed", len(todo))):
            if n:
                metrics.count(f"scheduler.{name}", n)
    if not todo:
        return results
    spec = WorkerSpec(
        engine.graph,
        monitors=monitors,
        metrics_enabled=metrics is not None and metrics.enabled,
    )
    batch = [tasks[index] for index in todo]

    def record(position: int, value: Any) -> None:
        store.put(fingerprints[todo[position]], value)

    with SupervisedExecutor(
        spec, workers=run.workers, engine=engine, cache=cache, metrics=metrics
    ) as executor:
        if prepare is not None and executor.context is not None:
            prepare(executor.context, batch)
        values = executor.run(batch, None if store is None else record)
    for index, value in zip(todo, values):
        results[index] = value
    return results
