"""The one way to run a task batch: a lookup and a loop.

*What* a batch computes is its task list; *how* it runs is three values
— worker processes, campaign store, telemetry registry — none of which
may change a row.  :class:`RunConfig` carries them as one frozen,
validated value from the CLI flags (or a library caller) down to
:func:`run_batch`, which

* looks every task's fingerprint up in the run's one store **before
  anything is queued**: hits go straight into their result slots and
  only missing cells run (an all-hits batch builds no context and
  compiles no topology);
* runs the missing cells inline on one
  :class:`~repro.runner.tasks.WorkerContext` over the caller's engine
  and cache, or on one forked pool (:func:`~repro.runner.executor.run_pooled`);
* ``put``-s each result into the store **as it settles**, so a failed
  or interrupted run keeps every cell it finished, and rerunning it
  executes only the rest.

The result list is bit-identical at any worker count and persistence
state: every task is a pure function of its descriptor, so *where* it
runs can never change *what* it returns.  Telemetry lands under
``scheduler.tasks``, ``scheduler.store_hits`` and ``scheduler.executed``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner.cache import BaselineCache
from repro.runner.fingerprint import task_fingerprint
from repro.runner.executor import execute_task, resolve_workers, run_pooled
from repro.runner.tasks import WorkerContext
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
) -> list[Any]:
    """Run ``tasks`` on ``engine``'s topology as ``run`` says; results
    in task order.

    Recorded cells replay from the store (``run.store``, else the
    ambient binding); only missing cells run, each recorded as it
    settles.  The first failure ends the batch with the cell's own
    error, after every cell that settled before it was recorded.
    Serially the batch runs on ``engine`` and ``cache`` with
    ``run.metrics`` wired in, its valid sweep points first as one
    impact-kernel batch (:meth:`WorkerContext.park_impact`; an invalid
    one raises at its own turn), and each gets its own registry back;
    a pooled run builds its own
    contexts and merges the deltas its workers ship back, so the
    deterministic counters are identical for every worker count.
    ``monitors`` is the fleet of tasks that run detection.
    """
    metrics = run.metrics
    store = run.store if run.store is not None else get_active_store()
    fingerprints = [task_fingerprint(task) for task in tasks]
    results = [
        MISSING if store is None else store.get(fp, MISSING) for fp in fingerprints
    ]
    todo = [index for index, value in enumerate(results) if value is MISSING]
    if metrics is not None:
        hits = len(results) - len(todo)
        for name, n in (("tasks", len(results)), ("store_hits", hits), ("executed", len(todo))):
            if n:
                metrics.count(f"scheduler.{name}", n)
    if not todo:
        return results
    batch = [tasks[index] for index in todo]
    on_settled = None if store is None else (lambda i, v: store.put(fingerprints[todo[i]], v))
    workers = resolve_workers(run.workers)
    if workers > 1:
        values = run_pooled(
            engine.graph, batch, workers, monitors=monitors, metrics=metrics, on_settled=on_settled
        )
    else:
        values = []
        adopted = [(each, each.metrics) for each in (engine, cache) if each is not None]
        try:
            ctx = WorkerContext(engine, cache=cache, monitors=monitors, metrics=metrics)
            ctx.park_impact(batch)
            for position, task in enumerate(batch):
                values.append(execute_task(task, ctx))
                if on_settled is not None:
                    on_settled(position, values[-1])
        finally:
            for each, registry in adopted:
                each.metrics = registry
    for index, value in zip(todo, values):
        results[index] = value
    return results
