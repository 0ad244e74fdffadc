"""The one way to run a task batch: a lookup and a loop.

A batch is a list of pure, fingerprinted tasks.  Every production
caller — the sweep harnesses, ``InterceptionStudy.campaign`` — hands it
through :func:`repro.runner.run_batch` to a :class:`ShardedScheduler`, which

* looks every fingerprint up in its stores **once, before anything is
  queued**: hits go straight into their result slots and only missing
  cells are scheduled (an all-hits batch builds no executor, compiles
  no topology);
* runs the missing cells on one lazily built
  :class:`~repro.runner.supervisor.SupervisedExecutor` — in-process, or
  a supervised worker pool;
* ``put``-s each result into every store **as it settles**, through the
  executor's ``on_settled`` callback — so an interrupted run keeps every
  cell it finished.

``workers=1`` and no store is the plain path: one in-process context
(the caller's engine and cache, adopted), the ``prepare`` warm-up, then
the task loop.  The result list is bit-identical at any worker count
and persistence state — every task is a pure function of its
descriptor, so *where* it runs can never change *what* it returns.

Telemetry lands under ``scheduler.*`` on every run:
``scheduler.tasks``, ``scheduler.store_hits`` and ``scheduler.executed``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner.cache import BaselineCache
from repro.runner.executor import resolve_workers
from repro.runner.fingerprint import task_fingerprint
from repro.runner.supervisor import RetryPolicy, SupervisedExecutor, TaskFailure
from repro.runner.tasks import WorkerSpec
from repro.store.store import MISSING
from repro.telemetry.metrics import RunMetrics

__all__ = ["ShardedScheduler"]


class ShardedScheduler:
    """Run a fingerprinted task list, replaying what its stores hold.

    ``workers`` is the pool size (``None``/``0``/``1`` = serial,
    in-process).  A caller ``engine``/``cache`` is adopted only with
    serial workers (as ``run_batch`` does); their previous metrics
    attachment is restored by :meth:`close`.

    ``stores`` are asked in order, each speaking ``get(fp, default)`` /
    ``put(fp, value)`` (:class:`~repro.store.CampaignStore`, or anything
    content-addressed by the same task fingerprints); their lifetime
    stays with the caller.  A hit, or a fresh result, is put into the
    others, so every store ends up holding every cell of the batch.
    Only successes are recorded — a store is truth about completed
    work, and a quarantined task should be retried by the next run, not
    remembered forever; its :class:`TaskFailure` is in the result list.

    ``prepare(ctx, tasks)`` is an optional warm-up hook invoked with the
    serial context and the tasks it is about to run — the sweep layer
    uses it to batch impact cells and prefetch baseline families for
    *missing* cells only.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        workers: int | None = None,
        retry: RetryPolicy | None = None,
        stores: Sequence[Any] = (),
        metrics: RunMetrics | None = None,
        engine: PropagationEngine | None = None,
        cache: BaselineCache | None = None,
        prepare: Callable[[Any, list[Any]], None] | None = None,
    ) -> None:
        if engine is not None and resolve_workers(workers) != 1:
            raise SimulationError(
                "engine/cache adoption requires serial workers; "
                "a pooled scheduler builds its own contexts"
            )
        self.spec = spec
        self.workers = workers
        self.retry = retry
        self.stores = tuple(stores)
        self.metrics = metrics
        self.prepare = prepare
        self._engine = engine
        self._cache = cache
        # A serial context wires the run's registry into the engine and
        # cache it adopts; close() puts these back.
        self._engine_metrics = engine.metrics if engine is not None else None
        self._cache_metrics = cache.metrics if cache is not None else None
        self._executor: SupervisedExecutor | None = None
        self._closed = False
        #: counters of the most recent :meth:`run`, for callers without
        #: a metrics registry (tests, CLI summaries).
        self.stats: dict[str, int] = {}

    def _lookup(self, fp: str) -> Any:
        """The first store's record of ``fp``, copied into the others."""
        for store in self.stores:
            value = store.get(fp, MISSING)
            if value is not MISSING:
                for other in self.stores:
                    if other is not store:
                        other.put(fp, value)
                return value
        return MISSING

    # -- entry point ----------------------------------------------------
    def run(self, tasks: Sequence[Any]) -> list[Any]:
        """Execute ``tasks``; results in task order, recorded ones replayed."""
        if self._closed:
            raise SimulationError(
                "ShardedScheduler is closed; build a new scheduler for "
                "further batches"
            )
        tasks = list(tasks)
        fingerprints = [task_fingerprint(task) for task in tasks]
        results = [self._lookup(fp) for fp in fingerprints]
        todo = [index for index, value in enumerate(results) if value is MISSING]
        self.stats = {
            "tasks": len(tasks),
            "store_hits": len(tasks) - len(todo),
            "executed": len(todo),
        }
        if self.metrics is not None and self.metrics.enabled:
            for name, n in self.stats.items():
                if n:
                    self.metrics.count(f"scheduler.{name}", n)
        if not todo:
            return results
        if self._executor is None:
            # built lazily: an all-hits run never compiles a topology
            self._executor = SupervisedExecutor(
                self.spec,
                workers=self.workers,
                engine=self._engine,
                cache=self._cache,
                metrics=self.metrics,
                retry=self.retry,
            )
        batch = [tasks[index] for index in todo]
        if self.prepare is not None and self._executor.context is not None:
            self.prepare(self._executor.context, batch)

        def record(position: int, value: Any) -> None:
            if not isinstance(value, TaskFailure):
                for store in self.stores:
                    store.put(fingerprints[todo[position]], value)

        values = self._executor.run(batch, record if self.stores else None)
        for index, value in zip(todo, values):
            results[index] = value
        return results

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.close()
        if self._engine is not None:
            self._engine.metrics = self._engine_metrics
        if self._cache is not None:
            self._cache.metrics = self._cache_metrics

    def __enter__(self) -> "ShardedScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
