"""The one way to run a task batch: store-aware, sharded, supervised.

A batch is a list of pure, fingerprinted tasks.  Every production
caller — the sweep harnesses, ``InterceptionStudy.campaign`` — hands it
through :func:`repro.runner.run_batch` to a :class:`ShardedScheduler`, which

* consults persistence **once, before anything is queued**: each
  fingerprint is looked up in the attached
  :class:`~repro.store.CampaignStore` and/or
  :class:`~repro.runner.checkpoint.CheckpointJournal`, hits go straight
  into their result slots and only missing cells are scheduled (an
  all-hits batch builds no executor, compiles no topology);
* splits the missing cells round-robin over ``shards`` lazily built
  :class:`~repro.runner.supervisor.SupervisedExecutor` workers (each
  with its own context or worker pool) and lets idle shards steal queued
  work from busy ones;
* records each result **as it settles**, through the executor's
  ``on_settled`` callback — so an interrupted run keeps every cell it
  finished, at any shard count, whichever persistence is attached.

``shards=1``, ``workers=1``, no store and no journal is the plain path:
one in-process context (the caller's engine and cache, adopted), the
``prepare`` warm-up, then the task loop.  The result list is
bit-identical at any shard and worker count — every task is a pure
function of its descriptor, so *where* it runs can never change *what*
it returns — and fault plans key on task fingerprints, not on
placement, so seeded chaos runs are shard-count-independent too.

Telemetry lands under ``scheduler.*`` on every run:
``scheduler.tasks``, ``scheduler.store_hits``, ``scheduler.executed``,
``scheduler.steals`` and ``scheduler.stolen_tasks``; journal replays
count as ``runner.resumed_tasks``.
"""

from __future__ import annotations

import threading
from collections import deque
from functools import partial
from typing import Any, Callable, NamedTuple, Sequence

from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner.cache import BaselineCache
from repro.runner.checkpoint import task_fingerprint
from repro.runner.executor import resolve_workers
from repro.runner.supervisor import RetryPolicy, SupervisedExecutor, TaskFailure
from repro.runner.tasks import WorkerSpec
from repro.telemetry.metrics import RunMetrics

__all__ = ["ShardedScheduler"]

#: "no recorded result": the default handed to the duck-typed
#: ``store.get`` (the runner layer deliberately does not import
#: :mod:`repro.store`) and the filler of result slots not yet computed.
_MISS = object()


class _QueuedTask(NamedTuple):
    index: int
    task: Any
    fp: str


class ShardedScheduler:
    """Fan a fingerprinted task list over store-deduped, stealing shards.

    ``workers`` is the pool size *per shard* (``None``/``0``/``1`` =
    serial in-process shards).  A caller ``engine``/``cache`` is adopted
    only at ``shards=1`` with serial workers (as ``run_batch`` does);
    their previous metrics attachment is restored by :meth:`close`.

    ``store`` is duck-typed (``get(fp, default)`` / ``put(fp, value)``):
    anything content-addressed by the same task fingerprints works.
    ``journal`` speaks the :class:`CheckpointJournal` protocol
    (``completed`` / ``result_for`` / ``record_success`` /
    ``record_failure``); its lifetime stays with the caller.  Successes
    go to both; failures only to the journal — the store is truth about
    completed work, and a quarantined task should be retried by the
    next run, not remembered forever.

    ``prepare(ctx, tasks)`` is an optional warm-up hook invoked with a
    serial shard's context and the tasks it is about to run — the sweep
    layer uses it to batch impact cells and prefetch baseline families
    for *missing* cells only.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        shards: int = 1,
        workers: int | None = None,
        retry: RetryPolicy | None = None,
        store: Any = None,
        journal: Any = None,
        fingerprint_context: str | None = None,
        metrics: RunMetrics | None = None,
        engine: PropagationEngine | None = None,
        cache: BaselineCache | None = None,
        prepare: Callable[[Any, list[Any]], None] | None = None,
    ) -> None:
        if shards < 1:
            raise SimulationError(f"shards must be >= 1, got {shards}")
        if engine is not None and (shards != 1 or resolve_workers(workers) != 1):
            raise SimulationError(
                "engine/cache adoption requires shards=1 and serial workers; "
                "sharded and pooled schedulers build their own contexts"
            )
        self.spec = spec
        self.shards = shards
        self.workers = workers
        self.retry = retry
        self.store = store
        self.journal = journal
        self.fingerprint_context = fingerprint_context
        self.metrics = metrics
        self.prepare = prepare
        self._engine = engine
        self._cache = cache
        # A serial context wires the run's registry into the engine and
        # cache it adopts; close() puts these back.
        self._engine_metrics = engine.metrics if engine is not None else None
        self._cache_metrics = cache.metrics if cache is not None else None
        self._lock = threading.Lock()
        self._executors: dict[int, SupervisedExecutor] = {}
        self._shard_metrics: dict[int, RunMetrics] = {}
        self._closed = False
        #: counters of the most recent :meth:`run`, for callers without
        #: a metrics registry (tests, CLI summaries).
        self.stats: dict[str, int] = {}

    # -- telemetry ------------------------------------------------------
    def _enabled(self) -> bool:
        return self.metrics is not None and self.metrics.enabled

    def _count(self, name: str, n: int = 1) -> None:
        if self._enabled() and n:
            self.metrics.count(name, n)

    # -- executors ------------------------------------------------------
    def _executor(self, shard: int) -> SupervisedExecutor:
        """Build shard executors lazily: an all-hits run never compiles
        a topology, and only shards that actually receive work pay for
        a context."""
        executor = self._executors.get(shard)
        if executor is not None:
            return executor
        registry = self.metrics
        if self.shards > 1 and self._enabled():
            # one registry per shard thread, merged when the threads join
            registry = self._shard_metrics[shard] = RunMetrics()
        executor = SupervisedExecutor(
            self.spec,
            workers=self.workers,
            engine=self._engine,
            cache=self._cache,
            metrics=registry,
            retry=self.retry,
            fingerprint_context=self.fingerprint_context,
        )
        self._executors[shard] = executor
        return executor

    # -- entry point ----------------------------------------------------
    def run(self, tasks: Sequence[Any]) -> list[Any]:
        """Execute ``tasks``; results in task order, recorded ones replayed.

        The store is asked first, then the journal; a journal hit is
        lifted into the store, so a ``--resume`` journal keeps serving
        later store runs.
        """
        if self._closed:
            raise SimulationError(
                "ShardedScheduler is closed; build a new scheduler for "
                "further batches"
            )
        tasks = list(tasks)
        results: list[Any] = [_MISS] * len(tasks)
        todo: list[_QueuedTask] = []
        hits = resumed = 0
        for index, task in enumerate(tasks):
            fp = task_fingerprint(task, self.fingerprint_context)
            value = _MISS
            if self.store is not None:
                value = self.store.get(fp, _MISS)
                hits += value is not _MISS
            if (
                value is _MISS
                and self.journal is not None
                and self.journal.completed(fp)
            ):
                value = self.journal.result_for(fp)
                resumed += 1
                if self.store is not None:
                    self.store.put(fp, value)
            if value is _MISS:
                todo.append(_QueuedTask(index, task, fp))
            else:
                results[index] = value
        self.stats = {
            "tasks": len(tasks),
            "store_hits": hits,
            "executed": len(todo),
            "steals": 0,
            "stolen_tasks": 0,
        }
        self._count("scheduler.tasks", len(tasks))
        self._count("scheduler.store_hits", hits)
        self._count("scheduler.executed", len(todo))
        self._count("runner.resumed_tasks", resumed)
        if todo:
            queues: list[deque] = [deque() for _ in range(self.shards)]
            for position, queued in enumerate(todo):
                queues[position % self.shards].append(queued)
            if self.shards == 1:
                self._run_shard(0, queues, results)
            else:
                self._run_threads(queues, results)
        assert all(value is not _MISS for value in results)
        return results

    def _record(self, chunk: list[_QueuedTask], position: int, value: Any) -> None:
        """Persist one settled result.  Shard threads call this as each
        task lands; the lock gives the journal and store one writer at
        a time.  Successes go to both, failures only to the journal."""
        fp = chunk[position].fp
        with self._lock:
            if isinstance(value, TaskFailure):
                if self.journal is not None:
                    self.journal.record_failure(
                        fp, kind=value.kind, attempts=value.attempts, error=value.error
                    )
                return
            if self.journal is not None:
                self.journal.record_success(fp, value)
            if self.store is not None:
                self.store.put(fp, value)

    def _take(self, queues: list[deque], shard: int) -> list[_QueuedTask]:
        """Drain the shard's own queue, or steal half the longest one.

        Own work comes off in order; a steal takes the *tail* half of
        the most loaded queue (classic work-stealing discipline: the
        owner keeps the head it is about to run).
        """
        with self._lock:
            own = queues[shard]
            if own:
                chunk = list(own)
                own.clear()
                return chunk
            victim = max(range(len(queues)), key=lambda q: len(queues[q]))
            loot = queues[victim]
            if not loot:
                return []
            take = (len(loot) + 1) // 2
            stolen = [loot.pop() for _ in range(take)]
            stolen.reverse()
            self.stats["steals"] += 1
            self.stats["stolen_tasks"] += take
            self._count("scheduler.steals")
            self._count("scheduler.stolen_tasks", take)
            return stolen

    def _run_shard(self, shard: int, queues: list[deque], results: list[Any]) -> None:
        """One shard's loop: take a chunk, warm up, run, repeat."""
        executor = self._executor(shard)
        persist = self.store is not None or self.journal is not None
        while chunk := self._take(queues, shard):
            batch = [queued.task for queued in chunk]
            if self.prepare is not None and executor.context is not None:
                self.prepare(executor.context, batch)
            values = executor.run(
                batch, partial(self._record, chunk) if persist else None
            )
            for queued, value in zip(chunk, values):
                results[queued.index] = value

    def _run_threads(self, queues: list[deque], results: list[Any]) -> None:
        errors: list[BaseException] = []

        def shard_loop(shard: int) -> None:
            try:
                self._run_shard(shard, queues, results)
            except BaseException as exc:  # noqa: BLE001 - reraised below
                with self._lock:
                    errors.append(exc)

        threads = [
            threading.Thread(
                target=shard_loop, args=(shard,), name=f"repro-shard-{shard}"
            )
            for shard, queue in enumerate(queues)
            if queue
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for registry in self._shard_metrics.values():
            self.metrics.merge(registry.take())
        if errors:
            raise errors[0]

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for executor in self._executors.values():
            executor.close()
        if self._engine is not None:
            self._engine.metrics = self._engine_metrics
        if self._cache is not None:
            self._cache.metrics = self._cache_metrics

    def __enter__(self) -> "ShardedScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
