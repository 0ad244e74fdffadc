"""The executor: one batch of tasks, serially or over a pool.

:class:`SupervisedExecutor` is what :func:`repro.runner.run_batch` runs
a batch's missing cells on: inline against one
:class:`~repro.runner.tasks.WorkerContext`, or on a
forked ``ProcessPoolExecutor`` whose workers inherit the parent's graph
and the topology compiled on it.  ``run(tasks, on_settled=...)`` reports
each result the moment it settles, so a caller that persists them
(``run_batch`` puts each into the run's store) keeps every cell that
finished before a failure.  The first failure then ends the batch, by
one rule on every route: a task that raises re-raises its own
exception; a worker death (OOM, a kill) raises one
:class:`SimulationError` naming the cells in flight; a pool that
cannot start raises one :class:`SimulationError`.  Nothing is retried:
a task is a pure function of its descriptor, so a cell that raised
raises again, and a rerun on the same store executes only the cells
that had not settled.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from collections.abc import Callable, Iterable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.bgp.compiled import CompiledTopology
from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner.cache import BaselineCache
from repro.runner.executor import _init_worker, _run_task, execute_task, resolve_workers
from repro.runner.fingerprint import task_fingerprint
from repro.runner.tasks import WorkerContext, WorkerSpec
from repro.telemetry.metrics import RunMetrics

__all__ = ["SupervisedExecutor"]

#: Several executors can be live in one process (a caller's own
#: threads).  A fork copies every lock in the process as it stands, so
#: a worker forked while another thread is half-way through launching
#: its own pool inherits whatever that launch holds and can hang on it.
#: Executors therefore take turns at building a pool, which forks all
#: of its workers at once.
_FORK_LOCK = threading.RLock()


class SupervisedExecutor:
    """Runs task batches, serially in-process or across a process pool.

    With an effective worker count of 1 the executor builds (or adopts,
    via ``engine``/``cache``) one :class:`WorkerContext` and runs tasks
    inline — the identical code path per task, no pickling; a pool,
    built on first use, ignores ``engine``/``cache`` and each worker
    initialises its own context from ``spec``.  Use as a context
    manager (or call :meth:`close`) so pool processes are reaped and an
    adopted engine and cache get their own metrics registry back.  A
    closed executor is dead: :meth:`run` raises instead of respawning a
    pool.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        workers: int | None = None,
        engine: PropagationEngine | None = None,
        cache: BaselineCache | None = None,
        metrics: RunMetrics | None = None,
    ) -> None:
        self.spec = spec
        self.workers = resolve_workers(workers)
        self._pool: ProcessPoolExecutor | None = None
        self._context: WorkerContext | None = None
        self._pool_metrics: RunMetrics | None = None
        self._closed = False
        # A serial context wires the run's registry into the engine and
        # cache it adopts; close() puts their own registries back.
        self._adopted: list[tuple[Any, RunMetrics | None]] = []
        if self.workers == 1:
            self._adopted = [
                (each, each.metrics) for each in (engine, cache) if each is not None
            ]
            self._context = WorkerContext(
                spec, engine=engine, cache=cache, metrics=metrics
            )
        elif metrics is not None:
            # The caller's registry is the effective pool registry even
            # when the spec itself ships unmetered workers.
            self._pool_metrics = metrics
        elif spec.metrics_enabled:
            self._pool_metrics = RunMetrics()

    @property
    def context(self) -> WorkerContext | None:
        """The in-process context (serial mode only)."""
        return self._context

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def metrics(self) -> RunMetrics | None:
        """The run's registry (``None`` when metrics are off): serially
        the context's, pooled the sum of the deltas the workers ship."""
        if self._context is not None:
            return self._context.metrics if self._context.metrics.enabled else None
        return self._pool_metrics

    def close(self) -> None:
        self._closed = True
        self._discard_pool()
        for adopted, registry in self._adopted:
            adopted.metrics = registry

    def __enter__(self) -> "SupervisedExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- entry point ----------------------------------------------------
    def run(
        self,
        tasks: Iterable[Any],
        on_settled: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Execute ``tasks``, returning results in task order;
        ``on_settled(index, value)`` is called as each one settles."""
        if self._closed:
            raise SimulationError(
                "SupervisedExecutor is closed; build a new executor for "
                "further batches"
            )
        tasks = list(tasks)
        results: list[Any] = [None] * len(tasks)

        def settle(index: int, value: Any) -> None:
            results[index] = value
            if on_settled is not None:
                on_settled(index, value)

        if self._context is None:
            self._run_pool(tasks, settle, on_settled is not None)
        else:
            for index, task in enumerate(tasks):
                settle(index, execute_task(task, self._context))
        return results

    # -- pool lifecycle -------------------------------------------------
    def _get_pool(self) -> ProcessPoolExecutor:
        """The live pool, built on first use."""
        if self._pool is None:
            # Compiled here, once, and the workers are forked, never
            # spawned: each inherits the graph and this compiled form,
            # where a spawned or forkserver worker (Python 3.14's
            # default) would unpickle the graph and compile it again.
            CompiledTopology.of(self.spec.graph)
            try:
                with _FORK_LOCK:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=multiprocessing.get_context("fork"),
                        initializer=_init_worker,
                        initargs=(self.spec,),
                    )
                    # A fork-context pool launches all its workers on
                    # the first submit; make that happen here, under
                    # the lock, not at the batch's first task.
                    self._pool.submit(os.getpid)
            except Exception as exc:
                self._discard_pool(kill=True)
                raise SimulationError(
                    f"could not start a pool of {self.workers} workers: {exc!r}"
                ) from exc
        return self._pool

    def _discard_pool(self, *, kill: bool = False) -> None:
        """Tear down the current pool (if any); ``kill`` first, so a
        failed batch does not wait on its cells."""
        pool, self._pool = self._pool, None
        if pool is not None:
            if kill:
                for proc in list(getattr(pool, "_processes", {}).values() or []):
                    try:
                        proc.kill()
                    except Exception:  # pragma: no cover - already dead
                        pass
            try:
                pool.shutdown(wait=not kill, cancel_futures=kill)
            except Exception:  # pragma: no cover - broken pool teardown
                pass

    # -- pool path ------------------------------------------------------
    def _run_pool(
        self, tasks: list[Any], settle: Callable[[int, Any], None], persisted: bool
    ) -> None:
        pool = self._get_pool()
        queue = iter(enumerate(tasks))
        inflight: dict[Future, int] = {}
        settled = 0
        # A bounded in-flight window: a failure leaves at most this many
        # cells unsettled, and the pool is never handed the whole batch.
        window = max(2, 2 * self.workers)
        try:
            while True:
                try:
                    for index, task in itertools.islice(queue, window - len(inflight)):
                        inflight[pool.submit(_run_task, task)] = index
                except BrokenProcessPool:
                    raise self._worker_death(tasks, inflight, settled, persisted) from None
                if not inflight:
                    return
                done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
                # Settle every success of the round before raising its
                # first failure, in submission order.
                failures = []
                for future in [f for f in inflight if f in done]:
                    if future.exception() is not None:
                        failures.append(future.exception())
                        continue
                    result, delta = future.result()
                    if delta is not None and self._pool_metrics is not None:
                        self._pool_metrics.merge(delta)
                    settle(inflight.pop(future), result)
                    settled += 1
                if failures and isinstance(failures[0], BrokenProcessPool):
                    raise self._worker_death(tasks, inflight, settled, persisted)
                if failures:
                    raise failures[0]
        except BaseException:
            # a failure ends the batch: do not wait for the cells in flight
            self._discard_pool(kill=True)
            raise

    @staticmethod
    def _worker_death(tasks, inflight, settled, persisted) -> SimulationError:
        cells = ", ".join(
            f"{tasks[i]!r} [{task_fingerprint(tasks[i])[:12]}]" for i in sorted(inflight.values())
        )
        advice = (
            "rerun the same command to finish"
            if persisted
            else "pass --store DIR to keep settled cells across a rerun"
        )
        return SimulationError(
            f"a pool worker died with {len(inflight)} cell(s) in flight: {cells}; "
            f"{settled} of {len(tasks)} cells settled; {advice}"
        )
