"""Where a batch's cells execute: :func:`execute_task` against a
:class:`~repro.runner.tasks.WorkerContext`, inline or in a worker of
the one forked pool :func:`run_pooled` builds per batch.

The workers are forked after the parent compiled the topology, so each
inherits the graph and its compiled form and builds its context once.
The first failure ends a pooled batch by the serial loop's rule: a task
re-raises its own exception; a worker death (OOM, a kill) is one
:class:`SimulationError` naming the cells in flight; a pool that cannot
start is one :class:`SimulationError`.  Nothing is retried: a rerun on
the same store executes only the cells that had not settled.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.bgp.compiled import CompiledTopology
from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner.fingerprint import task_fingerprint
from repro.runner.tasks import WorkerContext
from repro.telemetry.metrics import RunMetrics
from repro.topology.asgraph import ASGraph

__all__ = ["available_cpus", "execute_task", "resolve_workers", "run_pooled"]

#: Batches on a caller's own threads take turns at building a pool: a
#: fork copies every lock as it stands, so a worker forked while another
#: thread is half-way through launching its pool could hang on its locks.
_FORK_LOCK = threading.RLock()


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: int | None) -> int:
    """Normalise a requested worker count.

    ``None`` and ``0`` mean "serial" (1).  Requests beyond the CPUs the
    scheduler will actually grant are clamped — extra processes on a
    saturated machine only add pickling overhead.  (Tests that need a
    real pool on a one-CPU host patch :func:`available_cpus`.)
    """
    if workers is None:
        return 1
    if workers < 0:
        raise SimulationError(f"worker count must be >= 0, got {workers}")
    if workers in (0, 1):
        return 1
    return min(workers, available_cpus())


# Per-process context, built once by the pool initializer.
_CONTEXT: WorkerContext | None = None


def _init_worker(graph: ASGraph, monitors: tuple[int, ...] | None, metered: bool) -> None:
    global _CONTEXT
    _CONTEXT = WorkerContext(
        PropagationEngine(graph),
        monitors=monitors,
        metrics=RunMetrics() if metered else None,
    )


def execute_task(task: Any, ctx: WorkerContext, worker_label: str = "serial") -> Any:
    """Run one task against ``ctx``, recording worker-level telemetry.

    ``worker.tasks``/``worker.task_seconds`` are worker-count-invariant
    totals; the per-worker load split goes into the registry's ``info``
    section (keyed by ``worker_label``), which is expected to differ
    between serial and pooled runs.
    """
    metrics = ctx.metrics
    if metrics is None:
        return task.run(ctx)
    start = time.perf_counter()
    result = task.run(ctx)
    metrics.timer_add("worker.task_seconds", time.perf_counter() - start)
    metrics.count("worker.tasks")
    metrics.info_add(f"worker.{worker_label}.tasks")
    return result


def _run_task(task: Any) -> tuple[Any, Any]:
    """Pool entry point, returning ``(result, metrics delta or None)``.

    With metrics on, the worker ships its registry delta with the
    result, so the parent can aggregate per-worker metrics exactly."""
    ctx = _CONTEXT
    assert ctx is not None, "worker used before initialization"
    try:
        result = execute_task(task, ctx, f"pid{os.getpid()}")
    except BaseException:
        # Drop the failed task's partial recordings so they cannot
        # contaminate the delta shipped with this worker's next result.
        if ctx.metrics is not None:
            ctx.metrics.take()
        raise
    return result, None if ctx.metrics is None else ctx.metrics.take()


def _shut(pool: ProcessPoolExecutor | None, *, kill: bool = False) -> None:
    """Tear ``pool`` down; ``kill`` first, so a failed batch does not
    wait on its cells."""
    if pool is None:
        return
    if kill:
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already dead
                pass
    try:
        pool.shutdown(wait=not kill, cancel_futures=kill)
    except Exception:  # pragma: no cover - broken pool teardown
        pass


def run_pooled(
    graph: ASGraph,
    tasks: list[Any],
    workers: int,
    *,
    monitors: tuple[int, ...] | None = None,
    metrics: RunMetrics | None = None,
    on_settled: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    """Run ``tasks`` on ``workers`` forked processes; results in task
    order, ``on_settled(index, value)`` called as each settles.  With
    ``metrics`` every result ships its worker's registry delta, summed
    into ``metrics``."""
    # Compiled once, here; a spawned or forkserver worker (Python 3.14's
    # default) would unpickle the graph and compile it again.
    CompiledTopology.of(graph)
    pool: ProcessPoolExecutor | None = None
    try:
        with _FORK_LOCK:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(graph, monitors, metrics is not None),
            )
            # A fork-context pool launches all its workers on the first
            # submit; make that happen here, under the lock, not at the
            # batch's first task.
            pool.submit(os.getpid)
    except Exception as exc:
        _shut(pool, kill=True)
        raise SimulationError(f"could not start a pool of {workers} workers: {exc!r}") from exc

    results: list[Any] = [None] * len(tasks)
    queue = iter(enumerate(tasks))
    inflight: dict[Future, int] = {}
    settled, persisted = 0, on_settled is not None
    # A bounded in-flight window: a failure leaves at most this many
    # cells unsettled, and the pool is never handed the whole batch.
    window = max(2, 2 * workers)
    try:
        while True:
            try:
                for index, task in itertools.islice(queue, window - len(inflight)):
                    inflight[pool.submit(_run_task, task)] = index
            except BrokenProcessPool:
                raise _worker_death(tasks, inflight, settled, persisted) from None
            if not inflight:
                break
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            # Settle every success of the round before raising its first
            # failure, in submission order.
            failures = []
            for future in [f for f in inflight if f in done]:
                if future.exception() is not None:
                    failures.append(future.exception())
                    continue
                result, delta = future.result()
                if delta is not None:
                    metrics.merge(delta)
                index = inflight.pop(future)
                results[index] = result
                if on_settled is not None:
                    on_settled(index, result)
                settled += 1
            if failures and isinstance(failures[0], BrokenProcessPool):
                raise _worker_death(tasks, inflight, settled, persisted)
            if failures:
                raise failures[0]
    except BaseException:
        # a failure ends the batch: do not wait for the cells in flight
        _shut(pool, kill=True)
        raise
    _shut(pool)
    return results


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
