"""Process-pool execution of independent sweep tasks.

The executor fans a list of task descriptors (:mod:`repro.runner.tasks`)
out over worker processes.  Each worker receives the
:class:`~repro.runner.tasks.WorkerSpec` exactly once via the pool
initializer — the topology is pickled per *worker*, the propagation
engine is compiled per worker, and every task the worker picks up
shares that worker's :class:`~repro.runner.cache.BaselineCache`.

Results come back in task-submission order (``ProcessPoolExecutor.map``
preserves ordering), and each task is a pure function of its inputs, so
the output of a run is bit-identical regardless of the worker count —
including the ``workers <= 1`` path, which runs the same task objects
in-process against a single shared context without any pool at all.

:class:`SweepExecutor` itself is the *unsupervised* fan-out: a dead
worker surfaces as :class:`~concurrent.futures.process.BrokenProcessPool`
(after unlinking the shared-memory segment so nothing leaks into
``/dev/shm``).  The fault-tolerant layer that respawns the pool,
retries the in-flight tasks and enforces deadlines lives on top of it
in :mod:`repro.runner.supervisor`.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.bgp.compiled import CompiledTopology
from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner.cache import BaselineCache
from repro.runner.shm import publish_topology
from repro.runner.tasks import WorkerContext, WorkerSpec
from repro.telemetry.metrics import RunMetrics

__all__ = ["SweepExecutor", "available_cpus", "execute_task", "resolve_workers"]


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: int | None, *, force: bool = False) -> int:
    """Normalise a requested worker count.

    ``None`` and ``0`` mean "serial" (1).  Requests beyond the CPUs the
    scheduler will actually grant are clamped — extra processes on a
    saturated machine only add pickling overhead — unless ``force`` is
    set, which the differential tests use to exercise the real
    multi-process path even on single-CPU hosts.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise SimulationError(f"worker count must be >= 0, got {workers}")
    if workers in (0, 1):
        return 1
    if force:
        return workers
    return min(workers, available_cpus())


#: Shared-memory segments published by live executors.  Normally the
#: owning executor unlinks its segment on :meth:`SweepExecutor.close`;
#: this registry is the backstop for executors abandoned by a crash or
#: an exception between publish and pool construction, so ``/dev/shm``
#: is swept clean when the interpreter exits no matter what.
_LIVE_SEGMENTS: set = set()


def _cleanup_segments() -> None:
    for segment in list(_LIVE_SEGMENTS):
        _LIVE_SEGMENTS.discard(segment)
        try:
            segment.close()
            segment.unlink()
        except Exception:  # pragma: no cover - already reaped
            pass


atexit.register(_cleanup_segments)


# Per-process context, built once by the pool initializer.
_CONTEXT: WorkerContext | None = None


def _init_worker(spec: WorkerSpec) -> None:
    global _CONTEXT
    _CONTEXT = WorkerContext(spec, in_pool_worker=True)


def execute_task(
    task: Any, ctx: WorkerContext, worker_label: str = "serial", attempt: int = 0
) -> Any:
    """Run one task against ``ctx``, recording worker-level telemetry.

    ``worker.tasks``/``worker.task_seconds`` are worker-count-invariant
    totals; the per-worker load split goes into the registry's ``info``
    section (keyed by ``worker_label``), which is expected to differ
    between serial and pooled runs.

    When the context carries a :class:`~repro.runner.faults.FaultPlan`,
    the fault scheduled for ``(task, attempt)`` fires *before* the task
    body — so a faulted attempt does no work and records nothing, and
    ``worker.tasks`` counts exactly the attempts that completed.
    """
    if ctx.faults is not None:
        ctx.faults.fire(task, attempt, in_pool_worker=ctx.in_pool_worker)
    metrics = ctx.metrics
    if not metrics.enabled:
        return task.run(ctx)
    start = time.perf_counter()
    result = task.run(ctx)
    metrics.timer_add("worker.task_seconds", time.perf_counter() - start)
    metrics.count("worker.tasks")
    metrics.info_add(f"worker.{worker_label}.tasks")
    return result


def _run_task(task: Any) -> Any:
    assert _CONTEXT is not None, "worker used before initialization"
    return task.run(_CONTEXT)


def _run_task_metered(task: Any) -> Any:
    """Pool entry point when metrics are on: ship the delta with the
    result, so the parent can aggregate per-worker metrics exactly."""
    assert _CONTEXT is not None, "worker used before initialization"
    result = execute_task(task, _CONTEXT, f"pid{os.getpid()}")
    return result, _CONTEXT.metrics.take()


def _run_task_attempt(task: Any, attempt: int) -> Any:
    """Supervised pool entry point: the parent threads the attempt
    number through so deterministic fault plans can key on it."""
    assert _CONTEXT is not None, "worker used before initialization"
    return execute_task(task, _CONTEXT, f"pid{os.getpid()}", attempt=attempt)


def _run_task_attempt_metered(task: Any, attempt: int) -> Any:
    assert _CONTEXT is not None, "worker used before initialization"
    try:
        result = execute_task(task, _CONTEXT, f"pid{os.getpid()}", attempt=attempt)
    except BaseException:
        # Drop the failed attempt's partial recordings so they cannot
        # contaminate the delta shipped with this worker's next result.
        _CONTEXT.metrics.take()
        raise
    return result, _CONTEXT.metrics.take()


class SweepExecutor:
    """Runs task batches, serially in-process or across a process pool.

    With an effective worker count of 1 the executor builds (or adopts,
    via ``engine``/``cache``) a single :class:`WorkerContext` and runs
    tasks inline — no pool, no pickling, but the identical code path
    per task.  With more workers it lazily spins up a
    :class:`~concurrent.futures.ProcessPoolExecutor` whose processes
    each initialise their own context from ``spec``.

    Use as a context manager (or call :meth:`close`) so pool processes
    are reaped; running several batches through one executor reuses
    both the pool and the workers' warm baseline caches.  A closed
    executor is dead: further :meth:`run` calls raise
    :class:`SimulationError` instead of silently respawning a pool
    whose shared-memory segment was already unlinked.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        workers: int | None = None,
        force_processes: bool = False,
        engine: PropagationEngine | None = None,
        cache: BaselineCache | None = None,
        metrics: RunMetrics | None = None,
    ) -> None:
        self.spec = spec
        self.workers = resolve_workers(workers, force=force_processes)
        self._pool: ProcessPoolExecutor | None = None
        self._context: WorkerContext | None = None
        self._pool_metrics: RunMetrics | None = None
        self._shm_segment = None
        self._closed = False
        if self.workers == 1:
            self._context = WorkerContext(
                spec, engine=engine, cache=cache, metrics=metrics
            )
        elif metrics is not None:
            # The caller's registry is the effective pool registry even
            # when the spec itself ships unmetered workers — parent-side
            # events (shm publishes/fallbacks, supervision counters)
            # still land somewhere observable.
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
        """The aggregated telemetry registry, or ``None`` when metrics
        are off.  Serially this is the context's (possibly adopted)
        registry; in pool mode it accumulates the per-task deltas the
        workers ship back, merged in task-submission order."""
        if self._context is not None:
            return self._context.metrics if self._context.metrics.enabled else None
        return self._pool_metrics

    def run(self, tasks: Sequence[Any]) -> list[Any]:
        """Execute ``tasks``, returning results in task order."""
        if self._closed:
            raise SimulationError(
                "SweepExecutor is closed; build a new executor for further batches"
            )
        if not tasks:
            return []
        if self._context is not None:
            ctx = self._context
            return [execute_task(task, ctx, "serial") for task in tasks]
        pool = self._ensure_pool()
        chunksize = max(1, len(tasks) // (4 * self.workers))
        metered = self._pool_metrics is not None and self.spec.metrics_enabled
        try:
            if not metered:
                return list(pool.map(_run_task, tasks, chunksize=chunksize))
            results: list[Any] = []
            for result, delta in pool.map(
                _run_task_metered, tasks, chunksize=chunksize
            ):
                self._pool_metrics.merge(delta)
                results.append(result)
            return results
        except BrokenProcessPool:
            # A dead worker orphans the pool; release the shared-memory
            # segment *now* so a respawn (or the caller giving up)
            # cannot leak it into /dev/shm.
            self._discard_pool(kill=True)
            raise

    def map(self, tasks: Iterable[Any]) -> list[Any]:
        return self.run(list(tasks))

    def _pool_spec(self) -> WorkerSpec:
        """The spec actually shipped to pool workers.

        For the compiled-array backends ("compiled" and "vectorized")
        the parent compiles the topology once, publishes the CSR payload
        into shared memory, and replaces the pickled graph with the
        segment handle — workers bootstrap their engines without ever
        unpickling an :class:`ASGraph`.  If shared
        memory is unavailable (no ``/dev/shm``, permissions, size
        limits) the original graph-pickling spec is used unchanged.
        """
        spec = self.spec
        registry = self._pool_metrics
        if registry is not None and not registry.enabled:
            registry = None
        if spec.backend == "reference" or spec.graph is None:
            return spec
        if spec.shared_topology is not None:
            return spec
        try:
            topo = CompiledTopology.of(spec.graph)
            self._shm_segment, handle = publish_topology(topo)
        except (OSError, ValueError):
            if registry is not None:
                registry.count("runner.shm.fallbacks")
            return spec
        _LIVE_SEGMENTS.add(self._shm_segment)
        if registry is not None:
            registry.count("runner.shm.publishes")
            registry.count("runner.shm.published_bytes", handle.size)
        return dataclasses.replace(spec, graph=None, shared_topology=handle)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise SimulationError(
                "SweepExecutor is closed; build a new executor for further batches"
            )
        if self._pool is None:
            spec = self._pool_spec()
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(spec,),
                )
            except BaseException:
                # Pool construction failed after the segment was
                # published: unlink it here, because close() may never
                # be reached once this propagates.
                self._release_shm()
                raise
        return self._pool

    def _release_shm(self) -> None:
        segment, self._shm_segment = self._shm_segment, None
        if segment is None:
            return
        _LIVE_SEGMENTS.discard(segment)
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass

    def _discard_pool(self, *, kill: bool = False) -> None:
        """Tear down the current pool (if any) and its shm segment.

        ``kill`` hard-terminates worker processes first — the only way
        to reclaim a worker stuck in a hung task — and skips waiting on
        them during shutdown.
        """
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
        self._release_shm()

    def close(self) -> None:
        self._closed = True
        self._discard_pool()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
