"""Worker-side execution of independent sweep tasks.

Every task (:mod:`repro.runner.tasks`) runs through
:func:`execute_task` against a :class:`~repro.runner.tasks.WorkerContext`
— the caller's own context on a serial run, or the per-process context
a pool worker builds exactly once from the
:class:`~repro.runner.tasks.WorkerSpec` its initializer received (the
worker is forked, so it inherits the parent's graph and compiled
topology, and every task the worker picks up shares that worker's
:class:`~repro.runner.cache.BaselineCache`).  Each task is a pure
function of its descriptor, so a batch's results are bit-identical for
any worker count.

The parent side — the pool and the failure rule — is
:class:`repro.runner.supervisor.SupervisedExecutor`; this module holds
what runs inside a worker plus the worker-count helpers the parent
shares with it.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.exceptions import SimulationError
from repro.runner.tasks import WorkerContext, WorkerSpec

__all__ = ["available_cpus", "execute_task", "resolve_workers"]


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


def _init_worker(spec: WorkerSpec) -> None:
    global _CONTEXT
    _CONTEXT = WorkerContext(spec)


def execute_task(task: Any, ctx: WorkerContext, worker_label: str = "serial") -> Any:
    """Run one task against ``ctx``, recording worker-level telemetry.

    ``worker.tasks``/``worker.task_seconds`` are worker-count-invariant
    totals; the per-worker load split goes into the registry's ``info``
    section (keyed by ``worker_label``), which is expected to differ
    between serial and pooled runs.
    """
    metrics = ctx.metrics
    if not metrics.enabled:
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
        ctx.metrics.take()
        raise
    return result, ctx.metrics.take() if ctx.metrics.enabled else None
