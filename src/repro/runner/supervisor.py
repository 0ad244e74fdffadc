"""Fault-tolerant supervision over the sweep executor.

:class:`~repro.runner.executor.SweepExecutor` is fast but fragile: one
worker OOM or segfault raises ``BrokenProcessPool`` and discards the
whole batch, a hung task stalls ``pool.map`` forever, and a killed
campaign restarts from zero.  :class:`SupervisedExecutor` wraps the
same spec/worker machinery with a failure model:

* **worker death** — a broken pool is torn down (shared memory
  unlinked), completed futures are harvested, the in-flight tasks are
  charged one attempt each and re-executed on a respawned pool.  Every
  task is a pure function of its descriptor, so recovery is
  bit-identical to a fault-free run.
* **deadlines** — tasks are ``submit()``-ed individually (bounded to a
  small in-flight window so queueing time never counts against the
  deadline) and watched with ``concurrent.futures.wait``; a task that
  outlives :attr:`RetryPolicy.deadline` can only be reclaimed by
  killing the pool, so the supervisor does exactly that, charges the
  hung task, and requeues the innocent bystanders uncharged.
* **bounded retries with backoff** — each failed attempt waits
  ``backoff_base * backoff_factor**(n-1)`` (capped at ``backoff_max``)
  before resubmission; a task that exhausts
  :attr:`RetryPolicy.max_attempts` is quarantined as a structured
  :class:`TaskFailure` in its result slot instead of crashing the run.
* **graceful degradation** — if the pool cannot be built at all, or
  keeps dying without completing anything, the remaining tasks run
  serially in-process (same task objects, same results, no pool).
* **checkpoint/resume** — with a
  :class:`~repro.runner.checkpoint.CheckpointJournal` attached, every
  settled task is journaled as it lands and every journaled success is
  replayed instead of re-executed on the next run.

Supervision telemetry lands on the executor's effective registry:
``runner.retries``, ``runner.pool_restarts``, ``runner.deadline_kills``,
``runner.resumed_tasks``, ``runner.quarantined_tasks`` and
``runner.serial_degradations``.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner.cache import BaselineCache
from repro.runner.checkpoint import CheckpointJournal, task_fingerprint
from repro.runner.executor import (
    SweepExecutor,
    _run_task_attempt,
    _run_task_attempt_metered,
    execute_task,
)
from repro.runner.faults import InjectedCrashError
from repro.runner.tasks import WorkerContext, WorkerSpec
from repro.telemetry.metrics import RunMetrics

__all__ = ["RetryPolicy", "SupervisedExecutor", "TaskFailure"]

_UNSET = object()


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the supervisor tries before giving up on a task."""

    #: total attempts per task (first execution included).
    max_attempts: int = 3
    #: exponential backoff before the n-th retry:
    #: ``min(backoff_max, backoff_base * backoff_factor**(n-1))``.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: per-task wall-clock deadline in pool mode; ``None`` disables the
    #: watchdog.  Serial in-process execution cannot pre-empt a running
    #: task, so deadlines are only enforced across the pool.
    deadline: float | None = None
    #: consecutive pool losses without a single completed task before
    #: the supervisor degrades to serial in-process execution.
    max_pool_restarts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise SimulationError("backoff parameters must be non-negative (factor >= 1)")
        if self.deadline is not None and self.deadline <= 0:
            raise SimulationError(f"deadline must be positive, got {self.deadline}")
        if self.max_pool_restarts < 0:
            raise SimulationError("max_pool_restarts must be >= 0")

    def backoff(self, failed_attempts: int) -> float:
        """Delay before resubmitting after ``failed_attempts`` failures."""
        if failed_attempts < 1:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (failed_attempts - 1),
        )


@dataclass(frozen=True)
class TaskFailure:
    """A task quarantined after exhausting its retry budget.

    Occupies the task's slot in the result list so the caller keeps
    positional correspondence with the submitted batch, can tell
    exactly which inputs failed, and decides policy (skip, report,
    re-run) instead of losing the whole campaign to one poisoned task.
    """

    task: Any
    fingerprint: str
    attempts: int
    #: ``"crash"`` (worker death), ``"deadline"`` (killed past the
    #: deadline) or ``"error"`` (the task raised).
    kind: str
    error: str


class _Item:
    """Mutable supervision state for one submitted task."""

    __slots__ = ("index", "task", "fp", "attempt", "not_before", "submitted_at")

    def __init__(self, index: int, task: Any, fp: str) -> None:
        self.index = index
        self.task = task
        self.fp = fp
        self.attempt = 0
        self.not_before = 0.0
        self.submitted_at = 0.0


def _failure_kind(exc: BaseException) -> str:
    return "crash" if isinstance(exc, InjectedCrashError) else "error"


class SupervisedExecutor:
    """A :class:`SweepExecutor` with retries, deadlines and resume.

    Accepts the same construction arguments (spec, workers, adopted
    engine/cache, metrics registry) plus a :class:`RetryPolicy` and an
    optional :class:`CheckpointJournal`.  :meth:`run` preserves task
    order; quarantined tasks yield :class:`TaskFailure` entries in
    their slots.
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
        retry: RetryPolicy | None = None,
        journal: CheckpointJournal | None = None,
        fingerprint_context: str | None = None,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.journal = journal
        #: folded into every task fingerprint (see
        #: :func:`repro.runner.checkpoint.task_fingerprint`) so resumes
        #: never cross run-level configuration boundaries.
        self.fingerprint_context = fingerprint_context
        self._inner = SweepExecutor(
            spec,
            workers=workers,
            force_processes=force_processes,
            engine=engine,
            cache=cache,
            metrics=metrics,
        )
        self._degraded = False
        self._built_pool = False
        self._fallback_ctx: WorkerContext | None = None

    # -- delegation -----------------------------------------------------
    @property
    def spec(self) -> WorkerSpec:
        return self._inner.spec

    @property
    def workers(self) -> int:
        return self._inner.workers

    @property
    def context(self) -> WorkerContext | None:
        return self._inner.context

    @property
    def metrics(self) -> RunMetrics | None:
        return self._inner.metrics

    @property
    def closed(self) -> bool:
        return self._inner.closed

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "SupervisedExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _record(self, name: str, n: int = 1) -> None:
        registry = self._inner.metrics
        if registry is not None and registry.enabled:
            registry.count(name, n)

    def pending(self, tasks: Any) -> list[Any]:
        """The tasks of ``tasks`` that :meth:`run` would execute rather
        than replay from the journal — what a warm-up hook should see."""
        if self.journal is None:
            return list(tasks)
        return [
            task
            for task in tasks
            if not self.journal.completed(
                task_fingerprint(task, self.fingerprint_context)
            )
        ]

    # -- entry point ----------------------------------------------------
    def run(self, tasks: Any) -> list[Any]:
        """Execute ``tasks`` under supervision, in task order."""
        if self._inner.closed:
            raise SimulationError(
                "SupervisedExecutor is closed; build a new executor for "
                "further batches"
            )
        tasks = list(tasks)
        if not tasks:
            return []
        results: list[Any] = [_UNSET] * len(tasks)
        todo: list[_Item] = []
        resumed = 0
        for index, task in enumerate(tasks):
            fp = task_fingerprint(task, self.fingerprint_context)
            if self.journal is not None and self.journal.completed(fp):
                results[index] = self.journal.result_for(fp)
                resumed += 1
                continue
            todo.append(_Item(index, task, fp))
        if resumed:
            self._record("runner.resumed_tasks", resumed)
        if todo:
            if self._inner.workers == 1:
                self._run_serial(todo, results)
            else:
                self._run_pool(todo, results)
        assert all(value is not _UNSET for value in results)
        return results

    # -- settlement -----------------------------------------------------
    def _settle(self, item: _Item, value: Any, results: list[Any]) -> None:
        results[item.index] = value
        if self.journal is not None:
            self.journal.record_success(item.fp, value)

    def _retry_or_quarantine(
        self, item: _Item, results: list[Any], *, kind: str, error: str
    ) -> list[_Item]:
        """Charge ``item`` one failed attempt; requeue it or give up."""
        item.attempt += 1
        if item.attempt >= self.retry.max_attempts:
            failure = TaskFailure(
                task=item.task,
                fingerprint=item.fp,
                attempts=item.attempt,
                kind=kind,
                error=error,
            )
            self._record("runner.quarantined_tasks")
            results[item.index] = failure
            if self.journal is not None:
                self.journal.record_failure(
                    item.fp, kind=kind, attempts=item.attempt, error=error
                )
            return []
        self._record("runner.retries")
        item.not_before = time.monotonic() + self.retry.backoff(item.attempt)
        return [item]

    # -- serial path (workers == 1, and pool degradation) ---------------
    def _run_serial(
        self, items: list[_Item], results: list[Any], ctx: WorkerContext | None = None
    ) -> None:
        if ctx is None:
            ctx = self._inner.context
        assert ctx is not None
        for item in items:
            while True:
                try:
                    value = execute_task(item.task, ctx, "serial", attempt=item.attempt)
                except Exception as exc:
                    requeued = self._retry_or_quarantine(
                        item, results, kind=_failure_kind(exc), error=repr(exc)
                    )
                    if not requeued:
                        break
                    delay = item.not_before - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    continue
                self._settle(item, value, results)
                break

    def _degraded_context(self) -> WorkerContext:
        """In-process fallback context when the pool cannot be rebuilt.

        Built from the original spec (pickled-graph transport — no
        shared memory to manage) and wired to the executor's effective
        registry so its telemetry is not lost.
        """
        if self._fallback_ctx is None:
            self._fallback_ctx = WorkerContext(
                self._inner.spec, metrics=self._inner._pool_metrics
            )
        return self._fallback_ctx

    # -- pool path ------------------------------------------------------
    def _get_pool(self):
        if self._degraded:
            return None
        rebuilding = self._built_pool and self._inner._pool is None
        try:
            pool = self._inner._ensure_pool()
        except Exception:
            # Construction itself failed (no /dev/shm *and* fork
            # unavailable, resource limits, ...): nothing to retry
            # against — degrade.
            self._degraded = True
            return None
        if rebuilding:
            self._record("runner.pool_restarts")
        self._built_pool = True
        return pool

    def _harvest(self, value: Any, metered: bool) -> Any:
        if not metered:
            return value
        result, delta = value
        if self._inner._pool_metrics is not None:
            self._inner._pool_metrics.merge(delta)
        return result

    def _drain_broken(
        self,
        inflight: dict[Future, _Item],
        results: list[Any],
        *,
        charge: bool = True,
    ) -> list[_Item]:
        """Empty ``inflight`` after the pool died: harvest futures that
        finished before the breakage, charge (or just requeue) the rest."""
        metered = self._inner.spec.metrics_enabled
        requeue: list[_Item] = []
        for future, item in list(inflight.items()):
            value: Any = _UNSET
            if future.done() and not future.cancelled():
                try:
                    value = future.result(timeout=0)
                except Exception:
                    value = _UNSET
            if value is not _UNSET:
                self._settle(item, self._harvest(value, metered), results)
            elif charge:
                requeue.extend(
                    self._retry_or_quarantine(
                        item,
                        results,
                        kind="crash",
                        error="worker process died (BrokenProcessPool)",
                    )
                )
            else:
                item.not_before = 0.0
                requeue.append(item)
        inflight.clear()
        return requeue

    def _wait_timeout(
        self, inflight: dict[Future, _Item], pending: list[_Item], now: float
    ) -> float | None:
        """How long to block in ``wait()``: until the nearest deadline
        or backoff expiry, or indefinitely when neither applies."""
        candidates: list[float] = []
        if self.retry.deadline is not None:
            candidates.extend(
                item.submitted_at + self.retry.deadline
                for item in inflight.values()
            )
        candidates.extend(
            item.not_before for item in pending if item.not_before > now
        )
        if not candidates:
            return None
        return max(0.01, min(candidates) - now)

    def _run_pool(self, items: list[_Item], results: list[Any]) -> None:
        pending: list[_Item] = list(items)
        inflight: dict[Future, _Item] = {}
        stalls = 0  # consecutive pool losses without any completed task
        metered = self._inner.spec.metrics_enabled
        entry = _run_task_attempt_metered if metered else _run_task_attempt
        # Bound the in-flight window so a task's deadline clock starts
        # roughly when it starts *running*, not when it joins a long
        # submission queue.
        window = max(2, 2 * self._inner.workers)
        while pending or inflight:
            pool = self._get_pool()
            if pool is None:
                remaining = sorted(
                    pending + list(inflight.values()), key=lambda item: item.index
                )
                inflight.clear()
                self._record("runner.serial_degradations")
                self._run_serial(remaining, results, ctx=self._degraded_context())
                return
            now = time.monotonic()
            broken = False
            held: list[_Item] = []
            for item in pending:
                if broken or len(inflight) >= window or item.not_before > now:
                    held.append(item)
                    continue
                try:
                    future = pool.submit(entry, item.task, item.attempt)
                except BrokenProcessPool:
                    broken = True
                    held.append(item)
                    continue
                item.submitted_at = time.monotonic()
                inflight[future] = item
            pending = held
            if not broken and inflight:
                timeout = self._wait_timeout(inflight, pending, time.monotonic())
                done, _ = wait(
                    list(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                completed = 0
                for future in done:
                    item = inflight.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken = True
                        pending.extend(
                            self._retry_or_quarantine(
                                item,
                                results,
                                kind="crash",
                                error="worker process died (BrokenProcessPool)",
                            )
                        )
                        continue
                    except Exception as exc:
                        # The pool made progress even though the task
                        # failed: the worker is alive and accountable.
                        completed += 1
                        pending.extend(
                            self._retry_or_quarantine(
                                item,
                                results,
                                kind=_failure_kind(exc),
                                error=repr(exc),
                            )
                        )
                        continue
                    completed += 1
                    self._settle(item, self._harvest(value, metered), results)
                if completed:
                    stalls = 0
            if broken:
                pending.extend(self._drain_broken(inflight, results))
                self._inner._discard_pool(kill=True)
                stalls += 1
                if stalls > self.retry.max_pool_restarts:
                    self._degraded = True
                continue
            if self.retry.deadline is not None and inflight:
                now = time.monotonic()
                expired = [
                    future
                    for future, item in inflight.items()
                    if now - item.submitted_at > self.retry.deadline
                ]
                if expired:
                    # A hung worker never returns; the only reclamation
                    # is killing the pool.  Charge the hung tasks, let
                    # the innocent in-flight tasks ride again uncharged.
                    self._record("runner.deadline_kills", len(expired))
                    for future in expired:
                        item = inflight.pop(future)
                        pending.extend(
                            self._retry_or_quarantine(
                                item,
                                results,
                                kind="deadline",
                                error=(
                                    f"task exceeded its {self.retry.deadline:.3f}s "
                                    "deadline and its worker was killed"
                                ),
                            )
                        )
                    pending.extend(
                        self._drain_broken(inflight, results, charge=False)
                    )
                    self._inner._discard_pool(kill=True)
                    continue
            if not inflight and pending:
                # Everything left is backing off; sleep until the
                # earliest becomes submittable.
                delay = min(item.not_before for item in pending) - time.monotonic()
                if delay > 0:
                    time.sleep(min(delay, self.retry.backoff_max or 0.05))
