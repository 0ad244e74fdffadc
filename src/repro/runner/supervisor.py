"""The supervised executor: one batch of tasks, serially or over a pool.

:class:`SupervisedExecutor` is what :func:`repro.runner.run_batch`
runs a batch's missing cells on.  With an effective worker count of 1
it runs tasks inline against one
:class:`~repro.runner.tasks.WorkerContext`; with more it owns a
``ProcessPoolExecutor`` whose workers bootstrap from a shared-memory
copy of the compiled topology, and layers a failure model over it:

* **worker death** — a broken pool is torn down (shared memory
  unlinked), completed futures are harvested and the lost tasks are
  re-executed on a respawned pool.  A crash is charged only to a task
  that was *alone* in flight; tasks lost together are requeued
  uncharged and re-run one at a time until the culprit crashes on its
  own, so the attempts charged to a task never depend on what shared
  the pool with it.  Every task is a pure function of its descriptor,
  so recovery is bit-identical to a fault-free run.
* **deadlines** — tasks are ``submit()``-ed individually (bounded to a
  small in-flight window so queueing time never counts against the
  deadline) and watched with ``concurrent.futures.wait``; a task that
  outlives :attr:`RetryPolicy.deadline` can only be reclaimed by
  killing the pool, so the supervisor does exactly that, charges the
  hung task, and requeues the innocent bystanders uncharged.
* **bounded retries with backoff** — each failed attempt waits
  ``BACKOFF_BASE * BACKOFF_FACTOR**(n-1)`` seconds (capped at
  ``BACKOFF_MAX``) before resubmission; a task that exhausts
  :attr:`RetryPolicy.max_attempts` is quarantined as a structured
  :class:`TaskFailure` in its result slot instead of crashing the run.
* **graceful degradation** — if the pool cannot be built at all, or
  dies more than ``MAX_POOL_RESTARTS`` times in a row without
  completing anything, the remaining tasks run
  serially in-process (same task objects, same results, no pool).

A serial run that nobody asked to retry, inject faults into or persist
is left unsupervised on purpose (see :meth:`SupervisedExecutor.run`).
The executor persists nothing itself: ``run(tasks, on_settled=...)``
reports every result the moment it settles, and ``run_batch`` records
it from there.

Supervision telemetry lands on the executor's effective registry:
``runner.retries``, ``runner.pool_restarts``, ``runner.deadline_kills``,
``runner.quarantined_tasks`` and ``runner.serial_degradations``.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections.abc import Callable, Iterable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from repro.bgp.compiled import CompiledTopology
from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner.cache import BaselineCache
from repro.runner.executor import (
    _LIVE_SEGMENTS,
    _init_worker,
    _run_task_attempt,
    execute_task,
    resolve_workers,
)
from repro.runner.faults import InjectedCrashError
from repro.runner.fingerprint import task_fingerprint
from repro.runner.shm import publish_topology
from repro.runner.tasks import WorkerContext, WorkerSpec
from repro.telemetry.metrics import RunMetrics

__all__ = ["RetryPolicy", "SupervisedExecutor", "TaskFailure"]

_UNSET = object()

#: Several executors can be live in one process (a caller's own
#: threads).  Publishing or unlinking a shared-memory segment takes the
#: ``multiprocessing`` resource tracker's lock, and a pool worker forked
#: while another thread holds it inherits it locked and hangs on its own
#: first attach.  Executors therefore take turns at everything that
#: touches the tracker or forks.
_FORK_LOCK = threading.RLock()

#: exponential backoff before the n-th retry of a task, in seconds:
#: ``min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR**(n-1))``.  Read by
#: the parent process only, so a test may patch them.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 2.0
#: consecutive pool losses without a single completed task before the
#: supervisor degrades to serial in-process execution.
MAX_POOL_RESTARTS = 3


def backoff(failed_attempts: int) -> float:
    """Delay before resubmitting after ``failed_attempts`` failures."""
    if failed_attempts < 1:
        return 0.0
    return min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR ** (failed_attempts - 1))


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the supervisor tries before giving up on a task."""

    #: total attempts per task (first execution included).
    max_attempts: int = 3
    #: per-task wall-clock deadline in pool mode; ``None`` disables the
    #: watchdog.  Serial in-process execution cannot pre-empt a running
    #: task, so deadlines are only enforced across the pool.
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise SimulationError(f"deadline must be positive, got {self.deadline}")


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

    __slots__ = ("index", "task", "attempt", "not_before", "submitted_at", "suspect")

    def __init__(self, index: int, task: Any) -> None:
        self.index = index
        self.task = task
        self.attempt = 0
        self.not_before = 0.0
        self.submitted_at = 0.0
        #: was in flight, with company, when a pool died: runs alone
        #: from then on, so a further crash is provably its own.
        self.suspect = False


def _failure_kind(exc: BaseException) -> str:
    return "crash" if isinstance(exc, InjectedCrashError) else "error"


_Settle = Callable[[_Item, Any], None]


class SupervisedExecutor:
    """Runs task batches, serially in-process or across a supervised pool.

    With an effective worker count of 1 the executor builds (or adopts,
    via ``engine``/``cache``) a single :class:`WorkerContext` and runs
    tasks inline — no pool, no pickling, but the identical code path
    per task; a pool ignores ``engine``/``cache``.  With more workers it
    lazily spins up a
    :class:`~concurrent.futures.ProcessPoolExecutor` whose processes
    each initialise their own context from ``spec``, and supervises it
    under ``retry`` (default :class:`RetryPolicy`).

    Use as a context manager (or call :meth:`close`) so pool processes
    are reaped and an adopted engine and cache get their previous
    metrics registry back; running several batches through one executor
    reuses both the pool and the workers' warm baseline caches.  A
    closed executor is dead: further :meth:`run` calls raise
    :class:`SimulationError` instead of silently respawning a pool
    whose shared-memory segment was already unlinked.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        workers: int | None = None,
        engine: PropagationEngine | None = None,
        cache: BaselineCache | None = None,
        metrics: RunMetrics | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.spec = spec
        self.workers = resolve_workers(workers)
        self._retry_requested = retry is not None
        self.retry = retry if retry is not None else RetryPolicy()
        self._pool: ProcessPoolExecutor | None = None
        self._context: WorkerContext | None = None
        self._pool_metrics: RunMetrics | None = None
        self._shm_segment = None
        self._closed = False
        self._degraded = False
        self._built_pool = False
        self._fallback_ctx: WorkerContext | None = None
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
        workers ship back, merged as results settle."""
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

    def _record(self, name: str, n: int = 1) -> None:
        registry = self.metrics
        if registry is not None and registry.enabled:
            registry.count(name, n)

    # -- entry point ----------------------------------------------------
    def run(
        self,
        tasks: Iterable[Any],
        on_settled: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Execute ``tasks``, returning results in task order.

        ``on_settled(index, value)`` is called the moment the task at
        ``index`` settles — with its result, or with the
        :class:`TaskFailure` that quarantined it — so a caller that
        persists results loses none of them to an interrupted batch.

        Supervision (retries, :class:`TaskFailure` quarantine) applies
        whenever there is a pool, a caller-supplied ``retry`` policy, a
        fault plan or an ``on_settled`` listener.  A serial run with
        none of those is the plain loop: every task is a pure function,
        nothing is being recorded, so an exception propagates as itself
        instead of being retried and wrapped.
        """
        if self._closed:
            raise SimulationError(
                "SupervisedExecutor is closed; build a new executor for "
                "further batches"
            )
        items = [_Item(index, task) for index, task in enumerate(tasks)]
        results: list[Any] = [_UNSET] * len(items)

        def settle(item: _Item, value: Any) -> None:
            results[item.index] = value
            if on_settled is not None:
                on_settled(item.index, value)

        if self._context is None:
            self._run_pool(items, settle)
        else:
            supervised = (
                self._retry_requested
                or self.spec.fault_plan is not None
                or on_settled is not None
            )
            self._run_serial(items, settle, self._context, supervised=supervised)
        assert all(value is not _UNSET for value in results)
        return results

    def _retry_or_quarantine(
        self, item: _Item, settle: _Settle, *, kind: str, error: str
    ) -> list[_Item]:
        """Charge ``item`` one failed attempt; requeue it or give up."""
        item.attempt += 1
        if item.attempt >= self.retry.max_attempts:
            self._record("runner.quarantined_tasks")
            settle(
                item,
                TaskFailure(
                    task=item.task,
                    fingerprint=task_fingerprint(item.task),
                    attempts=item.attempt,
                    kind=kind,
                    error=error,
                ),
            )
            return []
        self._record("runner.retries")
        item.not_before = time.monotonic() + backoff(item.attempt)
        return [item]

    # -- serial path (workers == 1, and pool degradation) ---------------
    def _run_serial(
        self,
        items: list[_Item],
        settle: _Settle,
        ctx: WorkerContext,
        *,
        supervised: bool = True,
    ) -> None:
        for item in items:
            while True:
                try:
                    value = execute_task(item.task, ctx, "serial", attempt=item.attempt)
                except Exception as exc:
                    if not supervised:
                        raise
                    if not self._retry_or_quarantine(
                        item, settle, kind=_failure_kind(exc), error=repr(exc)
                    ):
                        break
                    delay = item.not_before - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    continue
                settle(item, value)
                break

    def _degraded_context(self) -> WorkerContext:
        """In-process fallback context when the pool cannot be rebuilt.

        Built from the original spec (pickled-graph transport — no
        shared memory to manage) and wired to the executor's effective
        registry so its telemetry is not lost.
        """
        if self._fallback_ctx is None:
            self._fallback_ctx = WorkerContext(self.spec, metrics=self._pool_metrics)
        return self._fallback_ctx

    # -- pool lifecycle -------------------------------------------------
    def _pool_spec(self) -> WorkerSpec:
        """The spec actually shipped to pool workers.

        The parent compiles the topology once, publishes the CSR
        payload into shared memory, and replaces the pickled graph with
        the segment handle — workers bootstrap their engines without
        ever unpickling an :class:`ASGraph`.  If shared memory is
        unavailable (no ``/dev/shm``, permissions, size limits) the
        original graph-pickling spec is used unchanged.
        """
        spec = self.spec
        registry = self._pool_metrics
        if registry is not None and not registry.enabled:
            registry = None
        if spec.graph is None or spec.shared_topology is not None:
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

    def _get_pool(self) -> ProcessPoolExecutor | None:
        """The live pool, (re)built on demand; ``None`` once degraded."""
        if self._degraded:
            return None
        if self._pool is None:
            try:
                with _FORK_LOCK:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers,
                        initializer=_init_worker,
                        initargs=(self._pool_spec(),),
                    )
                    # A fork-context pool launches all its workers on
                    # the first submit; make that happen here, under
                    # the lock, not at the batch's first task.
                    self._pool.submit(os.getpid)
            except Exception:
                # Construction itself failed (no /dev/shm *and* fork
                # unavailable, resource limits, ...): nothing to retry
                # against.  Reap whatever was launched, unlink the
                # segment just published and degrade.
                self._discard_pool(kill=True)
                self._degraded = True
                return None
            if self._built_pool:
                self._record("runner.pool_restarts")
            self._built_pool = True
        return self._pool

    def _release_shm(self) -> None:
        segment, self._shm_segment = self._shm_segment, None
        if segment is None:
            return
        _LIVE_SEGMENTS.discard(segment)
        segment.close()
        with _FORK_LOCK:
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

    # -- pool path ------------------------------------------------------
    def _harvest(self, value: tuple[Any, Any]) -> Any:
        result, delta = value
        if delta is not None and self._pool_metrics is not None:
            self._pool_metrics.merge(delta)
        return result

    def _drain_lost(
        self, inflight: dict[Future, _Item], settle: _Settle, *, crashed: bool
    ) -> list[_Item]:
        """Empty ``inflight`` after the pool was lost: settle futures
        that finished before the loss and return the rest for requeueing.

        After a crash, a task lost *alone* is the culprit and is charged
        the attempt; tasks lost together are requeued uncharged as
        suspects, to be re-run one at a time.  After a deadline kill
        (``crashed=False``) the hung tasks were already charged and what
        is left here are bystanders, requeued as they were.
        """
        lost: list[_Item] = []
        for future, item in inflight.items():
            if future.done() and not future.cancelled() and future.exception() is None:
                settle(item, self._harvest(future.result()))
            else:
                lost.append(item)
        inflight.clear()
        if crashed and len(lost) == 1:
            return self._retry_or_quarantine(
                lost[0],
                settle,
                kind="crash",
                error="worker process died (BrokenProcessPool)",
            )
        for item in lost:
            item.not_before = 0.0
            item.suspect = item.suspect or crashed
        return lost

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

    def _run_pool(self, items: list[_Item], settle: _Settle) -> None:
        pending: list[_Item] = list(items)
        inflight: dict[Future, _Item] = {}
        stalls = 0  # consecutive pool losses without any completed task
        # Bound the in-flight window so a task's deadline clock starts
        # roughly when it starts *running*, not when it joins a long
        # submission queue.
        window = max(2, 2 * self.workers)
        while pending or inflight:
            pool = self._get_pool()
            if pool is None:
                remaining = sorted(
                    pending + list(inflight.values()), key=lambda item: item.index
                )
                inflight.clear()
                self._record("runner.serial_degradations")
                self._run_serial(remaining, settle, self._degraded_context())
                return
            now = time.monotonic()
            # While any suspect is unresolved only suspects run, one at
            # a time: a pool that dies then names its culprit.
            isolating = any(item.suspect for item in (*pending, *inflight.values()))
            eligible = [item for item in pending if item.suspect or not isolating]
            limit = 1 if isolating else window
            if not inflight:
                # Everything submittable is backing off; sleep until the
                # earliest is due.
                delay = min(item.not_before for item in eligible) - now
                if delay > 0:
                    time.sleep(delay)
                    now = time.monotonic()
            broken = False
            held = [item for item in pending if isolating and not item.suspect]
            for item in eligible:
                if broken or len(inflight) >= limit or item.not_before > now:
                    held.append(item)
                    continue
                try:
                    future = pool.submit(_run_task_attempt, item.task, item.attempt)
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
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        # Stays in flight: the drain below decides who
                        # is charged once the whole loss is known.
                        broken = True
                        continue
                    except Exception as exc:
                        # The pool made progress even though the task
                        # failed: the worker is alive and accountable.
                        completed += 1
                        pending.extend(
                            self._retry_or_quarantine(
                                inflight.pop(future),
                                settle,
                                kind=_failure_kind(exc),
                                error=repr(exc),
                            )
                        )
                        continue
                    completed += 1
                    settle(inflight.pop(future), self._harvest(value))
                if completed:
                    stalls = 0
            if broken:
                pending.extend(self._drain_lost(inflight, settle, crashed=True))
                self._discard_pool(kill=True)
                stalls += 1
                if stalls > MAX_POOL_RESTARTS:
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
                        pending.extend(
                            self._retry_or_quarantine(
                                inflight.pop(future),
                                settle,
                                kind="deadline",
                                error=(
                                    f"task exceeded its {self.retry.deadline:.3f}s "
                                    "deadline and its worker was killed"
                                ),
                            )
                        )
                    pending.extend(self._drain_lost(inflight, settle, crashed=False))
                    self._discard_pool(kill=True)
