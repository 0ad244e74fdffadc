"""How a batch runs: one :class:`RunConfig`, one :func:`run_batch`.

*What* a batch computes is its task list; *how* it runs is seven values
— worker processes, shards, retry policy, resume journal, campaign
store, fault plan, telemetry registry — none of which may change a
row.  :class:`RunConfig` carries them as one frozen, validated value
from the CLI flags (or a library caller) down to :func:`run_batch`, the
only place that turns them into a :class:`WorkerSpec`, an open
:class:`CheckpointJournal` and a :class:`ShardedScheduler`.

The ambient store binding lives here too: figure modules know nothing
about storage, so the query layer binds its store with
:func:`use_store` for the duration of a figure and every batch whose
``RunConfig.store`` is ``None`` picks it up.  The store stays duck-typed
(``get``/``put``); this package never imports :mod:`repro.store`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner.cache import BaselineCache
from repro.runner.checkpoint import CheckpointJournal
from repro.runner.executor import resolve_workers
from repro.runner.faults import FaultPlan
from repro.runner.scheduler import ShardedScheduler
from repro.runner.supervisor import RetryPolicy
from repro.runner.tasks import WorkerSpec
from repro.telemetry.metrics import RunMetrics

__all__ = ["RunConfig", "get_active_store", "run_batch", "use_store"]

_ACTIVE_STORE: ContextVar[Any] = ContextVar("repro_active_store", default=None)


def get_active_store() -> Any:
    """The store bound by the innermost :func:`use_store`, if any."""
    return _ACTIVE_STORE.get()


@contextmanager
def use_store(store: Any) -> Iterator[Any]:
    """Bind ``store`` as the ambient campaign store for the block.

    The binding is a :class:`contextvars.ContextVar`: safe under
    threads, never leaking across unrelated runs.  ``None`` explicitly
    unbinds (fencing a sub-computation off from an outer binding).
    Leaving the block restores the previous binding and closes nothing
    — the store's lifetime stays with the caller.
    """
    token = _ACTIVE_STORE.set(store)
    try:
        yield store
    finally:
        _ACTIVE_STORE.reset(token)


@dataclass(frozen=True)
class RunConfig:
    """How a task batch runs — never what it computes.

    Rows, fingerprints, journals and stores are identical under every
    value of every field; ``RunConfig()`` is the plain path (serial,
    in-process, nothing persisted, nothing recorded).
    """

    #: pool size per shard; ``None``/``0``/``1`` run serially in-process.
    workers: int | None = None
    #: work-stealing supervised executors the missing cells are split over.
    shards: int = 1
    #: supervision policy (attempts, backoff, per-task deadline);
    #: ``None`` is :class:`RetryPolicy`'s defaults.
    retry: RetryPolicy | None = None
    #: JSONL checkpoint journal: finished tasks append to it as they
    #: settle and a rerun with the same path replays them.
    resume: str | Path | None = None
    #: content-addressed store consulted before and fed after every
    #: task (``get(fp, default)`` / ``put(fp, value)``); ``None`` falls
    #: back to the ambient :func:`use_store` binding.
    store: Any = None
    #: deterministic fault-injection schedule (chaos testing only).
    faults: FaultPlan | None = None
    #: registry the run's telemetry is recorded into.
    metrics: RunMetrics | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise SimulationError(f"worker count must be >= 0, got {self.workers}")
        if self.shards < 1:
            raise SimulationError(f"shards must be >= 1, got {self.shards}")


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
    in task order, a quarantined task as a ``TaskFailure`` in its slot.

    Recorded cells replay from the ``run.resume`` journal or the store
    (``run.store``, else the ambient binding); only missing cells are
    prepared and run, each recorded as it settles.  Serially the
    scheduler adopts ``engine`` and ``cache`` and records straight into
    ``run.metrics``; pooled and sharded runs build their own contexts
    and merge the deltas their workers ship back, so the deterministic
    counters are identical for every worker and shard count.
    ``monitors`` is the fleet of tasks that run detection; ``prepare``
    is the scheduler's warm-up hook.
    """
    metrics = run.metrics
    spec = WorkerSpec(
        engine.graph,
        monitors=monitors,
        max_activations=engine.max_activations,
        metrics_enabled=metrics is not None and metrics.enabled,
        backend=engine.backend,
        fault_plan=run.faults,
    )
    # one shard, one in-process worker: adopt the caller's engine and cache
    serial = run.shards == 1 and resolve_workers(run.workers) == 1
    opened = CheckpointJournal(run.resume) if run.resume is not None else nullcontext()
    with opened as journal, ShardedScheduler(
        spec,
        shards=run.shards,
        workers=run.workers,
        retry=run.retry,
        store=run.store if run.store is not None else get_active_store(),
        journal=journal,
        metrics=metrics,
        engine=engine if serial else None,
        cache=cache if serial else None,
        prepare=prepare,
    ) as scheduler:
        return scheduler.run(tasks)
