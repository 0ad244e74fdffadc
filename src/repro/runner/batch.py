"""How a batch runs: one :class:`RunConfig`, one :func:`run_batch`.

*What* a batch computes is its task list; *how* it runs is six values
— worker processes, retry policy, resume file, campaign store, fault
plan, telemetry registry — none of which may change a row.
:class:`RunConfig` carries them as one frozen, validated value from the
CLI flags (or a library caller) down to :func:`run_batch`, the only
place that turns them into a :class:`WorkerSpec`, an open resume file
and a :class:`ShardedScheduler`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner.cache import BaselineCache
from repro.runner.executor import resolve_workers
from repro.runner.faults import FaultPlan
from repro.runner.scheduler import ShardedScheduler
from repro.runner.supervisor import RetryPolicy
from repro.runner.tasks import WorkerSpec
from repro.store.store import CampaignStore, get_active_store, use_store
from repro.telemetry.metrics import RunMetrics

__all__ = ["RunConfig", "get_active_store", "run_batch", "use_store"]


@dataclass(frozen=True)
class RunConfig:
    """How a task batch runs — never what it computes.

    Rows, fingerprints and stored records are identical under every
    value of every field; ``RunConfig()`` is the plain path (serial,
    in-process, nothing persisted, nothing recorded).
    """

    #: pool size; ``None``/``0``/``1`` run serially in-process.
    workers: int | None = None
    #: supervision policy (attempts, per-task deadline);
    #: ``None`` is :class:`RetryPolicy`'s defaults.
    retry: RetryPolicy | None = None
    #: single-file store (a :class:`~repro.store.CampaignStore` whose
    #: log *is* this path, opened and closed by :func:`run_batch`):
    #: finished tasks append to it as they settle and a rerun with the
    #: same path replays them.
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

    Recorded cells replay from the store (``run.store``, else the
    ambient binding) or the ``run.resume`` file; only missing cells are
    prepared and run, each recorded in both as it settles.  Serially
    the scheduler adopts ``engine`` and ``cache`` and records straight
    into ``run.metrics``; a pooled run builds its own contexts and
    merges the deltas its workers ship back, so the deterministic
    counters are identical for every worker count.
    ``monitors`` is the fleet of tasks that run detection; ``prepare``
    is the scheduler's warm-up hook.
    """
    metrics = run.metrics
    spec = WorkerSpec(
        engine.graph,
        monitors=monitors,
        max_activations=engine.max_activations,
        metrics_enabled=metrics is not None and metrics.enabled,
        fault_plan=run.faults,
    )
    # one in-process worker: adopt the caller's engine and cache
    serial = resolve_workers(run.workers) == 1
    store = run.store if run.store is not None else get_active_store()
    resume = nullcontext() if run.resume is None else CampaignStore(run.resume, single_file=True)
    with resume as resume_store, ShardedScheduler(
        spec,
        workers=run.workers,
        retry=run.retry,
        stores=[each for each in (store, resume_store) if each is not None],
        metrics=metrics,
        engine=engine if serial else None,
        cache=cache if serial else None,
        prepare=prepare,
    ) as scheduler:
        return scheduler.run(tasks)
