"""Sweep runner: baseline caching and the one task-batch path.

Sweeps and campaigns are embarrassingly parallel — every (attacker,
victim, λ) point is an independent propagation — and embarrassingly
repetitive — every point re-converges a pre-attack baseline some other
point already computed.  A :class:`BaselineCache` memoises converged
baselines; everything else here is about running a batch of
fingerprinted tasks (:mod:`repro.runner.tasks`).

There is one way to do that.  *How* a batch runs is one frozen
:class:`RunConfig`, and :func:`run_batch` (:mod:`repro.runner.batch`)
replays whatever the run's content-addressed
:class:`~repro.store.CampaignStore` (a ``--store`` directory) already
holds, runs the missing cells and records each result as it settles:
inline against one :class:`WorkerContext` over the caller's engine, or
on one forked process pool (:mod:`repro.runner.executor`) whose workers
inherit the parent's graph and its compiled topology.  A failed cell
fails the batch; a rerun on the same store executes only the cells
that had not settled.
Results are bit-identical for any worker count and persistence state.
"""

from repro.runner.batch import RunConfig, run_batch
from repro.runner.cache import BaselineCache
from repro.runner.executor import available_cpus, execute_task, resolve_workers
from repro.runner.fingerprint import task_fingerprint
from repro.runner.sampling import sample_attack_pairs
from repro.runner.tasks import (
    CampaignPairResult,
    CampaignPairTask,
    DeploymentPointResult,
    DeploymentPointTask,
    SweepPointResult,
    SweepPointTask,
    WorkerContext,
)

__all__ = [
    "BaselineCache",
    "CampaignPairResult",
    "CampaignPairTask",
    "DeploymentPointResult",
    "DeploymentPointTask",
    "RunConfig",
    "SweepPointResult",
    "SweepPointTask",
    "WorkerContext",
    "available_cpus",
    "execute_task",
    "resolve_workers",
    "run_batch",
    "sample_attack_pairs",
    "task_fingerprint",
]
