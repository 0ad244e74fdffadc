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
:class:`~repro.store.CampaignStore` — a ``--store`` directory or a
``--resume`` file — already holds, runs the missing cells on one
:class:`SupervisedExecutor` and records each result as it settles.
The executor (:mod:`repro.runner.supervisor`) runs tasks inline against
one :class:`WorkerContext`, or on a process pool (topology shipped once
per worker through shared memory).  A failed cell fails the batch; a
rerun on the same store executes only the cells that had not settled.
Results are bit-identical for any worker count and persistence state.
"""

from repro.runner.batch import RunConfig, run_batch
from repro.runner.cache import BaselineCache
from repro.runner.executor import available_cpus, execute_task, resolve_workers
from repro.runner.fingerprint import task_fingerprint
from repro.runner.sampling import sample_attack_pairs
from repro.runner.shm import (
    SharedTopologyHandle,
    attach_topology,
    publish_topology,
)
from repro.runner.supervisor import SupervisedExecutor
from repro.runner.tasks import (
    CampaignPairTask,
    DeploymentPointResult,
    DeploymentPointTask,
    SweepPointResult,
    SweepPointTask,
    WorkerContext,
    WorkerSpec,
)

__all__ = [
    "BaselineCache",
    "CampaignPairTask",
    "DeploymentPointResult",
    "DeploymentPointTask",
    "RunConfig",
    "SharedTopologyHandle",
    "SupervisedExecutor",
    "SweepPointResult",
    "SweepPointTask",
    "WorkerContext",
    "WorkerSpec",
    "attach_topology",
    "available_cpus",
    "publish_topology",
    "execute_task",
    "resolve_workers",
    "run_batch",
    "sample_attack_pairs",
    "task_fingerprint",
]
