"""Chaos suite: every recovery path, driven by deterministic faults.

The supervised runner's contract is that failure handling is
*invisible* in the results: worker crashes, hung tasks and transient
errors may cost wall-clock time but never change a row, because every
task is a pure function of its descriptor and recovery simply re-runs
it.  These tests inject each failure mode through a seeded/scripted
:class:`FaultPlan` and assert bit-identical results against a
fault-free serial reference — plus structured :class:`TaskFailure`
quarantine for tasks that can never succeed, and journal-based resume
that provably re-executes nothing (the ``worker.tasks`` counter only
moves for attempts that actually completed).
"""

from __future__ import annotations

import pickle

import pytest

import repro.runner.supervisor as supervisor_mod
from repro.core import InterceptionStudy
from repro.exceptions import SimulationError
from repro.experiments.sweeps import padding_sweep
from repro.runner import (
    CampaignPairTask,
    DeploymentPointTask,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RunConfig,
    SupervisedExecutor,
    SweepPointTask,
    TaskFailure,
    WorkerContext,
    WorkerSpec,
    sample_attack_pairs,
    task_fingerprint,
)
from repro.store import CampaignStore
from repro.telemetry.metrics import RunMetrics
from repro.utils.rand import derive_rng, make_rng

PADDINGS = tuple(range(1, 7))

#: supervised, with the default budget; ``fast_backoff`` keeps the waits short
FAST = RetryPolicy()

pytestmark = pytest.mark.usefixtures("fast_backoff")


def _tasks(world):
    victim, attacker = world.tier1[0], world.tier1[1]
    return [
        SweepPointTask(victim=victim, attacker=attacker, padding=p) for p in PADDINGS
    ]


def _serial_reference(world, tasks):
    ctx = WorkerContext(WorkerSpec(world.graph))
    return [task.run(ctx) for task in tasks]


class TestPoolCrashRecovery:
    def test_crash_mid_batch_converges_bit_identical(self, small_world, real_pool):
        tasks = _tasks(small_world)
        reference = _serial_reference(small_world, tasks)
        plan = FaultPlan.for_tasks(
            {
                tasks[1]: FaultSpec("crash", attempts=(0,)),
                tasks[4]: FaultSpec("crash", attempts=(0,)),
            }
        )
        spec = WorkerSpec(small_world.graph, metrics_enabled=True, fault_plan=plan)
        metrics = RunMetrics()
        with SupervisedExecutor(
            spec, workers=2, metrics=metrics, retry=FAST
        ) as executor:
            results = executor.run(tasks)
        assert results == reference
        # At least one worker died and took the pool with it...
        assert metrics.counter_value("runner.pool_restarts") >= 1
        assert metrics.counter_value("runner.retries") >= 1
        # ...but nothing was quarantined and nothing ran twice to
        # completion: worker.tasks counts completed attempts only.
        assert metrics.counter_value("runner.quarantined_tasks") == 0
        assert metrics.counter_value("worker.tasks") == len(tasks)

    def test_repeated_crashes_still_converge(self, small_world, real_pool):
        tasks = _tasks(small_world)
        reference = _serial_reference(small_world, tasks)
        plan = FaultPlan.for_tasks(
            {tasks[0]: FaultSpec("crash", attempts=(0, 1))}
        )
        spec = WorkerSpec(small_world.graph, fault_plan=plan)
        with SupervisedExecutor(
            spec,
            workers=2,
            retry=RetryPolicy(max_attempts=4),
        ) as executor:
            assert executor.run(tasks) == reference


    def test_crashes_are_charged_to_the_culprit_only(self, small_world, monkeypatch, real_pool):
        """Three tasks that each crash on attempts 0 and 1 share a
        two-worker pool with three clean ones at ``max_attempts=3``: one
        bystander charge would quarantine a double-crasher.  A crash is
        charged only to a task alone in flight, so every run charges
        exactly two attempts to each crasher and none to anyone else."""
        tasks = _tasks(small_world)
        reference = _serial_reference(small_world, tasks)
        plan = FaultPlan.for_tasks(
            {task: FaultSpec("crash", attempts=(0, 1)) for task in tasks[:3]}
        )
        spec = WorkerSpec(small_world.graph, metrics_enabled=True, fault_plan=plan)
        # never degrade: every recovery must go through the pool
        monkeypatch.setattr(supervisor_mod, "BACKOFF_BASE", 0.0)
        monkeypatch.setattr(supervisor_mod, "BACKOFF_MAX", 0.0)
        monkeypatch.setattr(supervisor_mod, "MAX_POOL_RESTARTS", 50)
        policy = RetryPolicy(max_attempts=3)
        for _ in range(3):
            metrics = RunMetrics()
            with SupervisedExecutor(
                spec, workers=2, metrics=metrics, retry=policy
            ) as executor:
                assert executor.run(tasks) == reference
            assert metrics.counter_value("runner.quarantined_tasks") == 0
            assert metrics.counter_value("runner.serial_degradations") == 0
            assert metrics.counter_value("runner.retries") == 6
            assert metrics.counter_value("worker.tasks") == len(tasks)


class TestDeadlines:
    def test_hang_past_deadline_is_killed_and_retried(self, small_world, real_pool):
        tasks = _tasks(small_world)
        reference = _serial_reference(small_world, tasks)
        plan = FaultPlan.for_tasks(
            {tasks[2]: FaultSpec("hang", attempts=(0,), hang_seconds=30.0)}
        )
        spec = WorkerSpec(small_world.graph, metrics_enabled=True, fault_plan=plan)
        metrics = RunMetrics()
        policy = RetryPolicy(deadline=1.0)
        with SupervisedExecutor(
            spec, workers=2, metrics=metrics, retry=policy
        ) as executor:
            results = executor.run(tasks)
        assert results == reference
        assert metrics.counter_value("runner.deadline_kills") >= 1
        assert metrics.counter_value("runner.pool_restarts") >= 1
        assert metrics.counter_value("runner.quarantined_tasks") == 0

    def test_short_hang_without_deadline_just_finishes(self, small_world):
        """No deadline configured: a hang is only a slow task."""
        engine_tasks = _tasks(small_world)
        reference = _serial_reference(small_world, engine_tasks)
        plan = FaultPlan.for_tasks(
            {engine_tasks[0]: FaultSpec("hang", attempts=(0,), hang_seconds=0.2)}
        )
        spec = WorkerSpec(small_world.graph, fault_plan=plan)
        with SupervisedExecutor(spec, workers=1, retry=FAST) as executor:
            assert executor.run(engine_tasks) == reference


class TestQuarantine:
    def test_poisoned_task_returns_structured_failure(self, small_world, real_pool):
        tasks = _tasks(small_world)
        reference = _serial_reference(small_world, tasks)
        poisoned = tasks[3]
        plan = FaultPlan.for_tasks(
            {poisoned: FaultSpec("raise", attempts=tuple(range(FAST.max_attempts)))}
        )
        spec = WorkerSpec(small_world.graph, metrics_enabled=True, fault_plan=plan)
        metrics = RunMetrics()
        with SupervisedExecutor(
            spec, workers=2, metrics=metrics, retry=FAST
        ) as executor:
            results = executor.run(tasks)
        for index, result in enumerate(results):
            if index == 3:
                continue
            assert result == reference[index]
        failure = results[3]
        assert isinstance(failure, TaskFailure)
        assert failure.task == poisoned
        assert failure.kind == "error"
        assert failure.attempts == FAST.max_attempts
        assert "InjectedFaultError" in failure.error
        assert metrics.counter_value("runner.quarantined_tasks") == 1

    def test_sweep_api_raises_on_quarantine(self, small_engine, small_world):
        victim, attacker = small_world.tier1[0], small_world.tier1[1]
        tasks = [
            SweepPointTask(victim=victim, attacker=attacker, padding=p)
            for p in PADDINGS
        ]
        plan = FaultPlan.for_tasks(
            {tasks[0]: FaultSpec("raise", attempts=tuple(range(FAST.max_attempts)))}
        )
        with pytest.raises(SimulationError, match="failed permanently"):
            padding_sweep(
                small_engine,
                victim=victim,
                attacker=attacker,
                paddings=PADDINGS,
                run=RunConfig(faults=plan, retry=FAST),
            )


class TestSweepChaosEquivalence:
    def test_seeded_chaos_serial_and_pooled_rows_identical(
        self, small_engine, small_world
    ):
        victim, attacker = small_world.tier1[0], small_world.tier1[1]
        reference = padding_sweep(
            small_engine, victim=victim, attacker=attacker, paddings=PADDINGS
        )
        tasks = [
            SweepPointTask(victim=victim, attacker=attacker, padding=p)
            for p in PADDINGS
        ]
        plan = FaultPlan.seeded(tasks, seed=7, rate=0.5, max_faulty_attempts=2)
        assert plan, "seed 7 must schedule at least one fault for this test"
        for workers in (1, 2):
            rows = padding_sweep(
                small_engine,
                victim=victim,
                attacker=attacker,
                paddings=PADDINGS,
                run=RunConfig(workers=workers, faults=plan, retry=FAST),
            )
            assert rows == reference


class TestFaultPlanDeterminism:
    def test_seeded_plans_reproducible_and_picklable(self, small_world):
        tasks = _tasks(small_world)
        plan_a = FaultPlan.seeded(tasks, seed=3, rate=0.5)
        plan_b = FaultPlan.seeded(tasks, seed=3, rate=0.5)
        assert plan_a.rules == plan_b.rules
        assert pickle.loads(pickle.dumps(plan_a)).rules == plan_a.rules
        # A different seed draws a different schedule (rate 0.5 over six
        # tasks makes a collision astronomically unlikely but not
        # impossible; two draws suffice).
        assert any(
            FaultPlan.seeded(tasks, seed=s, rate=0.5).rules != plan_a.rules
            for s in (4, 5)
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("explode")
        with pytest.raises(ValueError):
            FaultPlan.seeded([], seed=1, modes=("explode",))


def _campaign_tasks(study, pairs, padding):
    """Recreate exactly the tasks ``study.campaign`` will build."""
    rng = derive_rng(make_rng(11), "study-campaign")
    sampled = sample_attack_pairs(
        study.world.transit_ases, study.world.graph.ases, pairs, rng
    )
    return [
        CampaignPairTask(attacker=attacker, victim=victim, padding=padding)
        for attacker, victim in sampled
    ]


class TestCampaignChaos:
    PAIRS = 6

    @pytest.fixture(scope="class")
    def study(self):
        return InterceptionStudy.generate(seed=11, scale=0.15, monitors=20)

    def test_campaign_with_injected_faults_is_bit_identical(self, study):
        reference = study.campaign(pairs=self.PAIRS, padding=3)
        tasks = _campaign_tasks(study, self.PAIRS, 3)
        plan = FaultPlan.for_tasks(
            {
                tasks[0]: FaultSpec("crash", attempts=(0,)),
                tasks[2]: FaultSpec("raise", attempts=(0,)),
            }
        )
        chaotic = study.campaign(
            pairs=self.PAIRS,
            padding=3,
            run=RunConfig(workers=2, faults=plan, retry=FAST),
        )
        assert chaotic.results == reference.results
        assert chaotic.timings == reference.timings
        assert chaotic.failures == []

    def test_campaign_poisoned_pair_lands_in_failures(self, study):
        reference = study.campaign(pairs=self.PAIRS, padding=3)
        tasks = _campaign_tasks(study, self.PAIRS, 3)
        plan = FaultPlan.for_tasks(
            {tasks[1]: FaultSpec("raise", attempts=tuple(range(FAST.max_attempts)))}
        )
        campaign = study.campaign(
            pairs=self.PAIRS, padding=3, run=RunConfig(faults=plan, retry=FAST)
        )
        assert len(campaign.failures) == 1
        assert campaign.failures[0].fingerprint == task_fingerprint(tasks[1])
        surviving = [r for i, r in enumerate(reference.results) if i != 1]
        assert campaign.results == surviving

    def _resumed(self, study, path, **fields):
        """One campaign recording into, and replaying from, the
        single-file store at ``path`` (what ``--resume`` opens)."""
        with CampaignStore(path, single_file=True) as store:
            return study.campaign(
                pairs=self.PAIRS, padding=3, run=RunConfig(store=store, **fields)
            )

    def test_killed_campaign_resumes_without_rerunning(self, study, tmp_path):
        """Emulate a crash-after-3-instances by truncating the journal,
        then resume: only the missing instances execute."""
        reference = study.campaign(pairs=self.PAIRS, padding=3)
        path = tmp_path / "campaign.jsonl"
        first = self._resumed(study, path)
        assert first.results == reference.results
        lines = path.read_text().splitlines()
        assert len(lines) == self.PAIRS
        keep = 3
        path.write_text("\n".join(lines[:keep]) + "\n")

        metrics = RunMetrics()
        resumed = self._resumed(study, path, metrics=metrics)
        assert resumed.results == reference.results
        assert resumed.timings == reference.timings
        # The journal replayed the first three instances; only the rest
        # were executed (worker.tasks counts completed executions).
        assert metrics.counter_value("scheduler.store_hits") == keep
        assert metrics.counter_value("worker.tasks") == self.PAIRS - keep
        # The journal is now complete again: a third run executes nothing.
        metrics_again = RunMetrics()
        self._resumed(study, path, metrics=metrics_again)
        assert metrics_again.counter_value("worker.tasks") == 0
        assert metrics_again.counter_value("scheduler.store_hits") == self.PAIRS

    def test_resume_journal_replays_across_pool_and_serial(self, study, tmp_path):
        """A journal written by one execution mode resumes in another."""
        reference = study.campaign(pairs=self.PAIRS, padding=3)
        path = tmp_path / "cross.jsonl"
        self._resumed(study, path, workers=2)
        with CampaignStore(path) as recorded:
            assert len(recorded) == self.PAIRS
        resumed = self._resumed(study, path)
        assert resumed.results == reference.results


class TestStudySweepChaos:
    """``study.deployment_sweep`` and ``study.exhaustive_grid`` honour
    ``run.faults`` the way ``study.campaign`` does: a transient fault is
    retried away, a poisoned cell sinks the sweep."""

    @pytest.fixture(scope="class")
    def study(self):
        return InterceptionStudy.generate(seed=11, scale=0.15, monitors=20)

    @staticmethod
    def _check(sweep, tasks):
        reference = sweep()
        transient = FaultPlan.for_tasks({tasks[1]: FaultSpec("raise", attempts=(0,))})
        metrics = RunMetrics()
        run = RunConfig(faults=transient, retry=FAST, metrics=metrics)
        assert sweep(run=run) == reference
        assert metrics.counter_value("runner.retries") == 1
        poisoned = FaultPlan.for_tasks(
            {tasks[1]: FaultSpec("raise", attempts=tuple(range(FAST.max_attempts)))}
        )
        with pytest.raises(SimulationError, match="failed permanently"):
            sweep(run=RunConfig(faults=poisoned, retry=FAST))

    def test_deployment_sweep(self, study):
        world = study.world
        cell = dict(victim=world.tier1[0], attacker=world.tier2[0], padding=3)
        fractions = (0.0, 0.5, 1.0)
        tasks = [
            DeploymentPointTask(**cell, policy="aspa", fraction=fraction, seed=11)
            for fraction in fractions
        ]
        self._check(
            lambda **how: study.deployment_sweep(
                **cell, policy="aspa", fractions=fractions, **how
            ),
            tasks,
        )

    def test_exhaustive_grid(self, study):
        world = study.world
        attackers, victims = world.transit_ases[:2], world.graph.ases[:3]
        tasks = [
            SweepPointTask(victim=v, attacker=a, padding=3)
            for a in attackers
            for v in victims
            if a != v
        ]
        self._check(
            lambda **how: study.exhaustive_grid(
                padding=3, attacker_pool=attackers, victim_pool=victims, **how
            ),
            tasks,
        )
