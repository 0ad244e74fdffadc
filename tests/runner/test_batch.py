"""``RunConfig`` and ``run_batch``: the one value and the one function
between a caller and the executor — bit-identity with a bare executor,
store dedupe, interrupted-run replay, and the caller's engine and cache
handed back as they came."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro.runner.batch as batch_mod
from repro.bgp.engine import PropagationEngine
from repro.core import InterceptionStudy
from repro.exceptions import SimulationError
from repro.experiments import sweeps
from repro.experiments.sweeps import padding_sweep
from repro.runner import (
    BaselineCache,
    RunConfig,
    SupervisedExecutor,
    SweepPointTask,
    WorkerContext,
    WorkerSpec,
    run_batch,
    task_fingerprint,
)
from repro.store import CampaignStore, get_active_store, use_store
from repro.telemetry.metrics import RunMetrics

RUN_VALUES = ("workers", "store", "metrics")


def _tasks(world, count=10):
    victim, attacker = world.tier1[0], world.tier1[1]
    pairs = [(victim, attacker), (attacker, victim)]
    return [
        SweepPointTask(victim=v, attacker=a, padding=p)
        for v, a in pairs
        for p in range(1, count // 2 + 1)
    ]


def _single_pool_reference(world, tasks):
    with SupervisedExecutor(WorkerSpec(world.graph), workers=1) as executor:
        return executor.run(tasks)


class TestRunConfig:
    def test_holds_exactly_the_three_run_values(self):
        assert tuple(f.name for f in dataclasses.fields(RunConfig)) == RUN_VALUES
        plain = RunConfig()
        assert all(getattr(plain, name) is None for name in RUN_VALUES)

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().workers = 2

    @pytest.mark.parametrize("build", [lambda: RunConfig(workers=-1)], ids=["workers"])
    def test_invalid_values_raise_at_construction(self, build):
        with pytest.raises(SimulationError):
            build()

    def test_no_sweep_or_study_signature_spells_a_run_value(self):
        """The fan-out is gone: callers say ``run=``, nothing else."""
        spelled = {*RUN_VALUES, "retry", "faults", "resume", "checkpoint", "shards"} - {"metrics"}
        functions = [
            *(fn for _, fn in inspect.getmembers(sweeps, inspect.isfunction)),
            *(fn for _, fn in inspect.getmembers(InterceptionStudy, inspect.isfunction)),
        ]
        for fn in functions:
            parameters = inspect.signature(fn).parameters
            assert not spelled & set(parameters), fn
            assert all(
                p.kind is not inspect.Parameter.VAR_KEYWORD for p in parameters.values()
            ), fn


class TestRunBatch:
    def test_plain_config_equals_the_bare_executor(self, small_world):
        """``RunConfig()`` is the plain path: same rows and the same
        deterministic snapshot as one executor built by hand."""
        tasks = _tasks(small_world)
        expected_metrics = RunMetrics()
        spec = WorkerSpec(small_world.graph, metrics_enabled=True)
        with SupervisedExecutor(spec, metrics=expected_metrics) as executor:
            WorkerContext.park_impact(executor.context, tasks)
            expected = executor.run(tasks)

        engine = PropagationEngine(small_world.graph)
        assert run_batch(engine, tasks, prepare=WorkerContext.park_impact) == expected
        metrics = RunMetrics()
        assert expected == run_batch(
            engine,
            tasks,
            RunConfig(metrics=metrics),
            prepare=WorkerContext.park_impact,
        )
        assert (
            metrics.deterministic_snapshot()
            == expected_metrics.deterministic_snapshot()
        )
        assert metrics.counter_value("scheduler.tasks") == len(tasks)
        assert metrics.counter_value("scheduler.executed") == len(tasks)
        assert metrics.counter_value("scheduler.store_hits") == 0

    def test_explicit_store_wins_over_the_ambient_one(self, small_world, tmp_path):
        tasks = _tasks(small_world)
        engine = PropagationEngine(small_world.graph)
        with CampaignStore(tmp_path / "ambient") as ambient, CampaignStore(
            tmp_path / "explicit"
        ) as explicit:
            with use_store(ambient):
                assert get_active_store() is ambient
                run_batch(engine, tasks[:2])
                run_batch(engine, tasks, RunConfig(store=explicit))
            assert get_active_store() is None
            assert (len(ambient), len(explicit)) == (2, len(tasks))

    def test_a_single_file_store_replays_in_place(self, small_world, tmp_path):
        """What ``--resume PATH`` opens: the log *is* ``PATH``."""
        tasks = _tasks(small_world)
        engine = PropagationEngine(small_world.graph)
        path = tmp_path / "resume.jsonl"
        with CampaignStore(path, single_file=True) as store:
            first = run_batch(engine, tasks, RunConfig(store=store))
        assert len(path.read_text().splitlines()) == len(tasks)
        metrics = RunMetrics()
        with CampaignStore(path, single_file=True) as store:
            assert run_batch(engine, tasks, RunConfig(store=store, metrics=metrics)) == first
        assert metrics.counter_value("scheduler.store_hits") == len(tasks)
        assert metrics.counter_value("scheduler.executed") == 0


class TestMatchesBareExecutor:
    def test_matches_single_pool(self, small_world):
        tasks = _tasks(small_world)
        engine = PropagationEngine(small_world.graph)
        assert run_batch(engine, tasks) == _single_pool_reference(small_world, tasks)

    def test_results_keep_task_order(self, small_world, tmp_path):
        """Also when only every other cell is missing from the store."""
        tasks = _tasks(small_world)
        engine = PropagationEngine(small_world.graph)
        with CampaignStore(tmp_path / "store") as store:
            run_batch(engine, tasks[::2], RunConfig(store=store))
            results = run_batch(engine, tasks, RunConfig(store=store))
        for task, result in zip(tasks, results):
            assert result.padding == task.padding
            assert result.victim == task.victim
            assert result.attacker == task.attacker


class TestStoreIntegration:
    def test_warm_store_executes_nothing(self, small_world, tmp_path, monkeypatch):
        tasks = _tasks(small_world)
        root = tmp_path / "store"
        engine = PropagationEngine(small_world.graph)
        with CampaignStore(root) as store:
            first = run_batch(engine, tasks, RunConfig(store=store))
            assert len(store) == len(tasks)

        def unbuilt(*args, **kwargs):
            raise AssertionError("an all-hits batch built an executor")

        monkeypatch.setattr(batch_mod, "SupervisedExecutor", unbuilt)
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            second = run_batch(engine, tasks, RunConfig(store=store, metrics=metrics))
        assert second == first
        assert metrics.counter_value("scheduler.tasks") == len(tasks)
        assert metrics.counter_value("scheduler.store_hits") == len(tasks)
        assert "scheduler.executed" not in metrics.counters
        assert not any(name.startswith("engine.") for name in metrics.counters)

    def test_partial_warm_store_runs_only_missing_cells(self, small_world, tmp_path):
        tasks = _tasks(small_world)
        half = len(tasks) // 2
        engine = PropagationEngine(small_world.graph)
        metrics = RunMetrics()
        with CampaignStore(tmp_path / "store") as store:
            run_batch(engine, tasks[:half], RunConfig(store=store))
            results = run_batch(engine, tasks, RunConfig(store=store, metrics=metrics))
        assert metrics.counter_value("scheduler.store_hits") == half
        assert metrics.counter_value("scheduler.executed") == len(tasks) - half
        assert results == _single_pool_reference(small_world, tasks)


class TestInterruptedRunKeepsItsWork:
    """Results are recorded as they settle, in either shape of the
    store: a sweep interrupted at cell k replays every cell that
    settled before it."""

    PADDINGS = tuple(range(1, 7))
    INTERRUPT_AT = 5

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("persistence", ["store", "resume-file"])
    def test_settled_cells_replay_after_an_interrupt(
        self, small_engine, small_world, tmp_path, monkeypatch, real_pool,
        persistence, workers,
    ):
        victim, attacker = small_world.tier1[0], small_world.tier1[1]
        reference = padding_sweep(
            small_engine, victim=victim, attacker=attacker, paddings=self.PADDINGS
        )
        path = tmp_path / persistence
        single_file = persistence == "resume-file"

        def sweep(metrics=None):
            with CampaignStore(path, single_file=single_file) as store:
                return padding_sweep(
                    small_engine,
                    victim=victim,
                    attacker=attacker,
                    paddings=self.PADDINGS,
                    run=RunConfig(workers=workers, store=store, metrics=metrics),
                )

        plain_run = SweepPointTask.run

        def interrupted_run(task, ctx):
            if task.padding == self.INTERRUPT_AT:
                raise KeyboardInterrupt
            return plain_run(task, ctx)

        with monkeypatch.context() as patch:
            patch.setattr(SweepPointTask, "run", interrupted_run)
            with pytest.raises(KeyboardInterrupt):
                sweep()

        with CampaignStore(path, single_file=single_file) as store:
            recorded = [
                padding
                for padding in self.PADDINGS
                if task_fingerprint(
                    SweepPointTask(victim=victim, attacker=attacker, padding=padding)
                )
                in store
            ]
        # serially the cells settle in order; a pool settles at least
        # the one whose slot the interrupting cell was submitted into
        assert recorded == [1, 2, 3, 4] if workers == 1 else recorded
        assert self.INTERRUPT_AT not in recorded

        metrics = RunMetrics()
        assert sweep(metrics) == reference
        assert metrics.counter_value("worker.tasks") == len(self.PADDINGS) - len(
            recorded
        )


class TestAdoption:
    """A serial batch runs on the caller's engine and cache with the
    run's registry wired in; each gets its own registry back."""

    def test_engine_and_cache_registries_restored(self, small_world):
        engine = PropagationEngine(small_world.graph)
        cache = BaselineCache(engine)
        tasks = _tasks(small_world, count=4)
        run_batch(engine, tasks, RunConfig(metrics=RunMetrics()), cache=cache)
        assert engine.metrics is None and cache.metrics is None

    def test_registries_restored_when_a_task_raises(self, small_world, monkeypatch):
        own = RunMetrics()
        engine = PropagationEngine(small_world.graph)
        engine.metrics = own
        cache = BaselineCache(engine, metrics=own)

        def broken(task, ctx):
            assert ctx.engine.metrics is not own
            raise ValueError("a task that raises")

        monkeypatch.setattr(SweepPointTask, "run", broken)
        with pytest.raises(ValueError, match="a task that raises"):
            run_batch(engine, _tasks(small_world), RunConfig(metrics=RunMetrics()), cache=cache)
        assert engine.metrics is own and cache.metrics is own

    def test_a_pool_adopts_nothing(self, small_world, real_pool):
        engine = PropagationEngine(small_world.graph)
        cache = BaselineCache(engine)
        metrics = RunMetrics()
        tasks = _tasks(small_world, count=4)
        results = run_batch(engine, tasks, RunConfig(workers=2, metrics=metrics), cache=cache)
        assert results == _single_pool_reference(small_world, tasks)
        assert metrics.counter_value("runner.shm.publishes") == 1
        assert engine.metrics is None and cache.metrics is None
