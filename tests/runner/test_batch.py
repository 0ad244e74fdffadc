"""``RunConfig`` and ``run_batch``: the one value and the one function
between a caller and the scheduler."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.bgp.engine import PropagationEngine
from repro.core import InterceptionStudy
from repro.exceptions import SimulationError
from repro.experiments import sweeps
from repro.runner import (
    RetryPolicy,
    RunConfig,
    ShardedScheduler,
    SweepPointTask,
    WorkerContext,
    WorkerSpec,
    get_active_store,
    run_batch,
    use_store,
)
from repro.store import CampaignStore
from repro.telemetry.metrics import RunMetrics

RUN_VALUES = ("workers", "retry", "resume", "store", "faults", "metrics")


def _tasks(world):
    victim, attacker = world.tier1[0], world.tier1[1]
    return [
        SweepPointTask(victim=victim, attacker=attacker, padding=padding)
        for padding in range(1, 6)
    ]


class TestRunConfig:
    def test_holds_exactly_the_six_run_values(self):
        assert tuple(f.name for f in dataclasses.fields(RunConfig)) == RUN_VALUES
        plain = RunConfig()
        assert all(getattr(plain, name) is None for name in RUN_VALUES)

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().workers = 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RunConfig(workers=-1),
            lambda: RunConfig(retry=RetryPolicy(max_attempts=0)),
            lambda: RunConfig(retry=RetryPolicy(deadline=-1.0)),
        ],
        ids=["workers", "retries", "deadline"],
    )
    def test_invalid_values_raise_at_construction(self, build):
        with pytest.raises(SimulationError):
            build()

    def test_no_sweep_or_study_signature_spells_a_run_value(self):
        """The fan-out is gone: callers say ``run=``, nothing else."""
        spelled = {*RUN_VALUES, "checkpoint", "shards"} - {"metrics"}
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
    def test_plain_config_equals_the_bare_scheduler(self, small_world):
        """``RunConfig()`` is the plain path: same rows and the same
        deterministic snapshot as one scheduler built by hand."""
        tasks = _tasks(small_world)
        expected_metrics = RunMetrics()
        spec = WorkerSpec(small_world.graph, metrics_enabled=True)
        with ShardedScheduler(
            spec, metrics=expected_metrics, prepare=WorkerContext.park_impact
        ) as scheduler:
            expected = scheduler.run(tasks)

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
        # the adopted engine gets its previous (absent) registry back
        assert engine.metrics is None

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

    def test_resume_path_is_opened_and_closed_by_the_batch(self, small_world, tmp_path):
        tasks = _tasks(small_world)
        engine = PropagationEngine(small_world.graph)
        path = tmp_path / "resume.jsonl"
        first = run_batch(engine, tasks, RunConfig(resume=path))
        assert len(path.read_text().splitlines()) == len(tasks)
        metrics = RunMetrics()
        assert run_batch(engine, tasks, RunConfig(resume=path, metrics=metrics)) == first
        assert metrics.counter_value("scheduler.store_hits") == len(tasks)
        assert metrics.counter_value("scheduler.executed") == 0
