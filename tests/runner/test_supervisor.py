"""The one failure rule of a batch.

A pool that cannot start fails the run with one error, a worker death
names the cells in flight, a failing cell must fail the batch the same
way on every route, and a failed task's partial recordings never reach
the parent.
"""

from __future__ import annotations

import os
import threading

import pytest

import repro.runner.executor as executor_mod
from repro.bgp.engine import PropagationEngine
from repro.exceptions import PolicyError, SimulationError
from repro.runner import RunConfig, SweepPointTask, run_batch, task_fingerprint
from repro.store import CampaignStore


def _tasks(world, count=4):
    victim, attacker = world.tier1[0], world.tier1[1]
    return [
        SweepPointTask(victim=victim, attacker=attacker, padding=p)
        for p in range(1, count + 1)
    ]


class TestPoolLifecycle:
    def test_pool_construction_failure_raises_one_error(
        self, small_world, monkeypatch, real_pool
    ):
        """If ``ProcessPoolExecutor()`` itself raises, the run fails
        with one :class:`SimulationError` — it does not degrade to
        serial."""

        def explode(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", explode)
        engine = PropagationEngine(small_world.graph)
        with pytest.raises(SimulationError, match="could not start a pool of 2 workers"):
            run_batch(engine, _tasks(small_world), RunConfig(workers=2))

    @pytest.mark.parametrize("failure", ["interrupt", "death"])
    def test_a_failed_batch_leaves_no_pool_thread_running(
        self, small_world, monkeypatch, real_pool, failure
    ):
        """The next batch forks its workers from this process, so a
        failed pool's manager and feeder threads (and the locks they
        hold) must have ended by the time the failure reaches the
        caller."""
        tasks = _tasks(small_world)
        parent, plain = os.getpid(), SweepPointTask.run

        def fails(task, ctx):
            if task == tasks[1] and os.getpid() != parent:
                if failure == "death":
                    os._exit(86)
                raise KeyboardInterrupt
            return plain(task, ctx)

        monkeypatch.setattr(SweepPointTask, "run", fails)
        before = set(threading.enumerate())
        with pytest.raises((KeyboardInterrupt, SimulationError)):
            run_batch(PropagationEngine(small_world.graph), tasks, RunConfig(workers=2))
        assert set(threading.enumerate()) == before


class TestOneFailureRule:
    """A failing cell fails the batch as itself, serial or pooled, and
    with or without a store."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_cell_raises_the_same_exception_on_every_route(
        self, small_world, tmp_path, real_pool, workers
    ):
        # λ=0 is rejected by the engine route with a PolicyError
        victim, attacker = small_world.tier1[0], small_world.tier1[1]
        bad = SweepPointTask(victim=victim, attacker=attacker, padding=0)
        tasks = [*_tasks(small_world), bad]
        engine = PropagationEngine(small_world.graph)
        with pytest.raises(PolicyError):
            run_batch(engine, tasks, RunConfig(workers=workers))
        with CampaignStore(tmp_path / "store") as store:
            with pytest.raises(PolicyError):
                run_batch(engine, tasks, RunConfig(workers=workers, store=store))
            assert task_fingerprint(bad) not in store
            if workers == 1:
                assert len(store) == len(tasks) - 1

    def test_a_storeless_worker_death_says_how_to_keep_settled_cells(
        self, small_world, monkeypatch, real_pool
    ):
        tasks = _tasks(small_world)
        parent, plain = os.getpid(), SweepPointTask.run

        def dies(task, ctx):
            if task == tasks[1] and os.getpid() != parent:
                os._exit(86)
            return plain(task, ctx)

        monkeypatch.setattr(SweepPointTask, "run", dies)
        engine = PropagationEngine(small_world.graph)
        with pytest.raises(SimulationError) as death:
            run_batch(engine, tasks, RunConfig(workers=2))
        message = str(death.value)
        assert message.startswith("a pool worker died with ")
        assert f"[{task_fingerprint(tasks[1])[:12]}]" in message
        assert message.endswith("pass --store DIR to keep settled cells across a rerun")


class TestWorkerSide:
    def test_a_failed_task_ships_no_partial_metrics(self, small_world, monkeypatch):
        """A worker's delta covers exactly the task it comes back with:
        what a task recorded before it raised is dropped."""
        monkeypatch.setattr(executor_mod, "_CONTEXT", None)
        executor_mod._init_worker(small_world.graph, None, True)
        good, bad = _tasks(small_world, count=2)
        plain = SweepPointTask.run

        def raises_after_recording(task, ctx):
            if task == bad:
                ctx.metrics.count("partial")
                raise ValueError("a task that raises")
            return plain(task, ctx)

        monkeypatch.setattr(SweepPointTask, "run", raises_after_recording)
        with pytest.raises(ValueError, match="a task that raises"):
            executor_mod._run_task(bad)
        result, delta = executor_mod._run_task(good)
        assert result == plain(good, executor_mod._CONTEXT)
        assert "partial" not in delta["counters"]
        assert delta["counters"]["worker.tasks"] == 1
