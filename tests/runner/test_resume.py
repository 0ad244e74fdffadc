"""Recovery is resume: a killed cell fails the run, and the store
finishes it.

One property over every task list a production caller hands
``run_batch`` (sweep, deployment, campaign) × worker count: kill one
seeded cell — ``os._exit`` in a pool worker, an exception in-process —
and

* the run fails: in-process with the cell's own exception, pooled with
  one :class:`SimulationError` naming the cells in flight;
* the store holds only cells that settled, each with its plain result,
  and never the killed one;
* a rerun on the same store (at the other worker count: where a cell
  ran never matters) returns the plain results and executes exactly
  the cells that had not settled.

The kill is test-side: the task class's ``run`` is patched before the
pool forks, so every worker inherits it.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.bgp.engine import PropagationEngine
from repro.cli import _by_cone, main
from repro.exceptions import SimulationError
from repro.experiments.base import build_world
from repro.runner import RunConfig, SweepPointTask, run_batch, task_fingerprint
from repro.store import CampaignStore
from repro.telemetry.metrics import RunMetrics
from tests.runner.test_conformance import KINDS, _batch

SEEDS = (1, 2, 3)
STORES = ("store",)


class Killed(Exception):
    """What a killed cell raises when it runs in-process."""


def _kill(monkeypatch, task_type, target):
    """Patch ``task_type.run`` so that ``target`` dies: the worker
    process exits in a pool, the call raises in-process."""
    parent, plain = os.getpid(), task_type.run

    def run(task, ctx):
        if task == target:
            if os.getpid() != parent:
                os._exit(86)
            raise Killed(repr(task))
        return plain(task, ctx)

    monkeypatch.setattr(task_type, "run", run)


@pytest.fixture(scope="module")
def plain(small_world):
    """Each kind's results on the plain path (serial, no store)."""
    results = {}
    for kind in KINDS:
        tasks, monitors = _batch(kind, small_world)
        engine = PropagationEngine(small_world.graph)
        results[kind] = run_batch(engine, tasks, monitors=monitors)
    return results


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", STORES)
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_a_killed_run_is_finished_by_its_store(
    small_world, plain, tmp_path, monkeypatch, real_pool, kind, workers, shape, seed
):
    tasks, monitors = _batch(kind, small_world)
    expected = plain[kind]
    killed = random.Random(seed).randrange(len(tasks))
    path = tmp_path / shape

    def run(workers, metrics=None):
        engine = PropagationEngine(small_world.graph)
        with CampaignStore(path) as store:
            config = RunConfig(workers=workers, store=store, metrics=metrics)
            return run_batch(engine, tasks, config, monitors=monitors)

    with monkeypatch.context() as patch:
        _kill(patch, type(tasks[killed]), tasks[killed])
        if workers == 1:
            with pytest.raises(Killed):
                run(workers)
        else:
            with pytest.raises(SimulationError) as failure:
                run(workers)
            message = str(failure.value)
            assert message.startswith("a pool worker died with ")
            assert f"[{task_fingerprint(tasks[killed])[:12]}]" in message
            assert message.endswith("rerun the same command to finish")

    fingerprints = [task_fingerprint(task) for task in tasks]
    with CampaignStore(path) as store:
        settled = [i for i, fp in enumerate(fingerprints) if fp in store]
        assert len(store) == len(settled)
        for index in settled:
            assert store.get(fingerprints[index]) == expected[index]
    assert killed not in settled
    if workers == 1:
        # in-process the cells settle in order, up to the killed one
        assert settled == list(range(killed))

    metrics = RunMetrics()
    assert run(3 - workers, metrics) == expected
    unsettled = len(tasks) - len(settled)
    assert metrics.counter_value("scheduler.executed") == unsettled
    assert metrics.counter_value("worker.tasks") == unsettled
    assert metrics.counter_value("scheduler.store_hits") == len(settled)


def test_a_killed_pooled_grid_exits_1_and_its_rerun_prints_the_plain_grid(
    tmp_path, monkeypatch, capsys, real_pool
):
    """The CLI end of the property: one ``repro-aspp: error:`` line that
    names the killed cell, then a rerun whose stdout is the storeless
    run's, byte for byte."""
    grid = ["grid", "--scale", "0.15", "--attackers", "3", "--victims", "4"]
    assert main(grid) == 0
    reference = capsys.readouterr().out

    # the cells in the order grid builds them
    world = build_world(scale=0.15).topology
    graph = world.graph
    attackers = sorted(world.transit_ases, key=_by_cone(graph))[:3]
    victims = sorted(graph.ases, key=_by_cone(graph))[:4]
    tasks = [
        SweepPointTask(victim=v, attacker=a, padding=3)
        for a in attackers
        for v in victims
        if a != v
    ]
    assert f"cells:               {len(tasks)}\n" in reference
    target = tasks[random.Random(7).randrange(len(tasks))]

    pooled = grid + ["--workers", "2", "--store", str(tmp_path / "store")]
    with monkeypatch.context() as patch:
        _kill(patch, SweepPointTask, target)
        assert main(pooled) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("repro-aspp: error: a pool worker died with ")
    assert f"{target!r} [{task_fingerprint(target)[:12]}]" in line
    assert line.endswith("rerun the same command to finish")

    assert main(pooled) == 0
    assert capsys.readouterr().out == reference
