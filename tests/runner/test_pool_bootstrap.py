"""Pool bootstrap: a worker inherits its topology.

The pool is forked after the parent compiled the topology, so every
worker holds the parent's :class:`ASGraph` and its memoised
:class:`CompiledTopology` without any transport.  No worker may build
either, pooled results must equal serial ones for every task kind, and
a pooled run must leave nothing on stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro.runner.executor as executor_mod
from repro.bgp.compiled import CompiledTopology
from repro.bgp.engine import PropagationEngine
from repro.runner import DeploymentPointTask, RunConfig, SweepPointTask, run_batch
from repro.telemetry.metrics import RunMetrics
from repro.topology.asgraph import ASGraph
from tests.runner.test_conformance import KINDS, _batch

PADDINGS = tuple(range(1, 6))


def _run(graph, tasks, workers, monitors=None, metrics=None):
    """``tasks`` through ``run_batch`` on a fresh engine over ``graph``."""
    run = RunConfig(workers=workers, metrics=metrics)
    return run_batch(PropagationEngine(graph), tasks, run, monitors=monitors)


def _parent_only(monkeypatch, owner, name, parent):
    """Make ``owner.name`` raise in any process but ``parent``."""
    real = owner.__dict__[name]
    call = real.__func__ if isinstance(real, classmethod) else real

    def guarded(*args, **kwargs):
        if os.getpid() != parent:
            raise AssertionError(f"a pool worker called {owner.__name__}.{name}")
        return call(*args, **kwargs)

    wrapped = classmethod(guarded) if isinstance(real, classmethod) else guarded
    monkeypatch.setattr(owner, name, wrapped)


def test_pool_workers_inherit_the_parents_topology(small_world, monkeypatch, real_pool):
    """No worker compiles a topology or builds a graph, on any task
    kind, and the pool that runs them is forked."""
    tasks, monitors = [], None
    for kind in KINDS:
        batch, fleet = _batch(kind, small_world)
        tasks += batch
        monitors = fleet or monitors
    reference = _run(small_world.graph, tasks, 1, monitors, RunMetrics())

    CompiledTopology.of(small_world.graph)
    parent = os.getpid()
    _parent_only(monkeypatch, CompiledTopology, "from_graph", parent)
    _parent_only(monkeypatch, ASGraph, "__init__", parent)
    started = []
    pool_type = executor_mod.ProcessPoolExecutor

    def recording_pool(*args, **kwargs):
        started.append(kwargs["mp_context"].get_start_method())
        return pool_type(*args, **kwargs)

    monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", recording_pool)
    metrics = RunMetrics()
    assert _run(small_world.graph, tasks, 2, monitors, metrics) == reference
    assert started == ["fork"]
    assert any(name.startswith("worker.pid") for name in metrics.info)


def test_pool_workers_converge_on_the_wave_kernel(small_world, real_pool):
    """A pool worker's engine decides the cold core like any other:
    its baselines are kernel columns."""
    victim, attacker = small_world.tier1[0], small_world.tier1[1]
    # Route-building cells, so the workers' engines converge baselines.
    tasks = [
        DeploymentPointTask(victim=victim, attacker=attacker, padding=p)
        for p in PADDINGS
    ]
    reference = _run(small_world.graph, tasks, 1, metrics=RunMetrics())

    metrics = RunMetrics()
    assert _run(small_world.graph, tasks, 2, metrics=metrics) == reference
    assert metrics.counter_value("engine.vectorized.propagations") >= 1
    assert metrics.counter_value("engine.cold.propagations") == 0


def test_deterministic_snapshot_invariant_across_worker_counts(small_world, real_pool):
    """Serial and pooled runs of one workload agree on the
    deterministic telemetry snapshot exactly."""
    victim, attacker = small_world.tier1[0], small_world.tier1[1]
    tasks = [
        SweepPointTask(victim=victim, attacker=attacker, padding=p) for p in PADDINGS
    ]
    serial_metrics = RunMetrics()
    _run(small_world.graph, tasks, 1, metrics=serial_metrics)

    pool_metrics = RunMetrics()
    _run(small_world.graph, tasks, 2, metrics=pool_metrics)

    assert (
        serial_metrics.deterministic_snapshot()
        == pool_metrics.deterministic_snapshot()
    )


_POOLED_RUN = """
import repro.runner.executor as executor
from repro.experiments.base import build_world
from repro.runner import RunConfig, SweepPointTask, run_batch

executor.available_cpus = lambda: 2  # a real pool even on a one-CPU host
world = build_world(seed=7, scale=0.25)
victim, attacker = world.topology.tier1[0], world.topology.tier1[1]
tasks = [SweepPointTask(victim=victim, attacker=attacker, padding=p) for p in (1, 2, 3)]
assert len(run_batch(world.engine, tasks, RunConfig(workers=2))) == 3
"""


def test_pooled_run_leaves_stderr_empty():
    """Anything a pool prints at exit (a tracker traceback, a leak or
    fork warning) lands on the stderr of the interpreter that owned it,
    so run one to completion."""
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _POOLED_RUN],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
