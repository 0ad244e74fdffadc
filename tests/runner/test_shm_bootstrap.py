"""Shared-memory worker bootstrap tests.

The pool path must ship the topology to workers as a shared-memory CSR
payload — never as a pickled :class:`ASGraph` — while keeping results
bit-identical to the serial path.  The
``runner.shm.graph_pickles`` counter is the tripwire: any pool worker
that falls back to unpickling the graph increments it, so these tests
assert it stays at zero on the happy path and fires exactly when the
fallback is exercised.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner import (
    DeploymentPointTask,
    SupervisedExecutor,
    SweepPointTask,
    WorkerSpec,
)
from repro.telemetry.metrics import RunMetrics

PADDINGS = tuple(range(1, 6))


def _tasks(world):
    victim, attacker = world.tier1[0], world.tier1[1]
    return [
        SweepPointTask(victim=victim, attacker=attacker, padding=p) for p in PADDINGS
    ]


def _serial_reference(spec, tasks):
    with SupervisedExecutor(spec, workers=1, metrics=RunMetrics()) as serial:
        return serial.run(tasks)


def test_pool_workers_bootstrap_from_shared_memory(small_world, real_pool):
    spec = WorkerSpec(small_world.graph, metrics_enabled=True)
    tasks = _tasks(small_world)
    reference = _serial_reference(spec, tasks)

    metrics = RunMetrics()
    with SupervisedExecutor(
        spec, workers=2, metrics=metrics
    ) as pool:
        results = pool.run(tasks)

    assert results == reference
    # The parent published the compiled topology exactly once...
    assert metrics.counter_value("runner.shm.publishes") == 1
    assert metrics.counter_value("runner.shm.published_bytes") > 0
    # ...every worker that ran a task bootstrapped by attaching to it...
    assert metrics.counter_value("runner.shm.bootstraps") >= 1
    assert metrics.counter_value("runner.shm.attached_bytes") > 0
    # ...and no worker ever re-pickled the graph.
    assert metrics.counter_value("runner.shm.graph_pickles") == 0
    assert metrics.counter_value("runner.shm.fallbacks") == 0


def test_shm_failure_falls_back_to_pickled_graph(small_world, monkeypatch, real_pool):
    """If shared memory is unavailable the executor ships the original
    graph-pickling spec; workers still run, results stay identical, and
    the telemetry records both the fallback and the pickles."""
    import repro.runner.supervisor as supervisor_mod

    def broken_publish(topo):
        raise OSError("no /dev/shm")

    monkeypatch.setattr(supervisor_mod, "publish_topology", broken_publish)

    spec = WorkerSpec(small_world.graph, metrics_enabled=True)
    tasks = _tasks(small_world)
    reference = _serial_reference(spec, tasks)

    metrics = RunMetrics()
    with SupervisedExecutor(
        spec, workers=2, metrics=metrics
    ) as pool:
        results = pool.run(tasks)

    assert results == reference
    assert metrics.counter_value("runner.shm.fallbacks") == 1
    assert metrics.counter_value("runner.shm.publishes") == 0
    assert metrics.counter_value("runner.shm.bootstraps") == 0
    # Each pool worker that ran a task paid the pickled-graph bootstrap.
    assert metrics.counter_value("runner.shm.graph_pickles") >= 1


def test_vectorized_backend_pool_bootstraps_from_shared_memory(small_world, real_pool):
    """A pool worker that attached to the published topology converges
    its baselines where a serial engine does, on the wave kernel: the
    engine built by ``from_compiled`` decides the cold core like any
    other."""
    pytest.importorskip("numpy", reason="the wave kernel requires numpy")
    victim, attacker = small_world.tier1[0], small_world.tier1[1]
    # Route-building cells, so the workers' engines converge baselines.
    tasks = [
        DeploymentPointTask(victim=victim, attacker=attacker, padding=p)
        for p in PADDINGS
    ]
    spec = WorkerSpec(small_world.graph, metrics_enabled=True)
    reference = _serial_reference(spec, tasks)

    metrics = RunMetrics()
    with SupervisedExecutor(
        spec, workers=2, metrics=metrics
    ) as pool:
        results = pool.run(tasks)

    assert results == reference
    assert metrics.counter_value("runner.shm.publishes") == 1
    assert metrics.counter_value("runner.shm.bootstraps") >= 1
    assert metrics.counter_value("runner.shm.graph_pickles") == 0
    # The attached engines' cold runs really are kernel columns.
    assert metrics.counter_value("engine.vectorized.propagations") >= 1
    assert metrics.counter_value("engine.cold.propagations") == 0


def test_serial_path_never_touches_shared_memory(small_world):
    """workers=1 runs in-process: no segment, no shm counters at all."""
    spec = WorkerSpec(small_world.graph, metrics_enabled=True)
    metrics = RunMetrics()
    with SupervisedExecutor(spec, workers=1, metrics=metrics) as serial:
        serial.run(_tasks(small_world))
        assert serial._shm_segment is None
    assert all(not name.startswith("runner.shm.") for name in metrics.counters)


def test_deterministic_snapshot_invariant_across_transport(small_world, real_pool):
    """The deterministic telemetry snapshot excludes the transport-shaped
    ``runner.shm.*`` namespace, so serial and shm-pooled runs of the
    same workload agree on it exactly."""
    spec = WorkerSpec(small_world.graph, metrics_enabled=True)
    tasks = _tasks(small_world)

    serial_metrics = RunMetrics()
    with SupervisedExecutor(spec, workers=1, metrics=serial_metrics) as serial:
        serial.run(tasks)

    pool_metrics = RunMetrics()
    with SupervisedExecutor(
        spec, workers=2, metrics=pool_metrics
    ) as pool:
        pool.run(tasks)

    assert (
        serial_metrics.deterministic_snapshot()
        == pool_metrics.deterministic_snapshot()
    )


_POOLED_RUN = """
import repro.runner.executor as executor
from repro.experiments.base import build_world
from repro.runner import SupervisedExecutor, SweepPointTask, WorkerSpec

executor.available_cpus = lambda: 2  # a real pool even on a one-CPU host
world = build_world(seed=7, scale=0.25)
victim, attacker = world.topology.tier1[0], world.topology.tier1[1]
tasks = [SweepPointTask(victim=victim, attacker=attacker, padding=p) for p in (1, 2, 3)]
with SupervisedExecutor(WorkerSpec(world.graph), workers=2) as pool:
    assert len(pool.run(tasks)) == 3
"""


def test_pooled_run_leaves_the_resource_tracker_quiet():
    """Workers share the parent's resource tracker; if an attaching
    worker unregisters the segment, the parent's ``unlink()`` makes the
    tracker print ``KeyError: '/psm_*'`` (and a worker that registers a
    second time makes it warn about leaks).  Both land on the stderr of
    the interpreter that owned the pool, so run one to completion."""
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
