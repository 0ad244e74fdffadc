"""Golden test: the exhaustive grid vs per-pair recompute, plus
store replay (resume) semantics over grid cells.

The exhaustive grid is the densest campaign shape, so its correctness
bar is the strictest: every cell of the grid — computed by the impact
kernel as a batched column — and every cell of the same grid forced
onto the engine route (cached baseline, warm-started attack) must
equal, field for field, the result of converging that cell in complete
isolation (cold baseline, no cache shared with any other cell).  The
per-pair recompute is the reference oracle; any cross-cell
contamination in the kernel's column memo, the cache or the engine's
warm state shows up as a cell mismatch here.
"""

from __future__ import annotations

import pytest

from repro.attack.interception import simulate_interception
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import SimulationError
from repro.experiments.sweeps import exhaustive_grid
from repro.runner import RunConfig, SweepPointResult
from repro.store import CampaignStore
from repro.telemetry.metrics import RunMetrics
from tests.bgp.loop_oracle import LoopEngine
from tests.strategies import TINY, cold_convergences, engine_route_points, tiny_world

PADDING = 3


@pytest.fixture(scope="module")
def grid_world():
    world, _ = tiny_world(7, TINY)
    return world


@pytest.fixture(scope="module")
def grid_pools(grid_world):
    """Modest pools so the per-pair recompute oracle stays fast: six
    transit attackers crossed with a systematic victim sample."""
    attackers = grid_world.transit_ases[:6]
    victims = grid_world.graph.ases[::7]
    return attackers, victims


def _recompute_cell(engine, attacker, victim):
    """One grid cell in complete isolation: its own cold baseline."""
    prepending = PrependingPolicy.uniform_origin(victim, PADDING)
    baseline = engine.propagate(victim, prepending=prepending)
    result = simulate_interception(
        engine,
        victim=victim,
        attacker=attacker,
        origin_padding=PADDING,
        prepending=prepending,
        baseline=baseline,
    )
    return SweepPointResult(
        attacker=attacker,
        victim=victim,
        padding=PADDING,
        before_fraction=result.report.before_fraction,
        after_fraction=result.report.after_fraction,
        attacker_kept_route=result.attacker_has_route,
    )


@pytest.mark.slow
def test_grid_matches_per_pair_recompute(grid_world, grid_pools):
    """Cell-for-cell equality of the grid (every cell on the impact
    kernel, none falling back) and of the engine route on a default
    engine (one baseline convergence per victim, one warm start per
    cell) with the per-pair recompute on the loop by name."""
    attackers, victims = grid_pools
    graph = grid_world.graph
    pairs = [(a, v) for a in attackers for v in victims if a != v]

    oracle_engine = LoopEngine(graph)
    oracle_cells = [_recompute_cell(oracle_engine, a, v) for a, v in pairs]

    grid_metrics = RunMetrics()
    grid_cells = exhaustive_grid(
        PropagationEngine(graph),
        attackers=attackers,
        victims=victims,
        origin_padding=PADDING,
        run=RunConfig(metrics=grid_metrics),
    )
    assert grid_cells == oracle_cells
    assert grid_metrics.counter_value("engine.impact.cells") == len(pairs)
    assert grid_metrics.counter_value("engine.warm.propagations") == 0

    metrics = RunMetrics()
    engine_cells = engine_route_points(
        PropagationEngine(graph, metrics=metrics), [(a, v, PADDING) for a, v in pairs]
    )
    assert engine_cells == oracle_cells
    assert cold_convergences(metrics) == len(victims)
    assert metrics.counter_value("engine.warm.propagations") == len(pairs)


def test_grid_order_is_attackers_outer_victims_inner(grid_world, grid_pools):
    attackers, victims = grid_pools
    engine = PropagationEngine(grid_world.graph)
    cells = exhaustive_grid(
        engine, attackers=attackers, victims=victims, origin_padding=PADDING
    )
    expected = [(a, v) for a in attackers for v in victims if a != v]
    assert [(c.attacker, c.victim) for c in cells] == expected


def test_grid_rejects_empty_cross_product(grid_world):
    engine = PropagationEngine(grid_world.graph)
    lonely = grid_world.graph.ases[0]
    with pytest.raises(SimulationError):
        exhaustive_grid(
            engine, attackers=[lonely], victims=[lonely], origin_padding=PADDING
        )


@pytest.mark.slow
def test_checkpoint_resume_replays_every_completed_cell(
    grid_world, grid_pools, tmp_path
):
    """A rerun against a complete store must replay all cells and
    re-converge none of them: no kernel column, no attack flood,
    identical results."""
    attackers, victims = grid_pools
    graph = grid_world.graph
    path = tmp_path / "grid"

    engine = PropagationEngine(graph)
    with CampaignStore(path) as store:
        first = exhaustive_grid(
            engine,
            attackers=attackers,
            victims=victims,
            origin_padding=PADDING,
            run=RunConfig(store=store),
        )

    rerun_engine = PropagationEngine(graph)
    metrics = RunMetrics()
    with CampaignStore(path) as store:
        second = exhaustive_grid(
            rerun_engine,
            attackers=attackers,
            victims=victims,
            origin_padding=PADDING,
            run=RunConfig(store=store, metrics=metrics),
        )
    assert second == first
    assert metrics.counter_value("scheduler.store_hits") == len(first)
    # Replayed cells touch neither the kernel nor the engine, and the
    # prepare hook sees only the cells still to run — none.
    assert metrics.counter_value("engine.impact.cells") == 0
    assert metrics.counter_value("engine.impact.columns") == 0
    assert metrics.counter_value("engine.warm.propagations") == 0


def test_checkpoint_resume_runs_only_missing_cells(grid_world, grid_pools, tmp_path):
    """A store from a *partial* grid replays exactly its cells and
    converges only the remainder."""
    attackers, victims = grid_pools
    graph = grid_world.graph
    path = tmp_path / "partial"

    engine = PropagationEngine(graph)
    with CampaignStore(path) as store:
        partial = exhaustive_grid(
            engine,
            attackers=attackers[:3],
            victims=victims,
            origin_padding=PADDING,
            run=RunConfig(store=store),
        )

    rerun_engine = PropagationEngine(graph)
    metrics = RunMetrics()
    rerun_engine.metrics = metrics
    with CampaignStore(path) as store:
        full = exhaustive_grid(
            rerun_engine,
            attackers=attackers,
            victims=victims,
            origin_padding=PADDING,
            run=RunConfig(store=store, metrics=metrics),
        )
    assert full[: len(partial)] == partial
    fresh = len(full) - len(partial)
    assert metrics.counter_value("scheduler.store_hits") == len(partial)
    assert metrics.counter_value("engine.impact.cells") == fresh
