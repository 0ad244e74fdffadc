"""Shared measurement substrate for Figures 5 and 6.

Both figures characterise the same data: per-monitor routing tables
plus an update stream, produced over one synthetic world.  This module
builds that data once per configuration so the two experiments (and
their tests) stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.collectors import RouteCollector
from repro.bgp.updates import UpdateMessage, simulate_update_stream
from repro.detection.monitors import top_degree_monitors
from repro.experiments.base import ExperimentWorld, build_world
from repro.measurement.padding_model import PaddingBehaviorModel
from repro.measurement.ribs import MonitorRIBs, build_monitor_ribs
from repro.telemetry.metrics import RunMetrics
from repro.utils.rand import derive_rng, make_rng

__all__ = ["MeasurementWorld", "build_measurement_world"]


@dataclass
class MeasurementWorld:
    """Everything Figures 5/6 read: world, collector, tables, updates."""

    world: ExperimentWorld
    collector: RouteCollector
    ribs: MonitorRIBs
    updates: list[UpdateMessage]
    tier1_monitors: list[int]


def build_measurement_world(
    *,
    seed: int = 7,
    scale: float = 1.0,
    num_monitors: int = 60,
    num_prefixes: int = 400,
    churn_origins: int = 40,
    churn_events: int = 2,
    model: PaddingBehaviorModel | None = None,
    metrics: RunMetrics | None = None,
) -> MeasurementWorld:
    """Build monitor RIBs and an update stream over one world.

    ``churn_origins`` of the prefixes (preferring those whose origin
    prepends, since those expose padded backup routes) experience
    ``churn_events`` link-failure events each; the resulting update
    messages feed the "updates" series of both figures.  ``metrics``
    instruments the world (:func:`~repro.experiments.base.build_world`).
    """
    world = build_world(seed=seed, scale=scale, metrics=metrics)
    graph = world.graph
    rng = make_rng(seed)
    model = model or PaddingBehaviorModel()

    # RouteViews/RIPE peers are a mix of core ISPs and edge networks;
    # half the monitors are top-degree ASes (this always includes the
    # Tier-1 clique, Figure 5's second series), half are random edge
    # ASes.  The edge monitors matter: they are the ones that rarely
    # see prepended best routes, which is what separates the paper's
    # "all" curve from the Tier-1 curve.
    count = min(num_monitors, len(graph))
    core = sorted(
        set(top_degree_monitors(graph, max(1, count // 2)))
        | set(world.topology.tier1)
    )
    edge_rng = derive_rng(rng, "edge-monitors")
    edge_pool = [asn for asn in world.topology.stubs if asn not in set(core)]
    edge = edge_rng.sample(edge_pool, min(count - len(core), len(edge_pool)))
    monitors = sorted(set(core) | set(edge))
    collector = RouteCollector(graph, monitors)
    ribs = build_monitor_ribs(
        graph,
        collector,
        num_prefixes=min(num_prefixes, len(graph) - 1),
        model=model,
        rng=derive_rng(rng, "ribs"),
        engine=world.engine,
    )

    churn_rng = derive_rng(rng, "churn")
    updates: list[UpdateMessage] = []
    prepending_first = sorted(
        ribs.origins,
        key=lambda prefix: (ribs.origins[prefix] not in ribs.prepending_origins, prefix),
    )
    for prefix in prepending_first[: min(churn_origins, len(prepending_first))]:
        origin = ribs.origins[prefix]
        updates.extend(
            simulate_update_stream(
                world.engine,
                origin,
                collector,
                prefix=prefix,
                prepending=ribs.prepending,
                events=churn_events,
                rng=churn_rng,
            )
        )

    tier1_monitors = [m for m in monitors if m in set(world.topology.tier1)]
    return MeasurementWorld(
        world=world,
        collector=collector,
        ribs=ribs,
        updates=updates,
        tier1_monitors=tier1_monitors,
    )
