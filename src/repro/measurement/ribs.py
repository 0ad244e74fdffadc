"""Building per-monitor routing tables (the RouteViews/RIPE substitute).

The paper's measurement pipeline starts from routing-table snapshots of
every monitor.  We produce the same object synthetically: pick a set of
origin ASes (each announcing one prefix), configure their prepending
behaviour from the :class:`~repro.measurement.padding_model.PaddingBehaviorModel`,
run the propagation engine once per prefix, and record every monitor's
best route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bgp.collectors import RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import Route
from repro.exceptions import MeasurementError
from repro.measurement.padding_model import PaddingBehaviorModel
from repro.topology.asgraph import ASGraph

__all__ = ["MonitorRIBs", "build_monitor_ribs"]


@dataclass
class MonitorRIBs:
    """Routing tables of all monitors plus bookkeeping about the world.

    ``tables`` maps monitor ASN -> prefix -> best :class:`Route`.
    ``origins`` maps prefix -> origin ASN; ``prepending_origins`` is the
    subset of origins that were configured to prepend.
    """

    tables: dict[int, dict[str, Route]] = field(default_factory=dict)
    origins: dict[str, int] = field(default_factory=dict)
    prepending_origins: frozenset[int] = frozenset()
    prepending: PrependingPolicy = field(default_factory=PrependingPolicy)

    @property
    def prefixes(self) -> list[str]:
        return sorted(self.origins)

    def all_paths(self) -> list[tuple[int, ...]]:
        """Every AS-PATH present in any monitor table (with duplicates).

        This is the input the inference algorithms consume.
        """
        paths: list[tuple[int, ...]] = []
        for table in self.tables.values():
            for route in table.values():
                if route.path:
                    paths.append(route.path)
        return paths


def build_monitor_ribs(
    graph: ASGraph,
    collector: RouteCollector,
    *,
    num_prefixes: int,
    model: PaddingBehaviorModel,
    rng: random.Random,
    origin_pool: list[int] | None = None,
    prefix_template: str = "10.{index}.0.0/16",
    engine: PropagationEngine | None = None,
) -> MonitorRIBs:
    """Simulate ``num_prefixes`` prefix originations and collect tables.

    Origins are drawn without replacement from ``origin_pool`` (default:
    all ASes); each prefix is announced by one origin whose prepending
    behaviour is sampled from ``model``.  A shared intermediary-
    prepending configuration is sampled once for the whole world.
    """
    pool = list(origin_pool) if origin_pool is not None else list(graph.ases)
    if num_prefixes < 1:
        raise MeasurementError("need at least one prefix")
    if num_prefixes > len(pool):
        raise MeasurementError(
            f"cannot originate {num_prefixes} prefixes from {len(pool)} origins"
        )
    engine = engine or PropagationEngine(graph)
    origins = rng.sample(pool, num_prefixes)

    policy = PrependingPolicy()
    prepending_origins: set[int] = set()
    for origin in origins:
        if model.configure_origin(graph, origin, policy, rng):
            prepending_origins.add(origin)
    model.configure_intermediaries(graph, policy, rng)

    ribs = MonitorRIBs(
        tables={monitor: {} for monitor in collector.monitors},
        prepending_origins=frozenset(prepending_origins),
        prepending=policy,
    )
    for index, origin in enumerate(origins):
        prefix = prefix_template.format(index=index)
        ribs.origins[prefix] = origin
        outcome = engine.propagate(origin, prefix=prefix, prepending=policy)
        view = collector.snapshot(outcome)
        for monitor, route in view.routes.items():
            if route is not None:
                ribs.tables[monitor][prefix] = route
    return ribs
