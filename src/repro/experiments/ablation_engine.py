"""Ablation — worklist engine vs. the paper's three-phase algorithm.

DESIGN.md decision 1: the repository carries two propagation
algorithms.  The general worklist engine supports attackers, siblings,
policy violation and warm starts; the paper's Figure-2 three-phase
algorithm is faster but only answers the attack-free case (and, via
:mod:`repro.bgp.uphill_hijack`, the paper's approximate attacked
case).  This ablation quantifies the cost of generality (runtime
ratio), verifies the attack-free algorithms agree on every AS, and
measures how far the paper's Figure-2 hijack approximation drifts from
the exact fixpoint on attacked worlds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.interception import simulate_interception
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.uphill import three_phase_routes
from repro.bgp.uphill_hijack import paper_hijack_estimate
from repro.exceptions import ExperimentError
from repro.experiments.base import ExperimentResult, _timed, build_world, instrumented
from repro.telemetry.metrics import RunMetrics
from repro.topology.generators import InternetTopologyConfig
from repro.utils.rand import derive_rng, make_rng

__all__ = ["AblationEngineConfig", "run"]


@dataclass(frozen=True)
class AblationEngineConfig:
    seed: int = 7
    scale: float = 1.0
    origins: int = 20
    origin_padding: int = 3


@instrumented("ablation-engine")
def run(
    config: AblationEngineConfig = AblationEngineConfig(),
    *,
    metrics: RunMetrics | None = None,
) -> ExperimentResult:
    """Check both algorithms agree over the same origins, timing each
    into ``metrics``.  The world's engine stays uninstrumented, like the
    oracle, so the two timers compare the algorithms alone."""
    # The three-phase oracle does not model sibling edges.
    topo_config = InternetTopologyConfig().scaled(config.scale)
    topo_config = type(topo_config)(
        **{**topo_config.__dict__, "sibling_pairs": 0}
    )
    world = build_world(seed=config.seed, config=topo_config)
    graph = world.graph
    rng = derive_rng(make_rng(config.seed), "ablation-engine")
    origins = rng.sample(graph.ases, min(config.origins, len(graph)))

    disagreements = 0
    for origin in origins:
        prepending = PrependingPolicy.uniform_origin(origin, config.origin_padding)
        with _timed(metrics, "experiment.ablation-engine.engine_seconds"):
            outcome = world.engine.propagate(origin, prepending=prepending)
        with _timed(metrics, "experiment.ablation-engine.oracle_seconds"):
            oracle = three_phase_routes(graph, origin, prepending=prepending)
        for asn in graph.ases:
            route = outcome.best.get(asn)
            reference = oracle.get(asn)
            if (route is None) != (reference is None):
                disagreements += 1
            elif route is not None and (
                route.pref != reference.pref or len(route.path) != reference.length
            ):
                disagreements += 1
    if disagreements:
        raise ExperimentError(
            f"engine and three-phase oracle disagree on {disagreements} routes"
        )

    # Attacked worlds: the paper's Figure-2 hijack approximation vs the
    # exact engine, compared on the headline pollution statistic.
    pair_rng = derive_rng(make_rng(config.seed), "ablation-hijack")
    hijack_diffs: list[float] = []
    for _ in range(max(1, config.origins // 2)):
        attacker = pair_rng.choice(world.topology.transit_ases)
        victim = pair_rng.choice([a for a in graph.ases if a != attacker])
        exact = simulate_interception(
            world.engine,
            victim=victim,
            attacker=attacker,
            origin_padding=config.origin_padding,
        )
        approx = paper_hijack_estimate(
            graph,
            victim=victim,
            attacker=attacker,
            origin_padding=config.origin_padding,
        )
        hijack_diffs.append(
            abs(exact.report.after_fraction - approx.polluted_fraction())
        )

    max_drift = max(hijack_diffs)
    mean_drift = sum(hijack_diffs) / len(hijack_diffs)
    rows = [
        ("routes: engine vs three-phase (Fig. 2)", len(origins) * len(graph), disagreements),
        ("hijack pollution: max |exact - Fig. 2|", len(hijack_diffs), round(max_drift, 4)),
        ("hijack pollution: mean |exact - Fig. 2|", len(hijack_diffs), round(mean_drift, 4)),
    ]
    summary = {
        "origins": float(len(origins)),
        "disagreements": float(disagreements),
        "hijack_pollution_max_abs_diff": max_drift,
        "hijack_pollution_mean_abs_diff": mean_drift,
    }
    return ExperimentResult(
        experiment_id="ablation-engine",
        title="Worklist engine vs three-phase algorithm (agreement and drift)",
        params={
            "origins": len(origins),
            "origin_padding": config.origin_padding,
            "seed": config.seed,
            "scale": config.scale,
        },
        headers=("comparison", "cases", "disagreements / drift"),
        rows=rows,
        summary=summary,
        notes=[
            "both attack-free algorithms agree on (preference class, path "
            "length) everywhere",
            "the paper's Figure-2 hijack approximation tracks the exact "
            "engine's pollution fraction (see hijack_pollution_*_diff)",
            "the cost of generality is wall-clock: --metrics shows the "
            "experiment.ablation-engine.{engine,oracle}_seconds timers",
        ],
    )
