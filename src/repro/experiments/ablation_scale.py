"""Ablation — sensitivity of the headline results to topology scale.

EXPERIMENTS.md argues twice from topology size: the paper's absolute
detection accuracy does not transfer because coverage scales with the
monitor *fraction*, while the attack-impact results (Figure 7's ~40%
Tier-1 pollution) are scale-stable.  This ablation tests both claims
directly by regenerating the two statistics on worlds of increasing
size:

* mean Tier-1-vs-Tier-1 pollution at λ=3 (Figure 7's headline) —
  expected roughly flat across scales;
* detection accuracy with monitors fixed at 10% of ASes (Figure 13 at
  a constant *fraction*) — expected roughly flat across scales, which
  is exactly why the paper's absolute monitor counts (70/150 of 33k)
  cannot be compared with ours (of ~1.5k) directly.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.attack.interception import simulate_interception
from repro.bgp.collectors import RouteCollector
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.monitors import top_degree_monitors
from repro.detection.timing import detection_timing
from repro.exceptions import ExperimentError
from repro.experiments.base import ExperimentResult, build_world, instrumented, sample_attack_pairs
from repro.telemetry.metrics import RunMetrics
from repro.utils.rand import derive_rng, make_rng

__all__ = ["AblationScaleConfig", "run"]


@dataclass(frozen=True)
class AblationScaleConfig:
    seed: int = 7
    scales: tuple[float, ...] = (0.25, 0.5, 1.0)
    tier1_instances: int = 20
    detection_pairs: int = 60
    origin_padding: int = 3
    monitor_fraction: float = 0.1


@instrumented("ablation-scale")
def run(
    config: AblationScaleConfig = AblationScaleConfig(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Regenerate the two headline statistics at each scale."""
    if not config.scales:
        raise ExperimentError("need at least one scale")
    rows: list[tuple[object, ...]] = []
    summary: dict[str, float] = {}
    for scale in config.scales:
        world = build_world(seed=config.seed, scale=scale, metrics=metrics)
        graph = world.graph
        rng = derive_rng(make_rng(config.seed), f"scale-{scale}")

        # Figure-7 statistic: Tier-1 pairs at λ=3.
        tier1 = world.topology.tier1
        pairs = [(a, v) for a in tier1 for v in tier1 if a != v]
        rng.shuffle(pairs)
        pollutions = []
        for attacker, victim in pairs[: config.tier1_instances]:
            result = simulate_interception(
                world.engine,
                victim=victim,
                attacker=attacker,
                origin_padding=config.origin_padding,
            )
            pollutions.append(result.report.after_fraction)
        tier1_mean = 100 * statistics.mean(pollutions)

        # Figure-13 statistic at a constant monitor *fraction*.
        monitor_count = max(5, round(config.monitor_fraction * len(graph)))
        collector = RouteCollector(graph, top_degree_monitors(graph, monitor_count))
        detector = ASPPInterceptionDetector(graph)
        attack_pairs = sample_attack_pairs(world, config.detection_pairs, rng)
        detected = effective = 0
        for attacker, victim in attack_pairs:
            result = simulate_interception(
                world.engine,
                victim=victim,
                attacker=attacker,
                origin_padding=config.origin_padding,
            )
            if not result.report.after:
                continue
            effective += 1
            detected += detection_timing(result, collector, detector).detected
        accuracy = 100 * detected / effective if effective else 0.0

        rows.append(
            (
                scale,
                len(graph),
                round(tier1_mean, 1),
                monitor_count,
                round(accuracy, 1),
            )
        )
        summary[f"tier1_mean_pollution_pct_scale_{scale}"] = tier1_mean
        summary[f"detection_accuracy_pct_scale_{scale}"] = accuracy
    return ExperimentResult(
        experiment_id="ablation-scale",
        title="Scale sensitivity of the headline statistics",
        params={
            "scales": config.scales,
            "origin_padding": config.origin_padding,
            "monitor_fraction": config.monitor_fraction,
            "seed": config.seed,
        },
        headers=(
            "scale",
            "ases",
            "tier1_mean_pollution_%",
            "monitors_(10%)",
            "detection_accuracy_%",
        ),
        rows=rows,
        summary=summary,
        notes=[
            "attack impact (Figure 7's statistic) is roughly scale-stable; "
            "detection accuracy at a fixed monitor *fraction* is too — which "
            "is why the paper's absolute monitor counts cannot be compared "
            "across topology sizes"
        ],
    )
