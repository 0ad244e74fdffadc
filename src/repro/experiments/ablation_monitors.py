"""Ablation — monitor-placement strategies (the paper's future work).

The paper evaluates only degree-ranked monitors and names vantage-point
selection for self-defence as future work (§V-B, §VIII).  This
ablation compares three placements at equal monitor budgets:

* ``top-degree`` — the paper's strategy;
* ``random`` — uniform over all ASes;
* ``victim-adjacent`` — per-victim monitors placed around the protected
  prefix owner (BFS rings), the self-defence deployment the paper
  sketches;
* ``greedy-cover`` — our set-cover optimiser
  (:mod:`repro.detection.placement`): monitors chosen to cover the
  customer cones of every potential attacker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.interception import simulate_interception
from repro.bgp.collectors import RouteCollector
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.monitors import (
    random_monitors,
    top_degree_monitors,
    victim_adjacent_monitors,
)
from repro.detection.placement import attacker_coverage, greedy_cover_monitors
from repro.detection.timing import detection_timing
from repro.exceptions import DetectionError, ExperimentError
from repro.experiments.base import ExperimentResult, build_world, instrumented, sample_attack_pairs
from repro.telemetry.metrics import RunMetrics
from repro.utils.rand import derive_rng, make_rng

__all__ = ["AblationMonitorsConfig", "run"]


@dataclass(frozen=True)
class AblationMonitorsConfig:
    seed: int = 7
    scale: float = 1.0
    pairs: int = 100
    origin_padding: int = 3
    monitor_budget: int = 100


@instrumented("ablation-monitors")
def run(
    config: AblationMonitorsConfig = AblationMonitorsConfig(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Compare detection accuracy across placement strategies."""
    world = build_world(seed=config.seed, scale=config.scale, metrics=metrics)
    graph = world.graph
    rng = derive_rng(make_rng(config.seed), "ablation-monitors")
    pairs = sample_attack_pairs(world, config.pairs, rng)
    detector = ASPPInterceptionDetector(graph)
    budget = min(config.monitor_budget, len(graph) - 1)

    attacks = []
    for attacker, victim in pairs:
        result = simulate_interception(
            world.engine,
            victim=victim,
            attacker=attacker,
            origin_padding=config.origin_padding,
        )
        if result.report.after:
            attacks.append(result)
    if not attacks:
        raise ExperimentError("no effective attacks in the sampled pairs")

    top_monitors = top_degree_monitors(graph, budget)
    top_collector = RouteCollector(graph, top_monitors)
    random_collector = RouteCollector(
        graph, random_monitors(graph, budget, derive_rng(make_rng(config.seed), "mon-random"))
    )
    cover_monitors = greedy_cover_monitors(graph, budget)
    cover_collector = RouteCollector(graph, cover_monitors)

    def accuracy_fixed(collector: RouteCollector) -> float:
        detected = sum(
            1
            for result in attacks
            if detection_timing(result, collector, detector).detected
        )
        return 100 * detected / len(attacks)

    def accuracy_victim_adjacent() -> float:
        detected = 0
        for result in attacks:
            try:
                monitors = victim_adjacent_monitors(
                    graph, result.attack.victim, budget
                )
            except DetectionError:
                continue
            collector = RouteCollector(graph, monitors)
            detected += detection_timing(result, collector, detector).detected
        return 100 * detected / len(attacks)

    accuracies = {
        "top-degree (paper)": accuracy_fixed(top_collector),
        "random": accuracy_fixed(random_collector),
        "victim-adjacent": accuracy_victim_adjacent(),
        "greedy-cover (ours)": accuracy_fixed(cover_collector),
    }
    rows = [(name, round(value, 1)) for name, value in accuracies.items()]
    summary = {
        "effective_attacks": float(len(attacks)),
        "coverage_top_degree": attacker_coverage(graph, top_monitors),
        "coverage_greedy": attacker_coverage(graph, cover_monitors),
    }
    summary.update(
        {
            f"accuracy_pct_{name.split()[0].replace('-', '_')}": value
            for name, value in accuracies.items()
        }
    )
    return ExperimentResult(
        experiment_id="ablation-monitors",
        title=f"Monitor placement strategies at budget {budget}",
        params={
            "pairs": config.pairs,
            "monitor_budget": budget,
            "origin_padding": config.origin_padding,
            "seed": config.seed,
            "scale": config.scale,
        },
        headers=("placement", "accuracy_%"),
        rows=rows,
        summary=summary,
        notes=[
            "victim-adjacent placement is the self-defence deployment the "
            "paper proposes as future work: monitors ringed around each "
            "protected prefix owner"
        ],
    )
