"""Figure 13 — detection accuracy with increasing monitors.

200 random attacker/victim pairs are hijacked; monitors are the top-d
ASes by degree.  The paper reports 92% of attacks detected with 70
monitors and above 99% beyond 150 (of ~33k ASes).  Our topology is
~20x smaller, so the x-axis spans a proportionally larger *fraction*
of ASes; the shape to reproduce is the monotone rise to saturation.

Accuracy is measured over *effective* attacks — pairs where the
stripped route polluted at least one AS.  (A valley-free attacker that
nobody routes through has announced nothing; there is no attack to
detect.)

Two series are reported: the batch comparison of converged snapshots
(the conservative reading of the paper's method) and the *streaming*
detector consuming the attack's update sequence as it propagates —
which provably dominates it, because mid-stream the not-yet-switched
monitors still exhibit the padded route, evidence that vanishes from
the final converged view.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.interception import simulate_interception
from repro.bgp.collectors import RouteCollector
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.monitors import top_degree_monitors
from repro.detection.streaming import StreamingDetector, attack_update_stream
from repro.detection.timing import detection_timing
from repro.exceptions import ExperimentError
from repro.experiments.base import (
    ExperimentResult,
    build_world,
    instrumented,
    sample_attack_pairs,
)
from repro.telemetry.metrics import RunMetrics
from repro.utils.rand import derive_rng, make_rng

__all__ = ["Fig13Config", "run"]


@dataclass(frozen=True)
class Fig13Config:
    seed: int = 7
    scale: float = 1.0
    pairs: int = 200
    origin_padding: int = 3
    monitor_counts: tuple[int, ...] = (10, 30, 50, 70, 100, 150, 200, 250, 300, 400)


@instrumented("fig13")
def run(
    config: Fig13Config = Fig13Config(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Regenerate Figure 13: % of attacks detected vs number of monitors."""
    world = build_world(seed=config.seed, scale=config.scale, metrics=metrics)
    graph = world.graph
    rng = derive_rng(make_rng(config.seed), "fig13-pairs")
    pairs = sample_attack_pairs(world, config.pairs, rng)
    detector = ASPPInterceptionDetector(graph)

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

    rows = []
    summary: dict[str, float] = {"effective_attacks": float(len(attacks))}
    counts = [count for count in config.monitor_counts if count <= len(graph)]
    # The top-d fleets are nested: rank once, slice per count.
    ranked = top_degree_monitors(graph, max(counts, default=1))
    for count in counts:
        collector = RouteCollector(graph, ranked[:count])
        detected = 0
        stream_detected = 0
        for result in attacks:
            if detection_timing(result, collector, detector, metrics=metrics).detected:
                detected += 1
            streaming = StreamingDetector(detector, metrics=metrics)
            streaming.prime(result.monitor_views(collector)[0])
            if streaming.consume_all(attack_update_stream(result, collector)):
                stream_detected += 1
        accuracy = 100 * detected / len(attacks)
        stream_accuracy = 100 * stream_detected / len(attacks)
        rows.append((count, detected, round(accuracy, 1), round(stream_accuracy, 1)))
        summary[f"accuracy_pct_{count}_monitors"] = accuracy
        summary[f"streaming_accuracy_pct_{count}_monitors"] = stream_accuracy
    return ExperimentResult(
        experiment_id="fig13",
        title="Detection accuracy with increasing monitors",
        params={
            "pairs": config.pairs,
            "origin_padding": config.origin_padding,
            "seed": config.seed,
            "scale": config.scale,
        },
        headers=("monitors", "attacks_detected", "accuracy_%", "streaming_accuracy_%"),
        rows=rows,
        summary=summary,
        notes=[
            "paper: 92% detected with 70 monitors, >99% beyond 150 (topology "
            "~33k ASes); ours is ~20x smaller so the curve saturates at a "
            "proportionally larger monitor fraction — the monotone shape is "
            "the reproduced result",
            "the streaming series (real-time update consumption, the paper's "
            "deployment model) dominates the batch series: transient padded "
            "evidence is visible mid-propagation but gone at convergence",
        ],
    )
