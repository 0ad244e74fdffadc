"""Figure 13's per-count loop, kept as an oracle.

This is how :func:`repro.experiments.fig13_detection_accuracy.run`
decided its rows before a fleet sweep was a bisection: for every fleet
size, every effective attack runs the batch timing and a fresh
streaming detector on the top-``count`` fleet.  The bisection must
give the same rows and summary (``test_fig13_bisection.py``).
"""

from __future__ import annotations

from repro.attack.interception import simulate_interception
from repro.bgp.collectors import RouteCollector
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.monitors import top_degree_monitors
from repro.detection.streaming import StreamingDetector, attack_update_stream
from repro.detection.timing import detection_timing
from repro.experiments.base import build_world, sample_attack_pairs
from repro.experiments.fig13_detection_accuracy import Fig13Config
from repro.utils.rand import derive_rng, make_rng


def per_count_fig13(config: Fig13Config) -> tuple[list[tuple], dict[str, float]]:
    """fig13's ``(rows, summary)``, one full pass per fleet size."""
    world = build_world(seed=config.seed, scale=config.scale)
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

    rows = []
    summary: dict[str, float] = {"effective_attacks": float(len(attacks))}
    counts = [count for count in config.monitor_counts if count <= len(graph)]
    ranked = top_degree_monitors(graph, max(counts, default=1))
    for count in counts:
        collector = RouteCollector(graph, ranked[:count])
        detected = 0
        stream_detected = 0
        for result in attacks:
            if detection_timing(result, collector, detector).detected:
                detected += 1
            streaming = StreamingDetector(detector)
            streaming.prime(result.monitor_views(collector)[0])
            if streaming.consume_all(attack_update_stream(result, collector)):
                stream_detected += 1
        accuracy = 100 * detected / len(attacks)
        stream_accuracy = 100 * stream_detected / len(attacks)
        rows.append((count, detected, round(accuracy, 1), round(stream_accuracy, 1)))
        summary[f"accuracy_pct_{count}_monitors"] = accuracy
        summary[f"streaming_accuracy_pct_{count}_monitors"] = stream_accuracy
    return rows, summary
