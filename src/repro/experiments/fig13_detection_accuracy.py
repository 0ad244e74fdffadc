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

The top-d fleets are nested and every alarm needs a witness inside the
fleet, so "detected" can only switch from no to yes as d grows: each
series bisects, per attack, for the smallest detecting fleet over the
sorted, de-duplicated fleet sizes (DESIGN decision 27).  A
registry's ``detection.timings``, ``detection.pipeline.*`` and
``collector.rows`` therefore count the probes the searches made — at
most ``n.bit_length()`` per attack for the batch series over ``n``
sizes, and mostly two for the streaming series, which starts where the
batch search ended — not fleet sizes × attacks.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

from repro.attack.interception import InterceptionResult, simulate_interception
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


def _batch_detects(
    result: InterceptionResult,
    detector: ASPPInterceptionDetector,
    metrics: RunMetrics | None,
    collector: RouteCollector,
) -> bool:
    """Whether the batch comparison of converged views alarms."""
    return detection_timing(result, collector, detector, metrics=metrics).detected


def _stream_detects(
    result: InterceptionResult,
    detector: ASPPInterceptionDetector,
    metrics: RunMetrics | None,
    collector: RouteCollector,
) -> bool:
    """Whether a detector primed on the baseline view alarms on the
    attack's update stream."""
    streaming = StreamingDetector(detector, metrics=metrics)
    streaming.prime(result.monitor_views(collector)[0])
    return bool(streaming.consume_all(attack_update_stream(result, collector)))


def _first_detecting(
    fleets: list[RouteCollector], probe: Callable[[RouteCollector], bool], guess: int
) -> int:
    """The index of the smallest fleet ``probe`` accepts (``len(fleets)``
    when none does), probing ``guess`` and ``guess - 1`` first.

    ``probe`` must be monotone over the nested fleets; the guess only
    orders the probes, so every guess gives the same index.
    """
    if guess < len(fleets) and not probe(fleets[guess]):
        return bisect_left(fleets, True, guess + 1, key=probe)
    if guess == 0 or not probe(fleets[guess - 1]):
        return guess
    return bisect_left(fleets, True, 0, guess - 1, key=probe)


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

    counts = [count for count in config.monitor_counts if count <= len(graph)]
    if any(count < 1 for count in counts):
        raise ExperimentError("monitor counts must be positive")
    # The top-d fleets are nested: rank once, slice per fleet size.
    sizes = sorted(set(counts))
    ranked = top_degree_monitors(graph, max(sizes, default=1))
    fleets = [RouteCollector(graph, ranked[:size]) for size in sizes]
    # Detection can only switch from no to yes as the fleet grows
    # (DESIGN decision 27), so each series bisects for the smallest
    # detecting fleet; first[i] attacks first detect at sizes[i], and
    # first[-1] never do.  The streaming search starts where the batch
    # one ended: the series mostly agree, and the fleets there already
    # hold this attack's view pairs.  Each effective attack is detected
    # as soon as it is simulated, so one attack is held at a time.
    first_batch = [0] * (len(sizes) + 1)
    first_stream = [0] * (len(sizes) + 1)
    effective = 0
    for attacker, victim in pairs:
        result = simulate_interception(
            world.engine,
            victim=victim,
            attacker=attacker,
            origin_padding=config.origin_padding,
        )
        if not result.report.after:
            continue
        effective += 1
        batch = bisect_left(fleets, True, key=partial(_batch_detects, result, detector, metrics))
        first_batch[batch] += 1
        stream = _first_detecting(
            fleets, partial(_stream_detects, result, detector, metrics), batch
        )
        first_stream[stream] += 1
    if not effective:
        raise ExperimentError("no effective attacks in the sampled pairs")
    detected_by = dict(zip(sizes, accumulate(first_batch)))
    stream_detected_by = dict(zip(sizes, accumulate(first_stream)))

    rows = []
    summary: dict[str, float] = {"effective_attacks": float(effective)}
    for count in counts:
        detected = detected_by[count]
        accuracy = 100 * detected / effective
        stream_accuracy = 100 * stream_detected_by[count] / effective
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
