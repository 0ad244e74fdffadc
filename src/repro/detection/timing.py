"""Detection-timing analysis: pollution before the first alarm (Figure 14).

The engine's synchronous rounds give a logical clock for attack
propagation: every AS (monitors included) adopts the malicious route at
some round.  A monitor can raise the alarm no earlier than the round
its own view first shows the inconsistent route; the attack's
*detection round* is the earliest such round over all monitors whose
change actually triggers an alarm.  The damage already done by then is
the fraction of ASes that adopted the malicious route at an earlier or
equal round.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.interception import InterceptionResult
from repro.bgp.collectors import RouteCollector
from repro.detection.alarms import Alarm, Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.telemetry.metrics import RunMetrics

__all__ = ["DetectionTiming", "detection_timing"]


@dataclass(frozen=True)
class DetectionTiming:
    """Outcome of the timing analysis for one attack instance."""

    detected: bool
    #: logical round at which the first alarming monitor saw the attack
    detection_round: int | None
    #: ASes polluted no later than the detection round
    polluted_before_detection: frozenset[int]
    #: all ASes polluted once the attack fully converged
    polluted_total: frozenset[int]
    #: population size the fractions are computed over
    num_ases: int
    alarms: tuple[Alarm, ...]

    @property
    def fraction_polluted_before_detection(self) -> float:
        """Figure 14's x-axis statistic (1.0 when the attack went undetected)."""
        if not self.detected:
            return 1.0
        return (
            len(self.polluted_before_detection) / self.num_ases
            if self.num_ases
            else 0.0
        )


def detection_timing(
    result: InterceptionResult,
    collector: RouteCollector,
    detector: ASPPInterceptionDetector,
    *,
    min_confidence: Confidence = Confidence.LOW,
    attacker_feeds_collector: bool = True,
    metrics: RunMetrics | None = None,
) -> DetectionTiming:
    """Run the detector against an attack instance and time the detection.

    ``result`` must come from :func:`repro.attack.simulate_interception`
    (its attacked outcome carries post-attack adoption rounds).
    ``min_confidence`` controls whether low-confidence hint alarms count
    as detections.

    ``attacker_feeds_collector`` models whether an attacker that peers
    with the collector announces its (modified) route there like to any
    other neighbour — immediate, round-0 detection — or stays stealthy
    and suppresses its collector session (its feed then shows the
    unchanged legitimate route, and detection must wait for pollution
    to reach an honest monitor).

    ``metrics`` optionally records the analysis into a telemetry
    registry (``detection.*`` namespace): timings run, attacks
    detected, alarms raised, detection rounds and the
    polluted-before-detection fraction — plus ``collector.rows``, the
    monitor rows this analysis read off the two outcomes (the views are
    shared with stream synthesis through ``result.monitor_views``, so
    whichever asks first pays).
    """
    rows_before = collector.rows
    before_view, after_view, touched = result.monitor_views(
        collector, attacker_feeds_collector=attacker_feeds_collector
    )

    detection_round: int | None = None
    alarms: list[Alarm] = []
    for monitor in after_view.changed_since(before_view, among=touched):
        monitor_alarms = [
            alarm
            for alarm in detector.inspect_change(
                monitor,
                before_view.routes[monitor],
                after_view.routes[monitor],
                after_view,
            )
            if not (alarm.confidence is Confidence.LOW and min_confidence is Confidence.HIGH)
        ]
        if not monitor_alarms:
            continue
        alarms.extend(monitor_alarms)
        monitor_round = result.attacked.adoption_round.get(monitor, 0)
        if detection_round is None or monitor_round < detection_round:
            detection_round = monitor_round

    polluted_total = result.report.after
    if detection_round is None:
        polluted_before = polluted_total
    else:
        polluted_before = frozenset(
            asn
            for asn in polluted_total
            if result.attacked.adoption_round.get(asn, 0) <= detection_round
        )
    timing = DetectionTiming(
        detected=detection_round is not None,
        detection_round=detection_round,
        polluted_before_detection=polluted_before,
        polluted_total=polluted_total,
        # the report's population: every AS but the attacker and victim
        num_ases=result.report.num_ases,
        alarms=tuple(alarms),
    )
    if metrics is not None and metrics.enabled:
        metrics.count("collector.rows", collector.rows - rows_before)
        metrics.count("detection.timings")
        metrics.count("detection.alarms", len(alarms))
        if timing.detected:
            metrics.count("detection.detected")
            metrics.observe("detection.detection_round", detection_round)
        metrics.observe(
            "detection.polluted_before_fraction",
            timing.fraction_polluted_before_detection,
        )
    return timing
