"""The eager detection timing, kept as an oracle.

This is how :func:`repro.detection.timing.detection_timing` worked
before a timing was decided by ``raises_alarm`` and its alarms were
built on first read: every changed monitor's ``inspect_change`` alarms
are built, filtered by confidence and collected, and a monitor counts
towards the detection round iff its filtered list is non-empty.  The
lazy timing must equal it field for field, alarm for alarm, and in
every counter it records (``test_lazy_timing.py``).
"""

from __future__ import annotations

from repro.attack.interception import InterceptionResult
from repro.bgp.collectors import RouteCollector
from repro.detection.alarms import Alarm, Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.timing import DetectionTiming
from repro.telemetry.metrics import RunMetrics


def eager_detection_timing(
    result: InterceptionResult,
    collector: RouteCollector,
    detector: ASPPInterceptionDetector,
    *,
    min_confidence: Confidence = Confidence.LOW,
    attacker_feeds_collector: bool = True,
    metrics: RunMetrics | None = None,
) -> DetectionTiming:
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
        num_ases=result.report.num_ases,
        alarms=tuple(alarms),
    )
    if metrics is not None:
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
