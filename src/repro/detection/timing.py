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

from collections.abc import Callable
from dataclasses import FrozenInstanceError
from functools import partial
from typing import Any

from repro.attack.interception import InterceptionResult
from repro.bgp.collectors import MonitorView, RouteCollector
from repro.detection.alarms import Alarm, Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.telemetry.metrics import RunMetrics

__all__ = ["DetectionTiming", "detection_timing"]

_FIELDS = (
    "detected",
    "detection_round",
    "polluted_before_detection",
    "polluted_total",
    "num_ases",
)


class DetectionTiming:
    """Outcome of the timing analysis for one attack instance.

    A frozen record: ``detected``, ``detection_round`` (the logical
    round at which the first alarming monitor saw the attack),
    ``polluted_before_detection`` (ASes polluted no later than that
    round), ``polluted_total`` (all ASes polluted once the attack fully
    converged), ``num_ases`` (the population the fractions are computed
    over) and ``alarms``.

    ``alarms`` is read-only.  It may be handed over as a zero-argument
    callable, which then builds the tuple on first read —
    :func:`detection_timing` does that, because its callers read the
    round, not the evidence.  ``==``, ``hash``, ``repr`` and pickling
    read it, so they are what a record holding the tuple gives, and a
    pickle carries the tuple under ``alarms``.
    """

    __slots__ = (*_FIELDS, "_alarms")

    detected: bool
    detection_round: int | None
    polluted_before_detection: frozenset[int]
    polluted_total: frozenset[int]
    num_ases: int

    def __init__(
        self,
        detected: bool,
        detection_round: int | None,
        polluted_before_detection: frozenset[int],
        polluted_total: frozenset[int],
        num_ases: int,
        alarms: tuple[Alarm, ...] | Callable[[], tuple[Alarm, ...]],
    ) -> None:
        self.__setstate__(
            {
                "detected": detected,
                "detection_round": detection_round,
                "polluted_before_detection": polluted_before_detection,
                "polluted_total": polluted_total,
                "num_ases": num_ases,
                "alarms": alarms,
            }
        )

    @property
    def alarms(self) -> tuple[Alarm, ...]:
        alarms = self._alarms
        if callable(alarms):
            alarms = alarms()
            object.__setattr__(self, "_alarms", alarms)
        return alarms

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

    def _values(self) -> tuple[Any, ...]:
        return (*(getattr(self, name) for name in _FIELDS), self.alarms)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={value!r}" for name, value in zip((*_FIELDS, "alarms"), self._values())
        )
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict[str, Any]:
        # ``alarms`` travels as the built tuple, never as the view pair
        # and detector it is built from.
        return dict(zip((*_FIELDS, "alarms"), self._values()))

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name in _FIELDS:
            object.__setattr__(self, name, state[name])
        object.__setattr__(self, "_alarms", state["alarms"])


def _alarms_of(
    detector: ASPPInterceptionDetector,
    before: MonitorView,
    after: MonitorView,
    monitors: tuple[int, ...],
    min_confidence: Confidence,
) -> tuple[Alarm, ...]:
    """The alarming monitors' ``inspect_change`` alarms, in monitor
    order, filtered by ``min_confidence``."""
    return tuple(
        alarm
        for monitor in monitors
        for alarm in detector.inspect_change(
            monitor, before.routes[monitor], after.routes[monitor], after
        )
        if not (alarm.confidence is Confidence.LOW and min_confidence is Confidence.HIGH)
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

    Each changed monitor is decided by
    :meth:`~ASPPInterceptionDetector.raises_alarm`; the timing keeps the
    view pair and enumerates the alarming monitors' alarms when
    ``alarms`` is first read.

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
    before, after = before_view.routes, after_view.routes
    raises_alarm = detector.raises_alarm
    alarming = tuple(
        monitor
        for monitor in after_view.changed_since(before_view, among=touched)
        if raises_alarm(
            monitor,
            before[monitor],
            after[monitor],
            after_view,
            min_confidence=min_confidence,
        )
    )
    rounds = result.attacked.adoption_round
    detection_round = min((rounds.get(monitor, 0) for monitor in alarming), default=None)

    polluted_total = result.report.after
    if detection_round is None:
        polluted_before = polluted_total
    else:
        polluted_before = frozenset(
            asn for asn in polluted_total if rounds.get(asn, 0) <= detection_round
        )
    timing = DetectionTiming(
        detected=detection_round is not None,
        detection_round=detection_round,
        polluted_before_detection=polluted_before,
        polluted_total=polluted_total,
        # the report's population: every AS but the attacker and victim
        num_ases=result.report.num_ases,
        alarms=partial(
            _alarms_of, detector, before_view, after_view, alarming, min_confidence
        )
        if alarming
        else (),
    )
    if metrics is not None:
        metrics.count("collector.rows", collector.rows - rows_before)
        metrics.count("detection.timings")
        metrics.count("detection.alarms", len(timing.alarms))
        if timing.detected:
            metrics.count("detection.detected")
            metrics.observe("detection.detection_round", detection_round)
        metrics.observe(
            "detection.polluted_before_fraction",
            timing.fraction_polluted_before_detection,
        )
    return timing
