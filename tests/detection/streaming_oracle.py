"""The per-update streaming detector, kept as an oracle.

This is how :class:`~repro.detection.streaming.StreamingDetector`
consumed a stream before it ran in batches: one update at a time, a
fresh :class:`Route` per announcement, duplicate suppression by full
route equality, a ``dict`` snapshot of the prefix's table per change,
and ``inspect_change`` on *every* change — no padding precheck, no
memo, no live view.  It states the semantics literally, so it is the
independent statement of what the batch loop must return: the same
alarms in the same order, the same ``first_alarm_at`` and the same
final views (``test_pipeline_table.py``, ``test_pipeline_ingest.py``,
``benchmarks/test_bench_detection_throughput.py``).
"""

from __future__ import annotations

from repro.bgp.collectors import MonitorView
from repro.bgp.route import Route
from repro.bgp.updates import UpdateMessage
from repro.detection.alarms import Alarm
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.streaming import _DEFAULT_PREF
from repro.telemetry.metrics import RunMetrics
from repro.topology.relationships import PrefClass


class OracleStreamingDetector:
    """Same surface as the production detector's ``prime`` /
    ``consume`` / ``consume_all`` / ``current_view`` / ``first_alarm_at``."""

    def __init__(
        self, detector: ASPPInterceptionDetector, *, metrics: RunMetrics | None = None
    ) -> None:
        self._detector = detector
        self.metrics = metrics
        #: prefix -> monitor -> current route
        self._tables: dict[str, dict[int, Route | None]] = {}
        #: prefix -> monitor -> neighbour -> last class observed
        self._classes: dict[str, dict[int, dict[int, PrefClass]]] = {}
        self._updates_seen = 0
        self.first_alarm_at: dict[str, int] = {}

    def prime(self, view: MonitorView) -> None:
        self._tables.setdefault(view.prefix, {}).update(view.routes)
        classes = self._classes.setdefault(view.prefix, {})
        for monitor, route in view.routes.items():
            if route is not None and route.learned_from is not None:
                classes.setdefault(monitor, {})[route.learned_from] = route.pref

    def current_view(self, prefix: str) -> MonitorView:
        return MonitorView(prefix=prefix, routes=dict(self._tables.get(prefix, {})))

    def consume(self, message: UpdateMessage) -> list[Alarm]:
        self._updates_seen += 1
        table = self._tables.setdefault(message.prefix, {})
        previous = table.get(message.monitor)
        classes = self._classes.setdefault(message.prefix, {}).setdefault(
            message.monitor, {}
        )
        if message.withdrawn:
            new_route: Route | None = None
        else:
            learned = message.path[0] if message.path else None
            if learned is not None:
                pref = classes.setdefault(learned, _DEFAULT_PREF)
            else:
                pref = _DEFAULT_PREF
            new_route = Route(message.prefix, message.path, learned, pref)
        if new_route == previous:
            return []
        table[message.monitor] = new_route
        alarms = self._detector.inspect_change(
            message.monitor, previous, new_route, self.current_view(message.prefix)
        )
        if alarms:
            metrics = self.metrics
            if not self.first_alarm_at and metrics is not None:
                metrics.observe("detection.updates_to_first_alarm", self._updates_seen)
            self.first_alarm_at.setdefault(message.prefix, self._updates_seen)
        return alarms

    def consume_all(self, messages: list[UpdateMessage]) -> list[Alarm]:
        alarms: list[Alarm] = []
        for message in messages:
            alarms.extend(self.consume(message))
        return alarms
