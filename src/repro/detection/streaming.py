"""Online detection over a BGP update stream.

The paper frames deployment as continuous monitoring: "provide real
time notifications of any potential ASPP based prefix interception
hijacking to the prefix owner ... an prefix owner can monitor the data
from public monitors continuously using tools like PHAS".  The batch
detector (:class:`~repro.detection.detector.ASPPInterceptionDetector`)
compares two snapshots; this module wraps it into a stateful consumer
of individual update messages:

* :class:`StreamingDetector` keeps the latest route per (monitor,
  prefix), applies each incoming update, and runs the Figure-4 check on
  the change against the current global view — emitting alarms as the
  stream plays;
* :func:`attack_update_stream` converts a simulated attack into the
  update sequence the monitors would have emitted, ordered by the
  engine's logical propagation clock, so the streaming path can be
  exercised (and timed) end to end.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.attack.interception import InterceptionResult
from repro.bgp.collectors import MonitorView, RouteCollector
from repro.bgp.route import Route
from repro.bgp.updates import UpdateMessage
from repro.detection.alarms import Alarm
from repro.detection.detector import ASPPInterceptionDetector
from repro.telemetry.metrics import RunMetrics, timed
from repro.topology.relationships import PrefClass

__all__ = ["StreamingDetector", "attack_update_stream"]

#: Collector feeds carry no local-preference attribute, so the class of
#: a reconstructed route must be inferred.  The class is irrelevant to
#: the padding-inconsistency check itself (the Figure-4 algorithm reads
#: only AS-PATHs), but it *is* part of route identity: duplicate
#: suppression compares full routes, so a wrongly defaulted class makes
#: a re-announced route look like a change.  The detector therefore
#: remembers the last class observed per (prefix, monitor, neighbour) —
#: a neighbour's class is fixed by the business relationship, so it
#: survives withdraw/re-announce flaps — and only falls back to the
#: most conservative tier for neighbours it has never seen.
_DEFAULT_PREF = PrefClass.PROVIDER


class StreamingDetector:
    """Stateful wrapper running the Figure-4 algorithm per update.

    ``prime`` the detector with a baseline view first (real deployments
    bootstrap from a table dump), then feed updates; each call returns
    the alarms that update triggered.

    ``metrics`` optionally attaches a telemetry registry recording
    updates consumed, alarms raised and the number of updates until the
    first alarm (``detection.*`` namespace).

    ``copy_views`` controls what :meth:`consume` hands to
    ``inspect_change``: the default (``False``) passes a read-only
    *live* view over the internal table — the inspection protocol is
    read-only, so no copy is needed — while ``True`` restores the
    historical per-update ``dict(...)`` snapshot (kept only so the
    equivalence suite can prove both paths raise identical alarms).
    """

    def __init__(
        self,
        detector: ASPPInterceptionDetector,
        *,
        metrics: RunMetrics | None = None,
        copy_views: bool = False,
    ) -> None:
        self._detector = detector
        self._copy_views = copy_views
        #: prefix -> monitor -> current route
        self._tables: dict[str, dict[int, Route | None]] = {}
        #: prefix -> the one live view over its table (the view carries
        #: the Figure-4 scan's memo, so it must outlive a single update)
        self._live: dict[str, MonitorView] = {}
        #: prefix -> monitor -> neighbour -> last class observed for
        #: routes learned from that neighbour (survives withdrawals).
        self._classes: dict[str, dict[int, dict[int, PrefClass]]] = {}
        self.metrics = metrics
        self._updates_seen = 0
        self._first_alarm_recorded = False

    def prime(self, view: MonitorView) -> None:
        """Install a baseline snapshot (no alarms are raised)."""
        table = self._tables.setdefault(view.prefix, {})
        table.update(view.routes)
        classes = self._classes.setdefault(view.prefix, {})
        for monitor, route in view.routes.items():
            if route is not None and route.learned_from is not None:
                classes.setdefault(monitor, {})[route.learned_from] = route.pref

    def current_view(self, prefix: str) -> MonitorView:
        """The detector's present belief about ``prefix``."""
        return MonitorView(prefix=prefix, routes=dict(self._tables.get(prefix, {})))

    def live_view(self, prefix: str) -> MonitorView:
        """Like :meth:`current_view` but zero-copy: the routes mapping
        is a read-only proxy over the internal table, so it tracks
        subsequent updates instead of freezing this instant."""
        view = self._live.get(prefix)
        if view is None:
            view = self._live[prefix] = MonitorView(
                prefix=prefix,
                routes=MappingProxyType(self._tables.setdefault(prefix, {})),
            )
        return view

    def consume(self, message: UpdateMessage) -> list[Alarm]:
        """Apply one update and return any alarms it triggers."""
        self._updates_seen += 1
        metrics = self.metrics
        track = metrics is not None and metrics.enabled
        if track:
            metrics.count("detection.updates_consumed")
        table = self._tables.setdefault(message.prefix, {})
        previous = table.get(message.monitor)
        classes = self._classes.setdefault(message.prefix, {}).setdefault(
            message.monitor, {}
        )
        if message.withdrawn:
            new_route: Route | None = None
        else:
            learned = message.path[0] if message.path else None
            # The class a neighbour's routes carry is pinned by the
            # monitor-neighbour relationship: reuse the remembered one
            # (even across a withdraw/re-announce flap) and only default
            # for never-seen neighbours.
            if learned is not None:
                pref = classes.get(learned, _DEFAULT_PREF)
                classes[learned] = pref
            else:
                pref = _DEFAULT_PREF
            new_route = Route(message.prefix, message.path, learned, pref)
        if new_route == previous:
            return []
        table[message.monitor] = new_route
        view = (
            self.current_view(message.prefix)
            if self._copy_views
            else self.live_view(message.prefix)
        )
        alarms = self._detector.inspect_change(
            message.monitor, previous, new_route, view
        )
        if track and alarms:
            metrics.count("detection.alarms", len(alarms))
            if not self._first_alarm_recorded:
                self._first_alarm_recorded = True
                metrics.observe(
                    "detection.updates_to_first_alarm", self._updates_seen
                )
        return alarms

    @timed("detection.consume_seconds")
    def consume_all(self, messages: list[UpdateMessage]) -> list[Alarm]:
        """Feed a whole stream; returns the concatenated alarms."""
        alarms: list[Alarm] = []
        for message in messages:
            alarms.extend(self.consume(message))
        return alarms


def attack_update_stream(
    result: InterceptionResult,
    collector: RouteCollector,
    *,
    attacker_feeds_collector: bool = True,
) -> list[UpdateMessage]:
    """The update sequence monitors emit as the attack propagates.

    Monitors are ordered by the engine's adoption round (the logical
    hop count the malicious news travelled); an attacker that peers
    with the collector announces its modified route at round 0.
    Monitors whose route did not change emit nothing.
    """
    before, after, touched = result.monitor_views(
        collector, attacker_feeds_collector=attacker_feeds_collector
    )
    return after.updates_since(
        before, clock=result.attacked.adoption_round, among=touched
    )
