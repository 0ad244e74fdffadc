"""Online detection over a BGP update stream.

The paper frames deployment as continuous monitoring: "provide real
time notifications of any potential ASPP based prefix interception
hijacking to the prefix owner ... an prefix owner can monitor the data
from public monitors continuously using tools like PHAS".  The batch
detector (:class:`~repro.detection.detector.ASPPInterceptionDetector`)
compares two snapshots; this module wraps it into the one stateful
consumer of update messages every streaming path runs (fig13,
``detect-stream``, ``mitigate-stream``, and the ingestion pipeline of
:mod:`repro.detection.pipeline`):

* :class:`StreamingDetector` keeps the latest route per (prefix,
  monitor), applies updates in batches, and runs the Figure-4 check on
  every change that can be an ASPP symptom against the live global
  view — emitting alarms as the stream plays;
* :func:`attack_update_stream` converts a simulated attack into the
  update sequence the monitors would have emitted, ordered by the
  engine's logical propagation clock, so the streaming path can be
  exercised (and timed) end to end.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import pairwise
from time import perf_counter
from types import MappingProxyType
from typing import NamedTuple

from repro.attack.interception import InterceptionResult
from repro.bgp.aspath import padding_of_origin
from repro.bgp.collectors import MonitorView, RouteCollector
from repro.bgp.route import Route
from repro.bgp.updates import UpdateMessage
from repro.detection.alarms import Alarm
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.pipeline.radix import parse_prefix
from repro.telemetry.metrics import RunMetrics
from repro.topology.relationships import PrefClass

__all__ = ["StreamingDetector", "attack_update_stream"]

#: Collector feeds carry no local-preference attribute, so the class of
#: a reconstructed route must be inferred.  The class is irrelevant to
#: the padding-inconsistency check itself (the Figure-4 algorithm reads
#: only AS-PATHs), but it *is* part of route identity: duplicate
#: suppression compares path and class, so a wrongly defaulted class
#: makes a re-announced route look like a change.  The detector therefore
#: remembers the last class observed per (prefix, monitor, neighbour) —
#: a neighbour's class is fixed by the business relationship, so it
#: survives withdraw/re-announce flaps — and only falls back to the
#: most conservative tier for neighbours it has never seen.
_DEFAULT_PREF = PrefClass.PROVIDER


class _Prefix(NamedTuple):
    """Everything the detector holds for one prefix."""

    #: monitor -> current route (absent: never reported; None: withdrawn)
    routes: dict[int, Route | None]
    #: monitor -> neighbour -> last class observed for routes learned
    #: from that neighbour (survives withdrawals)
    classes: dict[int, dict[int, PrefClass]]
    #: AS-path -> (a route carrying it, origin, λ): the padding precheck
    #: and the route a flap returns to, in one probe
    paths: dict[tuple[int, ...], tuple[Route, int | None, int]]
    #: (AS-path, class) -> its route, for a path shown under a class
    #: other than its ``paths`` route's: built once, never per update
    reclassed: dict[tuple[tuple[int, ...], PrefClass], Route]
    #: the one live view over ``routes``; it carries the Figure-4 scan's
    #: memo, so it lives as long as the prefix
    view: MonitorView


def _facts(route: Route) -> tuple[Route, int | None, int]:
    path = route.path
    return (route, path[-1], padding_of_origin(path)) if path else (route, None, 0)


class StreamingDetector:
    """Stateful wrapper running the Figure-4 algorithm on an update stream.

    ``prime`` the detector with a baseline view first (real deployments
    bootstrap from a table dump), then feed updates; each call returns
    the alarms its updates triggered, in order.

    A change reaches ``inspect_change`` only when the previous and the
    new route share an origin and λ strictly decreased — exactly that
    method's own early exits, decided here on memoised per-path facts
    — and the scan reads the live view, never a copy.

    ``metrics`` records ``detection.pipeline.*`` counters and the
    per-update latency histogram, folded into the registry once per
    batch (an update's latency runs from its clock read to the next
    update's; whether a registry is attached is read once per batch).
    Updates towards ``detection.updates_to_first_alarm`` are counted
    unconditionally (the registry may be attached between batches);
    only the ``observe()`` is gated on a registry.
    """

    def __init__(
        self,
        detector: ASPPInterceptionDetector,
        *,
        metrics: RunMetrics | None = None,
    ) -> None:
        self._detector = detector
        self._prefixes: dict[str, _Prefix] = {}
        self.metrics = metrics
        self._updates_seen = 0
        self._first_alarm_recorded = False
        #: prefix -> updates seen when its first alarm fired.  Measured
        #: at the detector (post-merge), so for lossless ingestion the
        #: value is identical across feed counts, batch sizes and
        #: backpressure policies — the deterministic time-to-detect
        #: signal the mitigation controller consumes.
        self.first_alarm_at: dict[str, int] = {}

    def _state(self, prefix: str) -> _Prefix:
        state = self._prefixes.get(prefix)
        if state is None:
            parse_prefix(prefix)  # refuse a malformed prefix on first sight
            routes: dict[int, Route | None] = {}
            view = MonitorView(prefix=prefix, routes=MappingProxyType(routes))
            state = self._prefixes[prefix] = _Prefix(routes, {}, {}, {}, view)
        return state

    def prime(self, view: MonitorView) -> None:
        """Install a baseline snapshot (no alarms are raised)."""
        state = self._state(view.prefix)
        state.routes.update(view.routes)
        classes = state.classes
        for monitor, route in view.routes.items():
            if route is not None and route.learned_from is not None:
                classes.setdefault(monitor, {})[route.learned_from] = route.pref

    def current_view(self, prefix: str) -> MonitorView:
        """The detector's present belief about ``prefix`` (a copy)."""
        state = self._prefixes.get(prefix)
        routes = {} if state is None else dict(state.routes)
        return MonitorView(prefix=prefix, routes=routes)

    def live_view(self, prefix: str) -> MonitorView:
        """Like :meth:`current_view` but zero-copy: the routes mapping
        is a read-only proxy over the internal table, so it tracks
        subsequent updates instead of freezing this instant."""
        return self._state(prefix).view

    def consume(self, message: UpdateMessage) -> list[Alarm]:
        """Apply one update and return any alarms it triggers."""
        return self.consume_all((message,))

    def consume_all(self, messages: Sequence[UpdateMessage]) -> list[Alarm]:
        """Apply updates in order; returns their alarms, concatenated.

        Consecutive messages for one prefix share its state lookup, the
        loop's attributes are hoisted out of it, and an unchanged route
        (same path, same remembered class) is a duplicate: no state
        change, no inspection.  A route is built once per (path, class)
        a prefix shows, however many monitors carry it.
        """
        metrics = self.metrics
        track = metrics is not None
        inspect_change = self._detector.inspect_change
        prefixes = self._prefixes
        alarms: list[Alarm] = []
        current: str | None = None
        routes: dict[int, Route | None] = {}
        classes_of: dict[int, dict[int, PrefClass]] = {}
        paths: dict[tuple[int, ...], tuple[Route, int | None, int]] = {}
        reclassed: dict[tuple[tuple[int, ...], PrefClass], Route] = {}
        view: MonitorView | None = None
        start = updates_seen = self._updates_seen
        changes = 0
        # clock reads: one per update plus the batch's end — an update's
        # latency runs from its own read to the next one
        stamps: list[float] = []
        for message in messages:
            updates_seen += 1
            if track:
                stamps.append(perf_counter())
            prefix = message.prefix
            if prefix != current:
                state = prefixes.get(prefix)
                if state is None:
                    state = self._state(prefix)
                routes, classes_of, paths, reclassed, view = state
                current = prefix
            monitor = message.monitor
            previous = routes.get(monitor)
            if message.withdrawn:
                # Withdrawing nothing is a duplicate (the monitor is not
                # installed either); a withdrawal is never an ASPP
                # symptom, so it changes state without an inspection.
                if previous is not None:
                    routes[monitor] = None
                    changes += 1
                continue
            path = message.path
            if path:
                classes = classes_of.get(monitor)
                if classes is None:
                    classes = classes_of[monitor] = {}
                pref = classes.get(path[0])
                if pref is None:
                    pref = classes[path[0]] = _DEFAULT_PREF
            else:
                pref = _DEFAULT_PREF
            if previous is not None and previous.pref is pref and previous.path == path:
                continue
            changes += 1
            known = paths.get(path)
            if known is None:
                known = paths[path] = _facts(
                    Route(prefix, path, path[0] if path else None, pref)
                )
            route, origin, padding = known
            if route.pref is not pref:
                key = (path, pref)
                route = reclassed.get(key)
                if route is None:
                    route = reclassed[key] = Route(prefix, path, path[0], pref)
            routes[monitor] = route
            # Past here only a change that can be an ASPP symptom is
            # inspected: both routes non-empty, same origin, λ lower.
            if previous is None or not path:
                continue
            before = previous.path
            if not before or before[-1] != origin:
                continue
            was = paths.get(before)
            if was is None:
                was = paths[before] = _facts(previous)
            if padding >= was[2]:
                continue
            raised = inspect_change(monitor, previous, route, view)
            if raised:
                alarms.extend(raised)
                if prefix not in self.first_alarm_at:
                    self.first_alarm_at[prefix] = updates_seen
                if not self._first_alarm_recorded:
                    self._first_alarm_recorded = True
                    if track:
                        metrics.observe("detection.updates_to_first_alarm", updates_seen)
        self._updates_seen = updates_seen
        if track:
            consumed = updates_seen - start
            stamps.append(perf_counter())
            # One fold per batch; a counter appears only once it is
            # non-zero, as when each update counted itself.
            if consumed:
                metrics.count("detection.pipeline.updates", consumed)
            if changes:
                metrics.count("detection.pipeline.changes", changes)
            if alarms:
                metrics.count("detection.pipeline.alarms", len(alarms))
            metrics.observe_many(
                "detection.pipeline.update_latency_us",
                [(end - begin) * 1e6 for begin, end in pairwise(stamps)],
            )
            metrics.count("detection.pipeline.batches")
            metrics.observe("detection.pipeline.batch_size", consumed)
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
