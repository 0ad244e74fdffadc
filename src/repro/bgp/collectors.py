"""RouteViews / RIPE-style route collectors.

The paper's measurement and detection pipelines consume the best routes
of *monitor* ASes — networks that run an eBGP session to a public
collector and export their table ("The logs contain the best route from
all the peering routers").  :class:`RouteCollector` models exactly
that: given a propagation outcome and a set of monitor ASes, it yields
a :class:`MonitorView`, and for an attack the ``(before, after)`` pair
of views, so the detector can compare a route *change* against all
other monitors' current routes.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace

from repro.bgp.engine import PathModifier, PropagationOutcome
from repro.bgp.route import Route
from repro.bgp.updates import UpdateMessage
from repro.exceptions import DetectionError, UnknownASError
from repro.topology.asgraph import ASGraph

__all__ = ["MonitorView", "RouteCollector"]


@dataclass(frozen=True)
class MonitorView:
    """One snapshot of the routes all monitors export for one prefix.

    ``routes`` maps monitor ASN to the best route it holds (``None``
    when the monitor has no route to the prefix).
    """

    prefix: str
    routes: dict[int, Route | None]
    #: monitor -> ``(path, collapsed core, padding, last hop, cap)`` of
    #: the route it last showed a detector: the Figure-4 scan's
    #: decomposition memo.  Living on the view bounds it by the view's
    #: monitors and lifetime.
    decomposed: dict[
        int, tuple[tuple[int, ...], tuple[int, ...], int, int, int]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def monitors(self) -> list[int]:
        return sorted(self.routes)

    def paths(self) -> dict[int, tuple[int, ...]]:
        """Monitor -> AS-PATH, skipping monitors without a route."""
        return {
            monitor: route.path
            for monitor, route in self.routes.items()
            if route is not None
        }

    def changed_since(
        self, before: "MonitorView", *, among: Iterable[int] | None = None
    ) -> list[int]:
        """Monitors whose route here differs from ``before``, ascending.

        ``among`` narrows the comparison to the monitors that can have
        changed (see :meth:`RouteCollector.view_pair`).
        """
        routes = self.routes
        old = before.routes
        return sorted(
            monitor
            for monitor in (routes if among is None else among)
            if old.get(monitor) != routes[monitor]
        )

    def updates_since(
        self,
        before: "MonitorView",
        *,
        clock: Mapping[int, int] | None = None,
        among: Iterable[int] | None = None,
    ) -> list[UpdateMessage]:
        """The updates monitors emit moving from ``before`` to this view.

        One message per changed monitor — a withdrawal when it lost its
        route — ordered by ``(clock round, monitor)``: ``clock`` is the
        re-convergence's adoption rounds (the logical hop count the news
        travelled; absent monitors count as round 0), and without one
        the order is ascending monitor.
        """
        changed = self.changed_since(before, among=among)
        if clock:
            changed.sort(key=lambda monitor: clock.get(monitor, 0))
        messages = []
        for monitor in changed:
            route = self.routes[monitor]
            messages.append(
                UpdateMessage(monitor, self.prefix, (), withdrawn=True)
                if route is None
                else UpdateMessage(monitor, self.prefix, route.path)
            )
        return messages


class RouteCollector:
    """Collects the best routes of a fixed set of monitor ASes."""

    def __init__(self, graph: ASGraph, monitors: Iterable[int]) -> None:
        self._monitors = tuple(sorted(set(monitors)))
        if not self._monitors:
            raise DetectionError("a collector needs at least one monitor AS")
        for monitor in self._monitors:
            if monitor not in graph:
                raise UnknownASError(monitor)
        self._fleet = frozenset(self._monitors)
        self._graph = graph
        #: monitor rows read off outcomes so far (``collector.rows``)
        self.rows = 0
        #: :meth:`view_pair`'s memo: the latest ``(baseline, attacked)``
        #: served, its before view, and its pairs per modifier ASes in the fleet
        self._pairs: tuple[PropagationOutcome, PropagationOutcome, MonitorView, dict] | None = None

    @property
    def monitors(self) -> tuple[int, ...]:
        return self._monitors

    def snapshot(
        self,
        outcome: PropagationOutcome,
        *,
        modifiers: Mapping[int, PathModifier] | None = None,
    ) -> MonitorView:
        """Capture the monitors' best routes from a converged outcome.

        Routes are read one row per monitor
        (:meth:`PropagationOutcome.route_of`); the outcome's world is
        never built for a snapshot.

        ``modifiers`` mirrors the engine's attacker hook: the collector
        session is just another eBGP neighbour, so an attacker that
        happens to peer with the collector announces its *modified*
        route there too (announcing the unmodified one would expose the
        inconsistency directly on its own feed).
        """
        route_of = outcome.route_of
        routes = {monitor: route_of(monitor) for monitor in self._monitors}
        self.rows += len(routes)
        if modifiers:
            _export(routes, modifiers)
        return MonitorView(prefix=outcome.prefix, routes=routes)

    def view_pair(
        self,
        baseline: PropagationOutcome,
        attacked: PropagationOutcome,
        *,
        modifiers: Mapping[int, PathModifier] | None = None,
    ) -> tuple[MonitorView, MonitorView, tuple[int, ...]]:
        """``(before, after, touched)`` for a warm-started re-convergence.

        ``before`` is ``snapshot(baseline)`` and ``after`` equals
        ``snapshot(attacked, modifiers=modifiers)``, built as ``before``
        patched on the ``touched`` monitors (ascending) — the only ones
        whose route can differ.  ``attacked`` must have been
        warm-started from ``baseline``: then an AS changed its best
        route only if the re-convergence stamped an adoption round on
        it, and only a modifier AS shows a route other than its best,
        so every other monitor keeps its ``before`` row unread.

        The pair is memoised for the latest ``(baseline, attacked)``
        per set of modifier ASes in the fleet (an attacked outcome is the
        product of one attack, so the ASN fixes the transformation, and
        a modifier outside the fleet changes no row): timing, priming and
        stream synthesis of one attack share one pair, and so do a
        feeding and a stealthy attacker that is not a monitor.
        """
        memo = self._pairs
        if memo is None or memo[0] is not baseline or memo[1] is not attacked:
            memo = self._pairs = (baseline, attacked, self.snapshot(baseline), {})
        _, _, before, pairs = memo
        fleet = self._fleet
        key = tuple(sorted(m for m in modifiers or () if m in fleet))
        pair = pairs.get(key)
        if pair is None:
            rounds = attacked.adoption_round
            touched = tuple(m for m in self._monitors if m in rounds or m in key)
            route_of = attacked.route_of
            routes = dict(before.routes)
            for monitor in touched:
                routes[monitor] = route_of(monitor)
            self.rows += len(touched)
            if key:
                _export(routes, modifiers)
            after = MonitorView(prefix=attacked.prefix, routes=routes)
            pair = pairs[key] = (before, after, touched)
        return pair


def _export(
    routes: dict[int, Route | None], modifiers: Mapping[int, PathModifier]
) -> None:
    """Replace each routed modifier monitor's route by the one it
    exports to the collector."""
    for monitor, modify in modifiers.items():
        route = routes.get(monitor)
        if route is not None:
            routes[monitor] = replace(route, path=modify(route.path))
