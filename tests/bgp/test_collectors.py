"""Tests for route collectors and their view pairs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.interception import simulate_interception
from repro.bgp.collectors import MonitorView, RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.bgp.route import DEFAULT_PREFIX, Route
from repro.bgp.updates import UpdateMessage
from repro.exceptions import DetectionError, UnknownASError
from repro.topology.relationships import PrefClass

from tests.strategies import TINY_DETECTION, draw_attacker_then_victim, seeds, tiny_world


class TestRouteCollector:
    def test_snapshot_captures_best_routes(self, chain_graph):
        engine = PropagationEngine(chain_graph)
        outcome = engine.propagate(4)
        collector = RouteCollector(chain_graph, [1, 3])
        view = collector.snapshot(outcome)
        assert view.routes[1].path == (2, 3, 4)
        assert view.routes[3].path == (4,)
        assert view.monitors == [1, 3]

    def test_snapshot_applies_monitor_modifiers(self, chain_graph):
        engine = PropagationEngine(chain_graph)
        outcome = engine.propagate(4)
        collector = RouteCollector(chain_graph, [2])
        view = collector.snapshot(outcome, modifiers={2: lambda path: path[-1:]})
        assert view.routes[2].path == (4,)

    def test_unknown_monitor_rejected(self, chain_graph):
        with pytest.raises(UnknownASError):
            RouteCollector(chain_graph, [99])

    def test_empty_monitor_set_rejected(self, chain_graph):
        with pytest.raises(DetectionError):
            RouteCollector(chain_graph, [])

    def test_paths_skip_unreachable_monitors(self, chain_graph):
        chain_graph.add_as(50)
        engine = PropagationEngine(chain_graph)
        outcome = engine.propagate(4)
        collector = RouteCollector(chain_graph, [1, 50])
        view = collector.snapshot(outcome)
        assert 50 not in view.paths()
        assert view.routes[50] is None


def make_view(**routes) -> MonitorView:
    return MonitorView(
        prefix=DEFAULT_PREFIX,
        routes={
            int(k[2:]): (
                Route(DEFAULT_PREFIX, tuple(v), tuple(v)[0], PrefClass.PEER)
                if v is not None
                else None
            )
            for k, v in routes.items()
        },
    )


class TestViewDiff:
    def test_changed_monitors_ascending(self):
        before = make_view(as9=(2, 3), as4=(3,), as1=(5, 3), as7=None)
        after = make_view(as9=(4, 3), as4=(3,), as1=None, as7=None)
        assert after.changed_since(before) == [1, 9]
        assert after.changed_since(before, among=(9, 4)) == [9]
        assert before.changed_since(before) == []

    def test_updates_ordered_by_clock_then_monitor(self):
        before = make_view(as1=(5, 3), as4=(3,), as9=(2, 3))
        after = make_view(as1=None, as4=(6, 3), as9=(4, 3))
        withdraw = UpdateMessage(1, DEFAULT_PREFIX, (), withdrawn=True)
        assert after.updates_since(before) == [
            withdraw,
            UpdateMessage(4, DEFAULT_PREFIX, (6, 3)),
            UpdateMessage(9, DEFAULT_PREFIX, (4, 3)),
        ]
        # AS4 is absent from the clock: round 0, ahead of the others.
        assert after.updates_since(before, clock={1: 2, 9: 1}) == [
            UpdateMessage(4, DEFAULT_PREFIX, (6, 3)),
            UpdateMessage(9, DEFAULT_PREFIX, (4, 3)),
            withdraw,
        ]

    def test_a_monitor_new_to_the_view_announces(self):
        after = make_view(as1=(5, 3), as2=None)
        assert after.updates_since(make_view()) == [
            UpdateMessage(1, DEFAULT_PREFIX, (5, 3))
        ]


class TestViewPair:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, feeds=st.booleans(), every=st.integers(1, 4))
    def test_patched_after_view_equals_a_full_snapshot(self, seed, feeds, every):
        """The after view re-reads only the monitors the attack stamped
        (and a feeding attacker); it must equal the snapshot that reads
        every monitor, and ``touched`` must cover every change."""
        world, rng = tiny_world(seed, TINY_DETECTION)
        victim, attacker = draw_attacker_then_victim(world, rng)
        engine = PropagationEngine(world.graph)
        result = simulate_interception(
            engine, victim=victim, attacker=attacker, origin_padding=3
        )
        monitors = world.graph.ases[::every] + [attacker]
        modifiers = {attacker: result.attack.modifier()} if feeds else None

        full = RouteCollector(world.graph, monitors)
        before = full.snapshot(result.baseline)
        after = full.snapshot(result.attacked, modifiers=modifiers)

        collector = RouteCollector(world.graph, monitors)
        pair = result.monitor_views(collector, attacker_feeds_collector=feeds)
        assert pair[0] == before and list(pair[0].routes) == list(before.routes)
        assert pair[1] == after and list(pair[1].routes) == list(after.routes)
        assert set(after.changed_since(before)) <= set(pair[2])
        assert pair[2] == tuple(sorted(pair[2]))
        # Unread rows: the patch is what keeps a cell O(changed monitors).
        assert collector.rows == len(collector.monitors) + len(pair[2])

    def test_pair_is_shared_per_attack_and_feed_mode(self, small_world):
        graph = small_world.graph
        engine = PropagationEngine(graph)
        tier1 = small_world.tier1
        first = simulate_interception(
            engine, victim=tier1[1], attacker=tier1[0], origin_padding=3
        )
        second = simulate_interception(
            engine, victim=tier1[2], attacker=tier1[0], origin_padding=3
        )
        collector = RouteCollector(graph, graph.ases[::5] + [tier1[0]])
        feeding = first.monitor_views(collector)
        assert first.monitor_views(collector) is feeding
        rows = collector.rows
        stealthy = first.monitor_views(collector, attacker_feeds_collector=False)
        assert stealthy is not feeding
        assert stealthy[0] is feeding[0]  # one baseline snapshot per attack
        assert collector.rows == rows + len(stealthy[2])
        # The memo holds the latest attack only.
        assert second.monitor_views(collector)[0] is not feeding[0]
        assert first.monitor_views(collector) is not feeding
        assert first.monitor_views(collector) == feeding

    def test_a_modifier_outside_the_fleet_shares_the_pair(self, small_world):
        """An attacker that is not a monitor changes no row by feeding:
        the stealthy timing gets the feeding call's pair — and its
        decomposition memo — without reading a row."""
        graph = small_world.graph
        engine = PropagationEngine(graph)
        attacker, victim = small_world.tier1[0], small_world.tier1[1]
        result = simulate_interception(
            engine, victim=victim, attacker=attacker, origin_padding=3
        )
        fleet = [asn for asn in graph.ases[::3] if asn != attacker]
        collector = RouteCollector(graph, fleet)
        feeding = result.monitor_views(collector)
        assert feeding[2]
        # the first (metered) call reads every monitor, then the touched
        rows = len(fleet) + len(feeding[2])
        assert collector.rows == rows
        assert result.monitor_views(collector, attacker_feeds_collector=False) is feeding
        assert collector.rows == rows
        # A monitoring attacker shows its modified route only when it feeds.
        inside = RouteCollector(graph, fleet + [attacker])
        stealthy = result.monitor_views(inside, attacker_feeds_collector=False)
        feeding = result.monitor_views(inside)
        assert stealthy is not feeding
        assert stealthy[1].routes[attacker] != feeding[1].routes[attacker]

