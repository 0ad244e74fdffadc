"""Tests for the Figure-4 detection algorithm.

Includes a literal reconstruction of the paper's Figure 3 example and a
no-false-positive property over honest (attack-free) worlds.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.collectors import MonitorView, RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import DEFAULT_PREFIX, Route
from repro.detection.alarms import Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.measurement.padding_model import PaddingBehaviorModel
from repro.topology.relationships import PrefClass


def route(path, learned=None, pref=PrefClass.PROVIDER) -> Route:
    path = tuple(path)
    return Route(DEFAULT_PREFIX, path, learned if learned is not None else path[0], pref)


def view(**routes) -> MonitorView:
    return MonitorView(
        prefix=DEFAULT_PREFIX,
        routes={int(k[2:]): v for k, v in routes.items()},
    )


class TestFigure3Example:
    """The paper's running example: V=100, A=1, C=3, E=5, M=6, B=2, D=4.

    V sends [V V V] to A and [V V] to C.  The attacker M strips two V's
    from the route learned through A and announces [M A V]; the monitor
    observes [E A V V V] from E and [B M A V] from B.
    """

    def test_direct_symptom_detected(self, figure3_graph):
        detector = ASPPInterceptionDetector(figure3_graph)
        previous = route((6, 1, 100, 100, 100), learned=6)
        current = route((6, 1, 100), learned=6)
        current_view = view(
            as2=current,                                # B's (polluted) route
            as5=route((1, 100, 100, 100), learned=1),   # E still sees 3 pads
            as4=route((3, 100, 100), learned=3),        # D sees C's 2 pads
        )
        alarms = detector.inspect_change(2, previous, current, current_view)
        assert alarms, "the padding inconsistency must be detected"
        alarm = alarms[0]
        assert alarm.confidence is Confidence.HIGH
        assert alarm.suspect == 6  # M removed the padding
        assert alarm.removed_pads == 2

    def test_per_neighbor_padding_is_not_inconsistent(self, figure3_graph):
        """V legitimately sends different paddings to A and C: routes
        through different first hops must never raise an alarm."""
        detector = ASPPInterceptionDetector(figure3_graph)
        previous = route((3, 100, 100, 100), learned=3)   # D via C, 3 pads
        current = route((3, 100, 100), learned=3)         # V re-engineered C to 2
        current_view = view(
            as4=current,
            as5=route((1, 100, 100, 100), learned=1),     # E via A still 3 pads
        )
        alarms = detector.inspect_change(4, previous, current, current_view)
        assert alarms == []

    def test_same_neighbor_two_paddings_is_inconsistent(self, figure3_graph):
        """Two routes with the same victim-adjacent AS but different
        padding cannot both be honest (V sends one λ per neighbour)."""
        detector = ASPPInterceptionDetector(figure3_graph)
        previous = route((6, 1, 100, 100, 100), learned=6)
        current = route((6, 1, 100), learned=6)
        current_view = view(
            as2=current,
            as5=route((1, 100, 100, 100), learned=1),
        )
        alarms = detector.inspect_change(2, previous, current, current_view)
        assert any(a.suspect == 6 for a in alarms)


class TestChangeFiltering:
    def test_increase_in_padding_ignored(self, figure3_graph):
        detector = ASPPInterceptionDetector(figure3_graph)
        previous = route((6, 1, 100), learned=6)
        current = route((6, 1, 100, 100, 100), learned=6)
        assert detector.inspect_change(2, previous, current, view(as2=current)) == []

    def test_origin_change_ignored(self, figure3_graph):
        detector = ASPPInterceptionDetector(figure3_graph)
        previous = route((6, 1, 100, 100), learned=6)
        current = route((6, 6), learned=6)
        assert detector.inspect_change(2, previous, current, view(as2=current)) == []

    def test_fresh_announcement_and_withdrawal_ignored(self, figure3_graph):
        detector = ASPPInterceptionDetector(figure3_graph)
        current = route((6, 1, 100), learned=6)
        assert detector.inspect_change(2, None, current, view(as2=current)) == []
        assert detector.inspect_change(2, current, None, view(as2=None)) == []

    def test_victim_neighbor_monitor_cannot_localise(self, figure3_graph):
        """A monitor adjacent to the victim sees only [V^λ]; there is no
        intermediate AS to blame (the paper's corner case)."""
        detector = ASPPInterceptionDetector(figure3_graph)
        previous = route((100, 100, 100), learned=100)
        current = route((100,), learned=100)
        assert detector.inspect_change(1, previous, current, view(as1=current)) == []


class TestNoFalsePositives:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_honest_worlds_raise_no_high_alarms(self, seed):
        """Arbitrary legitimate prepending (source and intermediary,
        per-neighbour) plus a legitimate policy change never triggers a
        high-confidence alarm."""
        from tests.conftest import SMALL_CONFIG
        from repro.topology.generators import generate_internet_topology

        rng = random.Random(seed)
        world = generate_internet_topology(SMALL_CONFIG, rng)
        graph = world.graph
        engine = PropagationEngine(graph)
        origin = rng.choice(graph.ases)
        model = PaddingBehaviorModel(prepend_prob=1.0, intermediary_prob=0.2)
        policy = PrependingPolicy()
        model.configure_origin(graph, origin, policy, rng)
        model.configure_intermediaries(graph, policy, rng)
        before_outcome = engine.propagate(origin, prepending=policy)

        # A legitimate traffic-engineering change: the origin re-pads
        # one neighbour (less padding => routes legitimately shorten).
        neighbors = sorted(graph.neighbors_of(origin))
        policy.set_padding(origin, rng.choice(neighbors), 1)
        after_outcome = engine.propagate(origin, prepending=policy)

        monitors = rng.sample(graph.ases, min(40, len(graph)))
        collector = RouteCollector(graph, monitors)
        before_view = collector.snapshot(before_outcome)
        after_view = collector.snapshot(after_outcome)
        detector = ASPPInterceptionDetector(graph)
        for monitor in collector.monitors:
            previous, current = before_view.routes[monitor], after_view.routes[monitor]
            if previous == current:
                continue
            alarms = detector.inspect_change(monitor, previous, current, after_view)
            high = [a for a in alarms if a.confidence is Confidence.HIGH]
            assert not high, f"false positive at monitor {monitor}: {high[0]}"
