"""Tests for the prefix-owner self-check and the placement optimiser."""

from __future__ import annotations

import random

import pytest

from repro.attack.interception import simulate_interception
from repro.bgp.collectors import RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.detection.alarms import Confidence
from repro.detection.placement import attacker_coverage, greedy_cover_monitors
from repro.detection.selfcheck import PrefixOwnerSelfCheck
from repro.exceptions import DetectionError


class TestPrefixOwnerSelfCheck:
    def test_detects_attack_by_direct_neighbor(self, figure3_graph):
        """The corner case the public detector cannot resolve: V's own
        policy knowledge exposes the stripped padding."""
        engine = PropagationEngine(figure3_graph)
        prepending = PrependingPolicy.uniform_origin(100, 3)
        result = simulate_interception(
            engine,
            victim=100,
            attacker=1,  # A: the victim's direct neighbour
            origin_padding=3,
            prepending=prepending,
        )
        collector = RouteCollector(figure3_graph, [2, 5])
        self_check = PrefixOwnerSelfCheck(100, prepending)
        alarms = self_check.check_view(collector.snapshot(result.attacked))
        assert alarms
        assert all(a.confidence is Confidence.HIGH for a in alarms)
        assert all(a.removed_pads == 2 for a in alarms)

    def test_quiet_on_honest_world(self, figure3_graph):
        engine = PropagationEngine(figure3_graph)
        prepending = PrependingPolicy()
        prepending.set_padding(100, 1, 3)
        prepending.set_padding(100, 3, 2)
        outcome = engine.propagate(100, prepending=prepending)
        collector = RouteCollector(figure3_graph, [2, 4, 5])
        self_check = PrefixOwnerSelfCheck(100, prepending)
        assert self_check.check_view(collector.snapshot(outcome)) == []

    def test_quiet_on_honest_per_neighbor_te(self, small_world, small_engine):
        """Per-neighbour padding differences never alarm the owner who
        configured them."""
        rng = random.Random(9)
        origin = small_world.tier3[0]
        prepending = PrependingPolicy()
        for index, neighbor in enumerate(sorted(small_world.graph.neighbors_of(origin))):
            prepending.set_padding(origin, neighbor, 1 + index % 4)
        outcome = small_engine.propagate(origin, prepending=prepending)
        monitors = rng.sample(small_world.graph.ases, 30)
        collector = RouteCollector(small_world.graph, monitors)
        self_check = PrefixOwnerSelfCheck(origin, prepending)
        assert self_check.check_view(collector.snapshot(outcome)) == []

    def test_spoofed_prepending_flagged(self, figure3_graph):
        """Extra copies of the owner's ASN (which only the owner may
        add) raise the spoofed-prepend alarm."""
        engine = PropagationEngine(figure3_graph)
        prepending = PrependingPolicy.uniform_origin(100, 2)
        # C (AS3) spoofs two extra copies of the owner's ASN; D (AS4)
        # routes exclusively through C and observes padding 4.
        outcome = engine.propagate(
            100,
            prepending=prepending,
            modifiers={3: lambda path: path + (100,) * 2},
            warm_start=engine.propagate(100, prepending=prepending),
        )
        collector = RouteCollector(figure3_graph, [4])
        self_check = PrefixOwnerSelfCheck(100, prepending)
        alarms = self_check.check_view(collector.snapshot(outcome))
        assert any("spoofed" in a.evidence for a in alarms)

    def test_other_prefixes_ignored(self, figure3_graph):
        engine = PropagationEngine(figure3_graph)
        outcome = engine.propagate(4)  # someone else's prefix
        collector = RouteCollector(figure3_graph, [5])
        self_check = PrefixOwnerSelfCheck(100, PrependingPolicy.uniform_origin(100, 3))
        assert self_check.check_view(collector.snapshot(outcome)) == []


class TestGreedyCoverPlacement:
    def test_coverage_dominates_top_degree(self, small_world):
        from repro.detection.monitors import top_degree_monitors

        graph = small_world.graph
        budget = 25
        greedy = greedy_cover_monitors(graph, budget)
        top = top_degree_monitors(graph, budget)
        assert attacker_coverage(graph, greedy) >= attacker_coverage(graph, top)

    def test_full_coverage_achievable(self, small_world):
        graph = small_world.graph
        monitors = greedy_cover_monitors(graph, len(graph) // 2)
        assert attacker_coverage(graph, monitors) == pytest.approx(1.0)

    def test_deterministic(self, small_world):
        graph = small_world.graph
        assert greedy_cover_monitors(graph, 10) == greedy_cover_monitors(graph, 10)

    def test_count_respected_and_bounds(self, small_world):
        graph = small_world.graph
        assert len(greedy_cover_monitors(graph, 7)) == 7
        with pytest.raises(DetectionError):
            greedy_cover_monitors(graph, 0)
        with pytest.raises(DetectionError):
            greedy_cover_monitors(graph, len(graph) + 1)

    def test_detection_accuracy_improves(self, small_world, small_engine):
        """End-to-end: greedy-cover monitors detect more attacks than
        degree-ranked monitors at the same budget."""
        from repro.detection.detector import ASPPInterceptionDetector
        from repro.detection.monitors import top_degree_monitors
        from repro.detection.timing import detection_timing

        graph = small_world.graph
        detector = ASPPInterceptionDetector(graph)
        rng = random.Random(3)
        attacks = []
        while len(attacks) < 25:
            attacker = rng.choice(small_world.transit_ases)
            victim = rng.choice(graph.ases)
            if victim == attacker:
                continue
            result = simulate_interception(
                small_engine, victim=victim, attacker=attacker, origin_padding=3
            )
            if result.report.after:
                attacks.append(result)

        def hits(monitors):
            collector = RouteCollector(graph, monitors)
            return sum(
                detection_timing(a, collector, detector).detected for a in attacks
            )

        budget = 30
        assert hits(greedy_cover_monitors(graph, budget)) >= hits(
            top_degree_monitors(graph, budget)
        )
