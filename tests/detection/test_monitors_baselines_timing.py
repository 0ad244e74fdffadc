"""Tests for monitor selection, baseline detectors, and detection timing."""

from __future__ import annotations

import random

import pytest

from repro.attack.interception import simulate_interception
from repro.attack.origin_hijack import OriginHijackAttack
from repro.attack.path_shortening import PathShorteningAttack
from repro.bgp.collectors import RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.detection.alarms import Confidence
from repro.detection.baselines import detect_moas, detect_new_links
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.monitors import (
    random_monitors,
    top_degree_monitors,
    victim_adjacent_monitors,
)
from repro.detection.timing import detection_timing
from repro.exceptions import DetectionError, UnknownASError


class TestMonitorSelection:
    def test_top_degree_deterministic(self, small_world):
        graph = small_world.graph
        first = top_degree_monitors(graph, 10)
        second = top_degree_monitors(graph, 10)
        assert first == second
        degrees = [graph.degree(m) for m in first]
        floor = min(degrees)
        others = [graph.degree(a) for a in graph.ases if a not in set(first)]
        assert all(d <= floor for d in others) or floor >= max(others)

    def test_top_degree_bounds(self, small_world):
        with pytest.raises(DetectionError):
            top_degree_monitors(small_world.graph, 0)
        with pytest.raises(DetectionError):
            top_degree_monitors(small_world.graph, len(small_world.graph) + 1)

    def test_random_monitors_respect_exclusions(self, small_world):
        rng = random.Random(3)
        excluded = set(small_world.tier1)
        monitors = random_monitors(small_world.graph, 15, rng, exclude=excluded)
        assert len(monitors) == 15
        assert not set(monitors) & excluded

    def test_victim_adjacent_prefers_near_ases(self, small_world):
        graph = small_world.graph
        victim = small_world.stubs[0]
        monitors = victim_adjacent_monitors(graph, victim, 5)
        neighbors = graph.neighbors_of(victim)
        # All direct neighbours come first (victim has 1-2 providers).
        assert neighbors <= set(monitors) or len(neighbors) >= 5
        assert victim not in monitors

    def test_victim_adjacent_unknown_victim(self, small_world):
        with pytest.raises(UnknownASError):
            victim_adjacent_monitors(small_world.graph, 999999, 3)


class TestBaselineDetectors:
    def test_moas_fires_on_origin_hijack(self, diamond_graph):
        engine = PropagationEngine(diamond_graph)
        attack = OriginHijackAttack(attacker=4, victim=5)
        outcome = engine.propagate(
            5, modifiers={4: attack.modifier()}, warm_start=engine.propagate(5)
        )
        view = RouteCollector(diamond_graph, [1, 2, 3]).snapshot(outcome)
        alarms = detect_moas(view)
        assert alarms and alarms[0].confidence is Confidence.HIGH

    def test_new_link_fires_on_path_shortening(self, figure3_graph):
        engine = PropagationEngine(figure3_graph)
        attack = PathShorteningAttack(attacker=6, victim=100)
        prepending = PrependingPolicy.uniform_origin(100, 3)
        outcome = engine.propagate(
            100,
            prepending=prepending,
            modifiers={6: attack.modifier()},
            warm_start=engine.propagate(100, prepending=prepending),
        )
        view = RouteCollector(figure3_graph, [2, 5]).snapshot(outcome)
        alarms = detect_new_links(view, figure3_graph)
        assert any("AS6-AS100" in a.evidence for a in alarms)

    def test_both_baselines_blind_to_aspp_interception(self, figure3_graph):
        """The paper's motivation: the ASPP attack triggers neither a
        MOAS anomaly nor a new-link anomaly."""
        engine = PropagationEngine(figure3_graph)
        result = simulate_interception(
            engine, victim=100, attacker=6, origin_padding=3
        )
        view = RouteCollector(figure3_graph, [2, 5, 4]).snapshot(result.attacked)
        assert detect_moas(view) == []
        assert detect_new_links(view, figure3_graph) == []

    def test_moas_quiet_on_honest_world(self, diamond_graph):
        outcome = PropagationEngine(diamond_graph).propagate(5)
        view = RouteCollector(diamond_graph, [1, 2, 3]).snapshot(outcome)
        assert detect_moas(view) == []


class TestDetectionTiming:
    def test_attack_detected_and_timed(self, figure3_graph):
        engine = PropagationEngine(figure3_graph)
        result = simulate_interception(
            engine, victim=100, attacker=6, origin_padding=3
        )
        collector = RouteCollector(figure3_graph, [2, 5])
        detector = ASPPInterceptionDetector(figure3_graph)
        timing = detection_timing(result, collector, detector)
        assert timing.detected
        assert timing.detection_round is not None
        assert timing.polluted_before_detection <= timing.polluted_total
        assert 0.0 <= timing.fraction_polluted_before_detection <= 1.0

    def test_undetected_attack_counts_full_pollution(self, figure3_graph):
        engine = PropagationEngine(figure3_graph)
        result = simulate_interception(
            engine, victim=100, attacker=6, origin_padding=3
        )
        # Monitor far from the pollution (D only sees C's side).
        collector = RouteCollector(figure3_graph, [4])
        detector = ASPPInterceptionDetector(figure3_graph)
        timing = detection_timing(result, collector, detector)
        assert not timing.detected
        assert timing.fraction_polluted_before_detection == 1.0

    def test_attacker_monitor_detects_immediately(self, figure3_graph):
        engine = PropagationEngine(figure3_graph)
        result = simulate_interception(
            engine, victim=100, attacker=6, origin_padding=3
        )
        collector = RouteCollector(figure3_graph, [6, 5])
        detector = ASPPInterceptionDetector(figure3_graph)
        timing = detection_timing(result, collector, detector)
        assert timing.detected
        assert timing.detection_round == 0
        stealthy = detection_timing(
            result, collector, detector, attacker_feeds_collector=False
        )
        # Without the attacker's collector feed, only AS5's unchanged
        # view remains: the attack goes unseen from this monitor set.
        assert not stealthy.detected
