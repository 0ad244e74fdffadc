"""Tests for relationship inference (Gao, CAIDA-style, combination).

Ground-truth synthetic topologies let us measure inference accuracy
directly — something the paper could not do on the real Internet.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.engine import PropagationEngine
from repro.exceptions import MeasurementError
from repro.inference.accuracy import score_inference
from repro.inference.caida import infer_caida
from repro.inference.combine import agreed_relationships, infer_combined
from repro.inference.gao import infer_gao
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship


@pytest.fixture(scope="module")
def small_world_paths(small_world):
    """Best-route paths from many origins over the shared small world."""
    graph = small_world.graph
    engine = PropagationEngine(graph)
    rng = random.Random(17)
    paths: list[tuple[int, ...]] = []
    # Mix core and edge vantage points: edge monitors contribute the
    # long valley-free paths that actually cross the Tier-1 mesh.
    monitors = sorted(graph.ases, key=lambda a: -graph.degree(a))[:15]
    monitors += rng.sample(small_world.stubs, 25)
    for origin in rng.sample(graph.ases, 80):
        outcome = engine.propagate(origin)
        for monitor in monitors:
            route = outcome.best.get(monitor)
            if route is not None and route.path:
                paths.append(route.path)
    return paths


class TestGao:
    def test_simple_hierarchy_inferred(self):
        # Star: 1 is clearly the top provider (highest degree).
        paths = [
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 1, 3),
            (3, 1, 4),
            (4, 1, 2),
        ]
        graph = infer_gao(paths)
        assert graph.relationship(1, 2) is Relationship.CUSTOMER
        assert graph.relationship(3, 1) is Relationship.PROVIDER

    def test_empty_paths_rejected(self):
        with pytest.raises(MeasurementError):
            infer_gao([])

    def test_known_peers_pinned(self):
        paths = [(1, 2), (2, 1, 3)]
        graph = infer_gao(paths, known_peers=[(1, 2)])
        assert graph.relationship(1, 2) is Relationship.PEER

    def test_accuracy_on_generated_world(self, small_world, small_world_paths):
        inferred = infer_gao(small_world_paths)
        score = score_inference(small_world.graph, inferred)
        assert score.num_common_edges > 100
        assert score.accuracy > 0.7
        correct, total = score.per_relationship[Relationship.CUSTOMER.value]
        assert correct / total > 0.7


class TestCaida:
    def test_seeded_clique_becomes_peering(self, small_world, small_world_paths):
        """With the Tier-1 prior (AS-Rank's curated clique list), every
        observed intra-clique edge is classified as peering."""
        inferred = infer_caida(small_world_paths, seed_clique=small_world.tier1)
        tier1 = small_world.tier1
        observed = [
            (a, b)
            for i, a in enumerate(tier1)
            for b in tier1[i + 1 :]
            if inferred.has_edge(a, b)
        ]
        assert observed
        assert all(
            inferred.relationship(a, b) is Relationship.PEER for a, b in observed
        )

    def test_accuracy_reasonable(self, small_world, small_world_paths):
        inferred = infer_caida(small_world_paths)
        score = score_inference(small_world.graph, inferred)
        assert score.accuracy > 0.6

    def test_empty_paths_rejected(self):
        with pytest.raises(MeasurementError):
            infer_caida([])


class TestCombination:
    def test_agreement_extraction(self):
        first = ASGraph()
        first.add_p2c(1, 2)
        first.add_p2p(2, 3)
        second = ASGraph()
        second.add_p2c(1, 2)
        second.add_p2c(2, 3)  # disagrees with first
        agreed = agreed_relationships(first, second)
        assert agreed == {(1, 2): Relationship.CUSTOMER}

    def test_combined_at_least_as_good_as_gao(self, small_world, small_world_paths):
        gao_score = score_inference(small_world.graph, infer_gao(small_world_paths))
        combined_score = score_inference(
            small_world.graph, infer_combined(small_world_paths)
        )
        assert combined_score.accuracy >= gao_score.accuracy - 0.05

    def test_detector_works_with_inferred_graph(self, small_world, small_world_paths):
        """End-to-end: detection driven by the inferred topology (as the
        paper does) still catches a visible attack."""
        from repro.attack.interception import simulate_interception
        from repro.bgp.collectors import RouteCollector
        from repro.detection.detector import ASPPInterceptionDetector
        from repro.detection.timing import detection_timing

        graph = small_world.graph
        engine = PropagationEngine(graph)
        inferred = infer_combined(small_world_paths)
        detector = ASPPInterceptionDetector(inferred)
        victim = small_world.stubs[0]
        attacker = sorted(graph.providers_of(small_world.tier2[0]))[0]
        result = simulate_interception(
            engine, victim=victim, attacker=attacker, origin_padding=4
        )
        collector = RouteCollector(
            graph, sorted(graph.ases, key=lambda a: -graph.degree(a))[:40]
        )
        timing = detection_timing(result, collector, detector)
        # The direct-symptom stage needs no relationships at all, so an
        # inferred (imperfect) graph must not break detection.
        if result.report.after:
            assert timing.detected or not any(
                collector.snapshot(result.baseline).routes[m]
                != collector.snapshot(result.attacked).routes[m]
                for m in collector.monitors
            )


class TestAccuracyScoring:
    def test_perfect_inference_scores_one(self, small_world):
        score = score_inference(small_world.graph, small_world.graph)
        assert score.accuracy == 1.0
        assert score.num_missing_edges == 0
        assert score.num_spurious_edges == 0

    def test_missing_and_spurious_counted(self):
        truth = ASGraph()
        truth.add_p2c(1, 2)
        truth.add_p2c(2, 3)
        inferred = ASGraph()
        inferred.add_p2c(1, 2)
        inferred.add_p2p(4, 5)
        score = score_inference(truth, inferred)
        assert score.num_common_edges == 1
        assert score.num_missing_edges == 1
        assert score.num_spurious_edges == 1
        assert score.num_correct == 1
