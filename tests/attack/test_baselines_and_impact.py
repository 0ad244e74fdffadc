"""Tests for the baseline attacks and the pollution metrics."""

from __future__ import annotations

import pytest

from repro.attack.impact import pollution_report
from repro.attack.origin_hijack import OriginHijackAttack
from repro.attack.path_shortening import PathShorteningAttack
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import SimulationError
from repro.topology.asgraph import ASGraph


@pytest.fixture()
def graph() -> ASGraph:
    g = ASGraph()
    g.add_p2c(1, 100)
    g.add_p2c(6, 1)
    g.add_p2c(5, 1)
    g.add_p2c(2, 6)
    g.add_p2c(7, 5)
    g.add_p2p(2, 7)
    return g


class TestOriginHijack:
    def test_attacker_becomes_origin(self, graph):
        engine = PropagationEngine(graph)
        attack = OriginHijackAttack(attacker=6, victim=100)
        outcome = engine.propagate(
            100, modifiers={6: attack.modifier()}, warm_start=engine.propagate(100)
        )
        # AS2 sits above the attacker and adopts the bogus origination.
        assert outcome.best[2].path == (6,)
        assert outcome.best[2].origin == 6  # MOAS: origin changed

    def test_self_attack_rejected(self):
        with pytest.raises(SimulationError):
            OriginHijackAttack(attacker=3, victim=3)


class TestPathShortening:
    def test_fabricated_direct_link(self, graph):
        engine = PropagationEngine(graph)
        attack = PathShorteningAttack(attacker=6, victim=100)
        prepending = PrependingPolicy.uniform_origin(100, 1)
        outcome = engine.propagate(
            100,
            prepending=prepending,
            modifiers={6: attack.modifier()},
            warm_start=engine.propagate(100, prepending=prepending),
        )
        assert outcome.best[2].path == (6, 100)
        # The announced adjacency 6-100 does not exist in the topology.
        assert not graph.has_edge(6, 100)

    def test_other_prefixes_untouched(self):
        modifier = PathShorteningAttack(attacker=6, victim=100).modifier()
        assert modifier((1, 99)) == (1, 99)

    def test_self_attack_rejected(self):
        with pytest.raises(SimulationError):
            PathShorteningAttack(attacker=3, victim=3)


class TestImpactMetrics:
    def test_fraction_traversing_excludes_attacker_and_victim(self, graph):
        engine = PropagationEngine(graph)
        outcome = engine.propagate(100)
        # Paths through AS1: the before-fraction of an attack by AS1
        # that changed nothing.
        fraction = pollution_report(
            baseline=outcome, attacked=outcome, attacker=1, victim=100
        ).before_fraction
        population = len(graph) - 2  # minus transit AS under test, minus victim
        expected = len([a for a in graph.ases if a not in (1, 100)])
        assert fraction == pytest.approx(
            sum(
                1
                for a in graph.ases
                if a not in (1, 100) and 1 in (outcome.best[a].path if outcome.best[a] else ())
            )
            / expected
        )
        assert 0.0 <= fraction <= 1.0
        assert population == expected

    def test_pollution_report_before_after(self, graph):
        engine = PropagationEngine(graph)
        prepending = PrependingPolicy.uniform_origin(100, 3)
        baseline = engine.propagate(100, prepending=prepending)
        from repro.attack.interception import ASPPInterceptionAttack

        modifier = ASPPInterceptionAttack(attacker=6, victim=100).modifier()
        attacked = engine.propagate(
            100, prepending=prepending, modifiers={6: modifier}, warm_start=baseline
        )
        report = pollution_report(
            baseline=baseline, attacked=attacked, attacker=6, victim=100
        )
        assert report.newly_polluted == report.after - report.before
        assert report.gain == pytest.approx(
            report.after_fraction - report.before_fraction
        )
        assert 6 not in report.after and 100 not in report.after
        # AS2 (above the attacker) is captured.
        assert 2 in report.after

    def test_empty_population(self):
        g = ASGraph()
        g.add_p2c(1, 2)
        engine = PropagationEngine(g)
        outcome = engine.propagate(2)
        report = pollution_report(baseline=outcome, attacked=outcome, attacker=1, victim=2)
        assert report.before_fraction == 0.0
