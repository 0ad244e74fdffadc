"""Equivalence suite: the batch-loop StreamingDetector vs the per-update
oracle.

The test-side oracle (:mod:`tests.detection.streaming_oracle`: a fresh
snapshot copy and ``inspect_change`` on every change) states the
semantics.  The production detector's memoised precheck and live view
must raise the *identical* alarm list over any stream — attack bursts,
background flaps, withdraw/re-announce cycles, fig13's short
inspection-heavy attack streams on large fleets — and its class memory
must honour the per-(prefix, monitor, neighbour) write-once semantics.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.interception import simulate_interception
from repro.bgp.collectors import RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.bgp.updates import UpdateMessage
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.monitors import top_degree_monitors
from repro.detection.streaming import StreamingDetector, attack_update_stream
from repro.experiments.base import build_world
from repro.measurement.churn import ChurnConfig, synthesize_churn_stream
from repro.telemetry.metrics import RunMetrics
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology
from tests.detection.streaming_oracle import OracleStreamingDetector

TINY = InternetTopologyConfig(
    num_tier1=3,
    num_tier2=6,
    num_tier3=12,
    num_tier4=10,
    num_stubs=40,
    num_content=2,
    sibling_pairs=1,
)


def _attack_setup(seed: int, padding: int):
    rng = random.Random(seed)
    world = generate_internet_topology(TINY, rng)
    graph = world.graph
    engine = PropagationEngine(graph)
    attacker = rng.choice(world.transit_ases)
    victim = rng.choice([a for a in graph.ases if a != attacker])
    result = simulate_interception(
        engine, victim=victim, attacker=attacker, origin_padding=padding
    )
    collector = RouteCollector(
        graph, top_degree_monitors(graph, max(5, len(graph) // 3))
    )
    return graph, result, collector


def _pair(graph, baselines):
    """An (oracle, detector) pair primed identically."""
    oracle = OracleStreamingDetector(ASPPInterceptionDetector(graph))
    detector = StreamingDetector(ASPPInterceptionDetector(graph))
    for view in baselines:
        oracle.prime(view)
        detector.prime(view)
    return oracle, detector


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), padding=st.integers(2, 5))
def test_attack_stream_alarms_identical(seed, padding):
    graph, result, collector = _attack_setup(seed, padding)
    messages = attack_update_stream(result, collector)
    baseline = collector.snapshot(result.baseline)
    oracle, detector = _pair(graph, [baseline])
    expected = oracle.consume_all(messages)
    got = []
    for message in messages:
        got.extend(detector.consume(message))
    assert got == expected


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    padding=st.integers(2, 5),
    batch=st.integers(1, 50),
)
def test_batched_consumption_equals_serial(seed, padding, batch):
    """consume_all over any chunking == the serial oracle."""
    graph, result, collector = _attack_setup(seed, padding)
    messages = attack_update_stream(result, collector)
    baseline = collector.snapshot(result.baseline)
    oracle, detector = _pair(graph, [baseline])
    expected = oracle.consume_all(messages)
    got = []
    for start in range(0, len(messages), batch):
        got.extend(detector.consume_all(messages[start : start + batch]))
    assert got == expected


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10**6), shuffle=st.integers(0, 10**6))
def test_churn_mix_alarms_identical(seed, shuffle):
    """Attack + background flaps (padded backups force the detector's
    padding-decrease path on recovery legs), shuffled: still identical."""
    config = ChurnConfig(
        seed=seed % 50,
        scale=0.2,
        monitors=15,
        prefixes=2,
        scenarios=2,
        updates=250,
        backup_padding=4,
    )
    stream = synthesize_churn_stream(config)
    messages = stream.plain_messages()
    random.Random(shuffle).shuffle(messages)
    oracle, detector = _pair(stream.world.graph, stream.baselines.values())
    assert detector.consume_all(messages) == oracle.consume_all(messages)
    assert detector.first_alarm_at == oracle.first_alarm_at


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6), padding=st.integers(2, 5))
def test_final_views_agree(seed, padding):
    graph, result, collector = _attack_setup(seed, padding)
    messages = attack_update_stream(result, collector)
    baseline = collector.snapshot(result.baseline)
    oracle, detector = _pair(graph, [baseline])
    oracle.consume_all(messages)
    detector.consume_all(messages)
    prefix = baseline.prefix
    expected = oracle.current_view(prefix)
    got = detector.current_view(prefix)
    assert got.prefix == expected.prefix
    assert dict(got.routes) == dict(expected.routes)
    live = detector.live_view(prefix)
    assert dict(live.routes.items()) == dict(expected.routes)


@pytest.fixture(scope="module")
def fig13_world():
    """fig13's substrate at half scale: enough ASes for a 400-monitor
    fleet."""
    return build_world(seed=7, scale=0.5)


@settings(max_examples=10, deadline=None)
@given(
    pick=st.integers(0, 10**6),
    fleet=st.integers(10, 400),
    padding=st.integers(2, 5),
)
def test_fig13_shaped_streams_match_the_oracle(fig13_world, pick, fleet, padding):
    """fig13's shape: a fresh detector per (attack, fleet), primed from
    the attack's before-view on a top-degree fleet, then one short
    attack stream that nearly always reaches the Figure-4 scan."""
    world = fig13_world
    graph = world.graph
    rng = random.Random(pick)
    attacker = rng.choice(world.topology.transit_ases)
    victim = rng.choice([a for a in graph.ases if a != attacker])
    result = simulate_interception(
        world.engine, victim=victim, attacker=attacker, origin_padding=padding
    )
    collector = RouteCollector(graph, top_degree_monitors(graph, fleet))
    baseline = result.monitor_views(collector)[0]
    oracle, detector = _pair(graph, [baseline])
    messages = attack_update_stream(result, collector)
    assert detector.consume_all(messages) == oracle.consume_all(messages)
    assert detector.first_alarm_at == oracle.first_alarm_at
    prefix = baseline.prefix
    assert detector.current_view(prefix).routes == oracle.current_view(prefix).routes


class TestFlapSemantics:
    """The per-(prefix, monitor, neighbour) class memory, replayed on
    the batch loop."""

    @pytest.fixture()
    def attacked(self, figure3_graph):
        engine = PropagationEngine(figure3_graph)
        result = simulate_interception(
            engine, victim=100, attacker=6, origin_padding=3
        )
        collector = RouteCollector(figure3_graph, [2, 5])
        return figure3_graph, result, collector

    def _primed(self, attacked):
        graph, result, collector = attacked
        detector = StreamingDetector(ASPPInterceptionDetector(graph))
        detector.prime(collector.snapshot(result.baseline))
        return graph, result, collector, detector

    def test_replay_after_flap_is_duplicate(self, attacked):
        graph, result, collector, detector = self._primed(attacked)
        prefix = result.baseline.prefix
        monitor = 2
        route = collector.snapshot(result.baseline).routes[monitor]
        flap = [
            UpdateMessage(monitor=monitor, prefix=prefix, path=(), withdrawn=True),
            UpdateMessage(monitor=monitor, prefix=prefix, path=route.path),
        ]
        assert detector.consume_all(flap) == []
        # The re-announced route must reconstruct the remembered class,
        # so an exact replay is suppressed as a duplicate (no state
        # change => no inspection).
        assert detector.consume(
            UpdateMessage(monitor=monitor, prefix=prefix, path=route.path)
        ) == []
        assert detector.live_view(prefix).routes[monitor] == route

    def test_withdrawal_of_absent_monitor_not_installed(self, attacked):
        graph, result, collector, detector = self._primed(attacked)
        prefix = result.baseline.prefix
        ghost = 999_999  # monitor never primed for this prefix
        assert detector.consume(
            UpdateMessage(monitor=ghost, prefix=prefix, path=(), withdrawn=True)
        ) == []
        assert ghost not in detector.live_view(prefix).routes

    def test_state_isolated_per_prefix(self, attacked):
        graph, result, collector, detector = self._primed(attacked)
        prefix = result.baseline.prefix
        view = collector.snapshot(result.baseline)
        monitor = 2
        other = "198.51.100.0/24"
        detector.consume(
            UpdateMessage(monitor=monitor, prefix=other, path=(monitor, 100))
        )
        assert detector.live_view(prefix).routes[monitor] == view.routes[monitor]
        assert detector.live_view(other).routes[monitor].path == (monitor, 100)


class TestCounters:
    def test_updates_seen_counts_unconditionally(self, figure3_graph):
        """The first-alarm distance must count updates consumed before a
        registry was enabled (the historical bug under-counted by only
        incrementing when tracking)."""
        for factory in (StreamingDetector, OracleStreamingDetector):
            detector = factory(ASPPInterceptionDetector(figure3_graph))
            prefix = "203.0.113.0/24"
            for n in range(3):
                detector.consume(
                    UpdateMessage(monitor=n, prefix=prefix, path=(n, 100))
                )
            assert detector._updates_seen == 3

    def test_pipeline_metrics_counters(self, figure3_graph):
        engine = PropagationEngine(figure3_graph)
        result = simulate_interception(
            engine, victim=100, attacker=6, origin_padding=3
        )
        collector = RouteCollector(figure3_graph, [2, 5])
        messages = attack_update_stream(result, collector)
        metrics = RunMetrics()
        detector = StreamingDetector(
            ASPPInterceptionDetector(figure3_graph), metrics=metrics
        )
        detector.prime(collector.snapshot(result.baseline))
        alarms = detector.consume_all(messages)
        assert metrics.counter_value("detection.pipeline.updates") == len(messages)
        assert metrics.counter_value("detection.pipeline.batches") == 1
        assert metrics.counter_value("detection.pipeline.alarms") == len(alarms)
        latency = metrics.histograms["detection.pipeline.update_latency_us"]
        assert latency.count == len(messages)
        assert latency.quantile(0.5) <= latency.quantile(0.99) <= latency.max

    def test_first_alarm_distance_matches_oracle(self, figure3_graph):
        engine = PropagationEngine(figure3_graph)
        result = simulate_interception(
            engine, victim=100, attacker=6, origin_padding=3
        )
        collector = RouteCollector(figure3_graph, [2, 5])
        messages = attack_update_stream(result, collector)
        baseline = collector.snapshot(result.baseline)

        def first_alarm_distance(factory):
            metrics = RunMetrics()
            detector = factory(ASPPInterceptionDetector(figure3_graph), metrics=metrics)
            detector.prime(baseline)
            for message in messages:
                detector.consume(message)
            histogram = metrics.histograms.get("detection.updates_to_first_alarm")
            return None if histogram is None else histogram.max

        assert first_alarm_distance(OracleStreamingDetector) == first_alarm_distance(
            StreamingDetector
        )
