"""Tests for the streaming (online) detector."""

from __future__ import annotations

import pytest

import repro.detection.streaming as streaming_module
from repro.attack.interception import simulate_interception
from repro.bgp.collectors import MonitorView, RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.bgp.route import Route
from repro.bgp.updates import UpdateMessage
from repro.detection.alarms import Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.streaming import StreamingDetector, attack_update_stream
from repro.exceptions import DetectionError
from repro.topology.relationships import PrefClass
from tests.detection.streaming_oracle import OracleStreamingDetector


@pytest.fixture()
def attacked(figure3_graph):
    engine = PropagationEngine(figure3_graph)
    result = simulate_interception(
        engine, victim=100, attacker=6, origin_padding=3
    )
    collector = RouteCollector(figure3_graph, [2, 5])
    return figure3_graph, result, collector


class TestAttackUpdateStream:
    def test_stream_ordered_by_adoption_round(self, attacked):
        graph, result, collector = attacked
        messages = attack_update_stream(result, collector)
        assert messages, "the attack must produce updates at the monitors"
        rounds = [
            result.attacked.adoption_round.get(message.monitor, 0)
            for message in messages
        ]
        assert rounds == sorted(rounds)

    def test_unchanged_monitors_emit_nothing(self, attacked):
        graph, result, collector = attacked
        messages = attack_update_stream(result, collector)
        changed = {message.monitor for message in messages}
        before = collector.snapshot(result.baseline)
        after = collector.snapshot(
            result.attacked,
            modifiers={result.attack.attacker: result.attack.modifier()},
        )
        for monitor in collector.monitors:
            if monitor not in changed:
                assert before.routes[monitor] == after.routes[monitor]

    def test_stealthy_attacker_suppresses_own_feed(self, figure3_graph):
        engine = PropagationEngine(figure3_graph)
        result = simulate_interception(
            engine, victim=100, attacker=6, origin_padding=3
        )
        collector = RouteCollector(figure3_graph, [6, 5])
        loud = attack_update_stream(result, collector)
        quiet = attack_update_stream(
            result, collector, attacker_feeds_collector=False
        )
        assert any(m.monitor == 6 for m in loud)
        assert all(m.monitor != 6 for m in quiet)


class TestStreamingDetector:
    def test_detects_attack_mid_stream(self, attacked):
        graph, result, collector = attacked
        streaming = StreamingDetector(ASPPInterceptionDetector(graph))
        streaming.prime(collector.snapshot(result.baseline))
        alarms = streaming.consume_all(attack_update_stream(result, collector))
        assert any(
            a.confidence is Confidence.HIGH and a.suspect == 6 for a in alarms
        )

    def test_duplicate_updates_ignored(self, attacked):
        graph, result, collector = attacked
        streaming = StreamingDetector(ASPPInterceptionDetector(graph))
        streaming.prime(collector.snapshot(result.baseline))
        messages = attack_update_stream(result, collector)
        first = streaming.consume_all(messages)
        again = streaming.consume_all(messages)  # re-announcements of the same
        assert first
        assert again == []

    def test_withdrawal_updates_state_quietly(self, attacked):
        graph, result, collector = attacked
        streaming = StreamingDetector(ASPPInterceptionDetector(graph))
        streaming.prime(collector.snapshot(result.baseline))
        prefix = result.baseline.prefix
        alarms = streaming.consume(
            UpdateMessage(monitor=2, prefix=prefix, path=(), withdrawn=True)
        )
        assert alarms == []
        assert streaming.current_view(prefix).routes[2] is None

    def test_state_isolated_per_prefix(self, attacked):
        graph, result, collector = attacked
        streaming = StreamingDetector(ASPPInterceptionDetector(graph))
        streaming.prime(collector.snapshot(result.baseline))
        other = UpdateMessage(monitor=2, prefix="192.0.2.0/24", path=(1, 100))
        streaming.consume(other)
        assert streaming.current_view("192.0.2.0/24").routes[2].path == (1, 100)
        assert (
            streaming.current_view(result.baseline.prefix).routes[2]
            == collector.snapshot(result.baseline).routes[2]
        )

    def test_malformed_prefix_is_refused(self, attacked):
        """A prefix that is not a canonical CIDR is rejected on first
        sight instead of being filed under its raw string."""
        graph, _, _ = attacked
        streaming = StreamingDetector(ASPPInterceptionDetector(graph))
        for prefix in ("10.0.0.1/8", "not-a-prefix"):
            with pytest.raises(DetectionError):
                streaming.consume(UpdateMessage(monitor=2, prefix=prefix, path=(1, 100)))
            assert streaming.current_view(prefix).routes == {}

    def test_equivalent_to_batch_detection(self, attacked):
        """Streaming over the attack's updates finds the attack iff the
        batch snapshot comparison does."""
        graph, result, collector = attacked
        detector = ASPPInterceptionDetector(graph)
        from repro.detection.timing import detection_timing

        batch = detection_timing(result, collector, detector)
        streaming = StreamingDetector(detector)
        streaming.prime(collector.snapshot(result.baseline))
        alarms = streaming.consume_all(attack_update_stream(result, collector))
        assert bool(alarms) == batch.detected


class TestNeighbourClassMemory:
    """Regression: the per-(prefix, monitor, neighbour) class memory must
    survive a withdraw/re-announce flap.

    Collector feeds carry no local-pref, so reconstructed routes infer
    their class.  The old implementation remembered the class only while
    a route from that neighbour was installed: a withdrawal erased it,
    and the re-announced (identical) route came back with the default
    class — a different ``Route`` identity, so the *original* route
    replayed afterwards looked like a change instead of a duplicate.
    """

    def _primed(self, attacked):
        graph, result, collector = attacked
        streaming = StreamingDetector(ASPPInterceptionDetector(graph))
        view = collector.snapshot(result.baseline)
        streaming.prime(view)
        return streaming, view, result.baseline.prefix

    def test_reannounced_route_keeps_learned_class(self, attacked):
        streaming, view, prefix = self._primed(attacked)
        monitor = 2
        original = view.routes[monitor]
        assert original is not None
        streaming.consume(
            UpdateMessage(monitor=monitor, prefix=prefix, path=(), withdrawn=True)
        )
        assert streaming.current_view(prefix).routes[monitor] is None
        streaming.consume(
            UpdateMessage(monitor=monitor, prefix=prefix, path=original.path)
        )
        rebuilt = streaming.current_view(prefix).routes[monitor]
        assert rebuilt == original  # identical identity, class included
        assert rebuilt.pref is original.pref

    def test_replay_after_flap_is_duplicate(self, attacked):
        """After withdraw + re-announce, replaying the original
        announcement must be suppressed as a duplicate (no view change,
        no alarms) — the stale-class bug made it look like a change."""
        streaming, view, prefix = self._primed(attacked)
        monitor = 2
        original = view.routes[monitor]
        flap = [
            UpdateMessage(monitor=monitor, prefix=prefix, path=(), withdrawn=True),
            UpdateMessage(monitor=monitor, prefix=prefix, path=original.path),
        ]
        streaming.consume_all(flap)
        replay = UpdateMessage(monitor=monitor, prefix=prefix, path=original.path)
        assert streaming.consume(replay) == []
        assert streaming.current_view(prefix).routes[monitor] == original

    def test_never_seen_neighbour_defaults_conservatively(self, attacked):
        streaming, view, prefix = self._primed(attacked)
        from repro.detection.streaming import _DEFAULT_PREF

        fresh = UpdateMessage(monitor=2, prefix="198.51.100.0/24", path=(99, 100))
        streaming.consume(fresh)
        route = streaming.current_view("198.51.100.0/24").routes[2]
        assert route.pref is _DEFAULT_PREF

    def test_prime_populates_class_memory(self, attacked):
        streaming, view, prefix = self._primed(attacked)
        for monitor, route in view.routes.items():
            if route is None or route.learned_from is None:
                continue
            assert (
                streaming._prefixes[prefix].classes[monitor][route.learned_from]
                is route.pref
            )


class TestLiveViews:
    def test_live_and_copy_paths_raise_identical_alarms(self, attacked):
        """The live view and the per-update snapshot copies of the
        test-side oracle raise the same alarms."""
        graph, result, collector = attacked
        messages = attack_update_stream(result, collector)
        baseline = collector.snapshot(result.baseline)
        runs = []
        for factory in (StreamingDetector, OracleStreamingDetector):
            streaming = factory(ASPPInterceptionDetector(graph))
            streaming.prime(baseline)
            runs.append(streaming.consume_all(messages))
        assert runs[0] == runs[1]
        assert runs[0], "the figure-3 attack must raise alarms"

    def test_live_view_tracks_subsequent_updates(self, attacked):
        graph, result, collector = attacked
        streaming = StreamingDetector(ASPPInterceptionDetector(graph))
        baseline = collector.snapshot(result.baseline)
        streaming.prime(baseline)
        live = streaming.live_view(baseline.prefix)
        frozen = streaming.current_view(baseline.prefix)
        for message in attack_update_stream(result, collector):
            streaming.consume(message)
        assert dict(live.routes) == dict(
            streaming.current_view(baseline.prefix).routes
        )
        assert dict(frozen.routes) == dict(baseline.routes)

    def test_live_view_is_read_only(self, attacked):
        graph, result, collector = attacked
        streaming = StreamingDetector(ASPPInterceptionDetector(graph))
        baseline = collector.snapshot(result.baseline)
        streaming.prime(baseline)
        live = streaming.live_view(baseline.prefix)
        with pytest.raises(TypeError):
            live.routes[2] = None

    def test_updates_seen_increments_without_metrics(self, attacked):
        graph, result, collector = attacked
        streaming = StreamingDetector(ASPPInterceptionDetector(graph))
        streaming.prime(collector.snapshot(result.baseline))
        messages = attack_update_stream(result, collector)
        for message in messages:
            streaming.consume(message)
        assert streaming._updates_seen == len(messages)


class TestOnePathTwoClasses:
    """Two monitors carry one AS-path under different remembered
    classes.  The detector builds one route per (path, class) of a
    prefix, however often it is announced; the test-side oracle builds
    one per update.  Alarms, views and ``first_alarm_at`` must agree."""

    PREFIX = "203.0.113.0/24"
    LIGHT = (6, 1, 100)
    HEAVY = (6, 1, 100, 100, 100)

    def _baseline(self) -> MonitorView:
        prefix = self.PREFIX
        return MonitorView(
            prefix=prefix,
            routes={
                2: Route(prefix, self.HEAVY, 6, PrefClass.CUSTOMER),
                4: Route(prefix, self.HEAVY, 6, PrefClass.PEER),
                5: Route(prefix, (1, 100, 100, 100), 1, PrefClass.CUSTOMER),
            },
        )

    def _stream(self) -> list[UpdateMessage]:
        def announce(monitor, path):
            return UpdateMessage(monitor=monitor, prefix=self.PREFIX, path=path)

        flaps = [
            announce(2, self.LIGHT),  # the light path's first class: customer
            announce(4, self.LIGHT),  # the same path as a peer route
            announce(4, self.HEAVY),
            announce(2, self.HEAVY),
            announce(4, self.LIGHT),
            announce(2, self.LIGHT),
            UpdateMessage(monitor=4, prefix=self.PREFIX, path=(), withdrawn=True),
            announce(4, self.LIGHT),
        ]
        return flaps * 2

    def test_equals_the_oracle(self, figure3_graph):
        runs = []
        for factory in (StreamingDetector, OracleStreamingDetector):
            streaming = factory(ASPPInterceptionDetector(figure3_graph))
            streaming.prime(self._baseline())
            alarms = streaming.consume_all(self._stream())
            runs.append(
                (alarms, streaming.current_view(self.PREFIX), streaming.first_alarm_at)
            )
        assert runs[0] == runs[1]
        alarms, view, _ = runs[0]
        assert {alarm.monitor for alarm in alarms} == {2, 4}
        assert view.routes[4] == Route(self.PREFIX, self.LIGHT, 6, PrefClass.PEER)
        assert view.routes[2] == Route(self.PREFIX, self.LIGHT, 6, PrefClass.CUSTOMER)

    def test_a_route_is_built_once_per_path_and_class(self, figure3_graph, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return Route(*args)

        monkeypatch.setattr(streaming_module, "Route", counted)
        streaming = StreamingDetector(ASPPInterceptionDetector(figure3_graph))
        streaming.prime(self._baseline())
        streaming.consume_all(self._stream())
        # the heavy customer route is the baseline's; the other three
        # (path, class) pairs are built once each
        assert sorted((args[1], args[3]) for args in built) == [
            (self.LIGHT, PrefClass.CUSTOMER),
            (self.LIGHT, PrefClass.PEER),
            (self.HEAVY, PrefClass.PEER),
        ]
