"""Unit tests for the rolling SLO surface (and the histogram quantile
edge cases it leans on)."""

from __future__ import annotations

import math

import pytest

from repro.telemetry import (
    SLO,
    SLO_KINDS,
    BreachEvent,
    Histogram,
    RunMetrics,
    SLORegistry,
    SLOTracker,
    default_pipeline_slos,
)


class TestHistogramQuantileEdges:
    """Satellite hardening: the pinned edge semantics of
    ``Histogram.quantile``."""

    def test_empty_histogram_returns_zero_for_every_q(self):
        h = Histogram("h")
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 0.0

    def test_q_zero_is_exact_min_and_q_one_is_exact_max(self):
        h = Histogram("h")
        for value in (3, 9, 100):
            h.observe(value)
        assert h.quantile(0.0) == 3
        assert h.quantile(1.0) == 100

    def test_single_observation_every_q_returns_it(self):
        h = Histogram("h")
        h.observe(42)
        for q in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert h.quantile(q) == 42

    def test_single_bucket_estimate_stays_inside_observed_range(self):
        h = Histogram("h")
        # 100 and 120 share the 2**7 bucket: edge 127 must clamp to 120.
        h.observe(100)
        h.observe(120)
        for q in (0.01, 0.5, 0.99):
            assert 100 <= h.quantile(q) <= 120

    def test_out_of_range_q_raises(self):
        h = Histogram("h")
        h.observe(1)
        for q in (-0.01, 1.01, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                h.quantile(q)

    def test_nan_never_reaches_the_bucket_walk(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(float("nan"))

    def test_estimate_is_upper_bound_within_one_bucket(self):
        h = Histogram("h")
        for value in range(1, 101):
            h.observe(value)
        p50 = h.quantile(0.5)
        assert 50 <= p50 <= 63  # bucket edge 2**6 - 1
        assert h.quantile(0.99) <= 100


class TestSLOValidation:
    def test_kinds_tuple_is_pinned(self):
        assert SLO_KINDS == ("alarm-latency", "feed-staleness", "recovery-deadline")

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            SLO(name="", kind="alarm-latency", threshold=1.0)

    def test_rejects_quantile_outside_unit_interval(self):
        for q in (-0.1, 1.5):
            with pytest.raises(ValueError):
                SLO(name="x", kind="alarm-latency", threshold=1.0, quantile=q)

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            SLO(name="x", kind="alarm-latency", threshold=1.0, window=0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0])
    def test_rejects_a_threshold_that_is_not_finite_and_non_negative(self, threshold):
        """NaN is not JSON in a breach event, and a negative threshold
        breaches on the first observation."""
        with pytest.raises(ValueError, match="threshold"):
            SLO(name="x", kind="alarm-latency", threshold=threshold)


class TestSLOTracker:
    def _tracker(self, threshold=10.0, quantile=1.0, window=8, metrics=None):
        slo = SLO(
            name="t", kind="alarm-latency", threshold=threshold,
            quantile=quantile, window=window,
        )
        return SLOTracker(slo, metrics=metrics)

    def test_empty_window_is_healthy_and_never_crashes(self):
        tracker = self._tracker()
        assert tracker.current() == 0.0
        assert tracker.healthy()
        assert tracker.breaches == []

    def test_below_threshold_never_breaches(self):
        tracker = self._tracker(threshold=10.0)
        for value in (1, 5, 10):
            assert tracker.record(value) is None
        assert tracker.healthy()

    def test_breach_is_edge_triggered_once_per_excursion(self):
        tracker = self._tracker(threshold=10.0, window=1)
        assert tracker.record(50) is not None  # excursion opens
        assert tracker.record(60) is None  # still breached: no new event
        assert tracker.record(1) is None  # recovers
        assert tracker.record(99) is not None  # second excursion
        assert len(tracker.breaches) == 2

    def test_breach_event_carries_the_observed_quantile(self):
        tracker = self._tracker(threshold=10.0, window=4)
        event = tracker.record(40)
        assert isinstance(event, BreachEvent)
        assert event.observed == 40.0
        assert event.threshold == 10.0
        assert event.at == 1
        payload = event.to_event()
        assert payload["event"] == "slo-breach"
        assert payload["slo"] == "t"

    def test_window_is_rolling_and_bounded(self):
        tracker = self._tracker(threshold=10.0, window=2)
        tracker.record(100)  # breach
        tracker.record(1)
        tracker.record(1)  # 100 fell out of the window
        assert tracker.current() == 1.0
        assert tracker.healthy()
        assert len(tracker._window) == 2

    def test_breaches_are_counted_in_metrics(self):
        metrics = RunMetrics()
        tracker = self._tracker(threshold=1.0, window=1, metrics=metrics)
        tracker.record(5)
        assert metrics.counter_value("slo.breaches.t") == 1


class TestSLORegistry:
    def test_duplicate_name_rejected(self):
        registry = SLORegistry(default_pipeline_slos())
        with pytest.raises(ValueError):
            registry.add(SLO(name="alarm-latency", kind="alarm-latency", threshold=1.0))

    def test_unknown_name_is_ignored(self):
        registry = SLORegistry(default_pipeline_slos())
        assert registry.record("no-such-objective", 1e9) is None
        assert registry.breaches() == []

    def test_record_routes_by_name_and_events_are_jsonl_ready(self):
        registry = SLORegistry(default_pipeline_slos(recovery_rounds=2.0))
        registry.record("recovery-deadline", 5)
        events = registry.events()
        assert len(events) == 1
        assert events[0]["kind"] == "recovery-deadline"
        assert not math.isnan(float(events[0]["observed"]))

    def test_summary_table_renders_all_states(self):
        registry = SLORegistry(default_pipeline_slos(alarm_latency_updates=1.0))
        registry.record("alarm-latency", 50)
        registry.record("recovery-deadline", 1)
        table = registry.summary_table()
        assert "BREACHED" in table
        assert "ok" in table
        assert "no data" in table  # feed-staleness never observed

    def test_empty_registry_summary_table_does_not_crash(self):
        assert "(no objectives)" in SLORegistry().summary_table()

    def test_default_pipeline_slos_cover_every_kind(self):
        kinds = {slo.kind for slo in default_pipeline_slos()}
        assert kinds == set(SLO_KINDS)
        by_name = {slo.name: slo for slo in default_pipeline_slos()}
        assert by_name["recovery-deadline"].quantile == 1.0  # a hard deadline
