"""Unit tests for the telemetry primitives and the RunMetrics registry."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import (
    Counter,
    Histogram,
    RunMetrics,
    Timer,
    events,
    from_jsonl,
    read_jsonl,
    summary_table,
    to_jsonl,
    write_jsonl,
)


class TestCounter:
    def test_add_and_merge(self):
        a = Counter("x")
        a.add()
        a.add(4)
        b = Counter("x", 7)
        a.merge(b)
        assert a.value == 12


class TestTimer:
    def test_accumulates_count_total_max(self):
        t = Timer("t")
        t.add(0.5)
        t.add(1.5)
        assert t.count == 2
        assert t.total == 2.0
        assert t.max == 1.5
        assert t.mean == 1.0

    def test_merge(self):
        a = Timer("t", count=2, total=1.0, max=0.8)
        b = Timer("t", count=1, total=2.0, max=2.0)
        a.merge(b)
        assert (a.count, a.total, a.max) == (3, 3.0, 2.0)

    def test_empty_mean_is_zero(self):
        assert Timer("t").mean == 0.0


#: non-negative observations of every shape the buckets distinguish:
#: zero, sub-1 (bucket 0), ordinary, beyond float integer precision, and
#: the plain ints the depth histograms record
_observations = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=2.0**53, max_value=2.0**70),
        st.integers(0, 2**60),
    ),
    max_size=40,
)


class TestHistogram:
    def test_buckets_are_power_of_two(self):
        h = Histogram("h")
        for value in (0, 1, 2, 3, 4, 7, 8):
            h.observe(value)
        # bit_length: 0->0, 1->1, {2,3}->2, {4..7}->3, 8->4
        assert h.buckets == {0: 1, 1: 1, 2: 2, 3: 2, 4: 1}
        assert h.count == 7
        assert h.min == 0
        assert h.max == 8

    def test_merge_is_exact_under_any_partition(self):
        values = [0, 1, 5, 9, 2, 2, 31, 4]
        whole = Histogram("h")
        for v in values:
            whole.observe(v)
        left, right = Histogram("h"), Histogram("h")
        for v in values[:3]:
            left.observe(v)
        for v in values[3:]:
            right.observe(v)
        left.merge(right)
        assert left.count == whole.count
        assert left.total == whole.total
        assert left.min == whole.min
        assert left.max == whole.max
        assert left.buckets == whole.buckets


    @given(history=_observations, merged=_observations, values=_observations)
    def test_observe_many_is_observe_in_a_loop(self, history, merged, values):
        """Field for field (count, total summed in the same order, min,
        max, buckets), on a histogram with a past and a merge behind it."""

        def seasoned() -> Histogram:
            histogram, other = Histogram("h"), Histogram("h")
            for value in history:
                histogram.observe(value)
            for value in merged:
                other.observe(value)
            histogram.merge(other)
            return histogram

        folded, looped = seasoned(), seasoned()
        folded.observe_many(values)
        for value in values:
            looped.observe(value)
        assert folded == looped
        assert repr(folded.total) == repr(looped.total)

    def test_observe_many_of_nothing_is_a_no_op(self):
        histogram = Histogram("h")
        histogram.observe_many([])
        assert histogram == Histogram("h")
        metrics = RunMetrics()
        metrics.observe_many("h", [])
        assert not metrics


class TestRunMetricsRecording:
    def test_observe_many_is_observe_in_a_loop(self):
        folded, looped = RunMetrics(), RunMetrics()
        folded.observe_many("h", [0.5, 3, 9.25])
        for value in (0.5, 3, 9.25):
            looped.observe("h", value)
        assert folded.to_dict() == looped.to_dict()

    def test_enabled_registry_records(self):
        metrics = RunMetrics()
        metrics.count("a", 2)
        metrics.count("a")
        metrics.observe("b", 3)
        metrics.info_add("d", 5)
        with metrics.time("e"):
            pass
        assert metrics.counter_value("a") == 3
        assert metrics.counter_value("missing") == 0
        assert metrics.histograms["b"].count == 1
        assert metrics.timers["e"].count == 1
        assert metrics.info["d"] == 5
        assert bool(metrics)

    def test_time_records_even_on_exception(self):
        metrics = RunMetrics()
        with pytest.raises(ValueError):
            with metrics.time("e"):
                raise ValueError("boom")
        assert metrics.timers["e"].count == 1


class TestMergeAndTake:
    def _sample(self):
        metrics = RunMetrics()
        metrics.count("c", 3)
        metrics.observe("h", 5)
        metrics.timer_add("t", 0.25)
        metrics.info_add("i", 2)
        return metrics

    def test_merge_sums_all_sections(self):
        a, b = self._sample(), self._sample()
        a.merge(b)
        assert a.counter_value("c") == 6
        assert a.histograms["h"].count == 2
        assert a.timers["t"].count == 2
        assert a.info["i"] == 4

    def test_merge_accepts_take_delta(self):
        a = self._sample()
        delta = self._sample().take()
        a.merge(delta)
        assert a.counter_value("c") == 6

    def test_take_resets_the_source(self):
        metrics = self._sample()
        delta = metrics.take()
        assert delta["counters"] == {"c": 3}
        assert not metrics  # reset
        metrics.count("c")
        assert metrics.counter_value("c") == 1

    def test_split_recording_merges_to_serial_equivalent(self):
        """Recording split across N registries then merged equals
        recording everything into one registry — the pool-aggregation
        contract."""
        serial = RunMetrics()
        workers = [RunMetrics() for _ in range(3)]
        for i in range(30):
            for target in (serial, workers[i % 3]):
                target.count("tasks")
                target.observe("size", i)
        pooled = RunMetrics()
        for worker in workers:
            pooled.merge(worker.take())
        assert pooled.deterministic_snapshot() == serial.deterministic_snapshot()


class TestSerialisation:
    def _sample(self):
        metrics = RunMetrics()
        metrics.count("engine.activations", 42)
        metrics.observe("engine.rounds", 3)
        metrics.observe("engine.rounds", 9)
        metrics.timer_add("worker.task_seconds", 0.5)
        metrics.info_add("worker.serial.tasks", 7)
        return metrics

    def test_dict_round_trip(self):
        metrics = self._sample()
        clone = RunMetrics.from_dict(metrics.to_dict())
        assert clone.to_dict() == metrics.to_dict()

    def test_pickle_round_trip(self):
        metrics = self._sample()
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone.to_dict() == metrics.to_dict()

    def test_jsonl_round_trip(self):
        metrics = self._sample()
        text = to_jsonl(metrics)
        assert len(text.splitlines()) == len(events(metrics))
        clone = from_jsonl(text)
        assert clone.to_dict() == metrics.to_dict()

    def test_jsonl_file_round_trip(self, tmp_path):
        metrics = self._sample()
        path = tmp_path / "metrics.jsonl"
        write_jsonl(metrics, path)
        assert read_jsonl(path).to_dict() == metrics.to_dict()

    def test_from_jsonl_rejects_unknown_event(self):
        with pytest.raises(ValueError):
            from_jsonl('{"event": "bogus", "name": "x"}')

    def test_summary_table_lists_every_metric(self):
        metrics = self._sample()
        table = summary_table(metrics)
        assert "run metrics" in table
        for name in (
            "engine.activations",
            "engine.rounds",
            "worker.task_seconds",
            "worker.serial.tasks",
        ):
            assert name in table

    def test_summary_table_on_empty_registry(self):
        assert "(no metrics recorded)" in summary_table(RunMetrics())
