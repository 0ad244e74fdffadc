"""A fleet sweep is a bisection (DESIGN decision 27).

fig13 finds each attack's smallest detecting top-d fleet by bisecting
over the sorted, de-duplicated fleet sizes, once per series (the
streaming search starts where the batch one ended).  Its rows
and summary must equal the per-count oracle (``fig13_oracle.py``) —
for any seed and scale, for counts the world cannot hold, for unsorted
or duplicated counts, and for samples where no attack or every attack
is detected.  The bisection is exact because detection is monotone in
the nested top-degree fleet, which the property below checks directly
for the batch timing (both ``attacker_feeds_collector`` values) and the
streaming detector.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.interception import simulate_interception
from repro.bgp.collectors import RouteCollector
from repro.detection.alarms import Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.monitors import top_degree_monitors
from repro.detection.streaming import StreamingDetector, attack_update_stream
from repro.detection.timing import detection_timing
from repro.exceptions import ExperimentError
from repro.experiments.base import build_world
from repro.experiments.fig13_detection_accuracy import Fig13Config, _first_detecting
from repro.experiments.fig13_detection_accuracy import run as run_fig13
from repro.telemetry.metrics import RunMetrics
from tests.experiments.fig13_oracle import per_count_fig13


def _assert_matches_oracle(config: Fig13Config):
    result = run_fig13(config)
    rows, summary = per_count_fig13(config)
    assert result.rows == rows
    assert result.summary == summary
    assert list(result.summary) == list(summary)
    return result


@pytest.mark.parametrize("scale", [0.25, 1.0])
@pytest.mark.parametrize("seed", [1, 4, 7, 11, 23])
def test_rows_and_summary_equal_the_per_count_oracle(seed, scale):
    _assert_matches_oracle(Fig13Config(seed=seed, scale=scale, pairs=40))


def test_counts_the_world_cannot_hold_are_skipped_as_before():
    result = _assert_matches_oracle(
        Fig13Config(scale=0.1, pairs=10, monitor_counts=(10, 50, 100, 10_000))
    )
    assert [row[0] for row in result.rows] == [10, 50, 100]


def test_no_count_the_world_can_hold_gives_no_rows():
    result = _assert_matches_oracle(
        Fig13Config(scale=0.1, pairs=10, monitor_counts=(10_000,))
    )
    assert result.rows == []


def test_unsorted_and_duplicated_counts_keep_config_order():
    counts = (150, 10, 70, 10, 300, 30, 150)
    result = _assert_matches_oracle(
        Fig13Config(seed=4, scale=0.25, pairs=20, monitor_counts=counts)
    )
    assert [row[0] for row in result.rows] == list(counts)


def test_a_single_monitor_detects_no_attack():
    """Every alarm needs a witness besides the changed monitor."""
    result = _assert_matches_oracle(
        Fig13Config(scale=0.25, pairs=10, monitor_counts=(1, 2))
    )
    assert result.rows[0][1:] == (0, 0.0, 0.0)


def test_every_attack_detected():
    """Seed 2's eight pairs are all caught by 150 monitors, in both
    series; seed 4's streaming series catches attacks its batch series
    misses, so the two bisections are decided apart."""
    every = _assert_matches_oracle(
        Fig13Config(seed=2, scale=0.25, pairs=8, monitor_counts=(1, 30, 150, 300))
    )
    assert every.rows[-2][2:] == every.rows[-1][2:] == (100.0, 100.0)
    apart = _assert_matches_oracle(
        Fig13Config(seed=4, scale=0.25, pairs=8, monitor_counts=(1, 30, 150, 300))
    )
    assert any(batch < streaming for _, _, batch, streaming in apart.rows)


def test_a_count_below_one_is_refused():
    with pytest.raises(ExperimentError, match="monitor counts must be positive"):
        run_fig13(Fig13Config(scale=0.1, pairs=5, monitor_counts=(10, 0)))


@pytest.mark.parametrize("size", range(7))
def test_the_search_finds_the_first_detecting_fleet_from_any_guess(size):
    """Every monotone outcome over ``size`` fleets, every guess: the
    guess orders the probes, never the answer."""
    fleets = list(range(size))
    for first in range(size + 1):
        for guess in range(size + 1):
            probed = []

            def probe(fleet):
                probed.append(fleet)
                return fleet >= first

            assert _first_detecting(fleets, probe, guess) == first
            assert len(probed) == len(set(probed))
            if guess == first:
                assert len(probed) <= 2


def test_telemetry_counts_the_probes_not_the_grid():
    """``detection.timings`` counts the batch bisection's probes, at
    most ``len(sizes).bit_length()`` per attack, and the streaming
    batches the streaming search's, where the per-count loop ran one of
    each per fleet size."""
    config = Fig13Config(scale=0.25, pairs=20)
    metrics = RunMetrics()
    result = run_fig13(config, metrics=metrics)
    attacks = int(result.summary["effective_attacks"])
    sizes = len(result.rows)
    probes = attacks * sizes.bit_length()
    assert attacks <= metrics.counter_value("detection.timings") <= probes < attacks * sizes
    assert attacks <= metrics.counter_value("detection.pipeline.batches") < attacks * sizes


# ----------------------------------------------------------------------
# Why the bisection is exact: detection is monotone in the nested fleet.


@pytest.fixture(scope="module")
def fig13_world():
    """fig13's substrate at half scale: enough ASes for a 400-monitor
    fleet."""
    return build_world(seed=7, scale=0.5)


def _stream_detects(result, collector, detector, feeds) -> bool:
    streaming = StreamingDetector(detector)
    streaming.prime(result.monitor_views(collector, attacker_feeds_collector=feeds)[0])
    stream = attack_update_stream(result, collector, attacker_feeds_collector=feeds)
    return bool(streaming.consume_all(stream))


@settings(max_examples=25, deadline=None)
@given(
    pick=st.integers(0, 10**6),
    fleets=st.lists(st.integers(1, 400), min_size=2, max_size=2),
    min_confidence=st.sampled_from(Confidence),
    feeds=st.booleans(),
)
def test_detection_at_a_fleet_implies_detection_at_every_larger_one(
    fig13_world, pick, fleets, min_confidence, feeds
):
    world = fig13_world
    graph = world.graph
    rng = random.Random(pick)
    attacker = rng.choice(world.topology.transit_ases)
    victim = rng.choice([a for a in graph.ases if a != attacker])
    result = simulate_interception(
        world.engine, victim=victim, attacker=attacker, origin_padding=rng.randint(2, 5)
    )
    small, large = sorted(fleets)
    ranked = top_degree_monitors(graph, large)
    detector = ASPPInterceptionDetector(graph)
    options = dict(min_confidence=min_confidence, attacker_feeds_collector=feeds)
    collectors = [RouteCollector(graph, ranked[:size]) for size in (small, large)]

    batch = [detection_timing(result, c, detector, **options).detected for c in collectors]
    assert batch[1] or not batch[0]
    stream = [_stream_detects(result, c, detector, feeds) for c in collectors]
    assert stream[1] or not stream[0]


def test_one_attack_is_held_at_a_time(monkeypatch):
    """Each effective attack is detected as soon as it is simulated and
    then dropped: when a simulation starts, at most the previous result
    is still alive."""
    import gc
    import weakref

    from repro.experiments import fig13_detection_accuracy as fig13

    # results are unhashable dataclasses: key them by simulation number
    alive = weakref.WeakValueDictionary()
    most_alive = []
    simulate = fig13.simulate_interception

    def tracked(*args, **kwargs):
        gc.collect()
        most_alive.append(len(alive))
        result = simulate(*args, **kwargs)
        alive[len(most_alive)] = result
        return result

    monkeypatch.setattr(fig13, "simulate_interception", tracked)
    result = run_fig13(Fig13Config(scale=0.25, pairs=12))
    assert result.summary["effective_attacks"] >= 3
    assert len(most_alive) == 12
    assert max(most_alive) <= 1
