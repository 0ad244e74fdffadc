"""The RouteViews-scale churn synthesizer."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.experiments.base import build_world
from repro.measurement.churn import ChurnConfig, synthesize_churn_stream
from tests.measurement.churn_oracle import oracle_churn_stream

SMALL = dict(seed=5, scale=0.2, monitors=15, prefixes=2, scenarios=2, updates=300)


@pytest.fixture(scope="module")
def stream():
    return synthesize_churn_stream(ChurnConfig(**SMALL))


def test_deterministic(stream):
    again = synthesize_churn_stream(ChurnConfig(**SMALL))
    assert again.messages == stream.messages
    assert again.victim == stream.victim
    assert again.attacker == stream.attacker


def test_sequence_stamps_are_dense(stream):
    assert [update.seq for update in stream.messages] == list(range(stream.updates))


def test_reaches_target_length(stream):
    assert stream.updates >= SMALL["updates"]


def test_baselines_cover_every_streamed_prefix(stream):
    streamed = {update.message.prefix for update in stream.messages}
    assert streamed <= set(stream.baselines)
    for prefix, view in stream.baselines.items():
        assert view.prefix == prefix
        assert set(view.routes) == set(stream.collector.monitors)


def test_attack_burst_present_and_contiguous(stream):
    victim_prefix = stream.attack_result.baseline.prefix
    positions = [
        i
        for i, update in enumerate(stream.messages)
        if update.message.prefix == victim_prefix
    ]
    assert positions, "the interception burst must reach the monitors"
    assert positions == list(range(positions[0], positions[-1] + 1))
    # Spliced mid-stream, not appended: churn continues after the burst.
    assert positions[-1] < stream.updates - 1


def test_no_attack_mode(monkeypatch):
    config = ChurnConfig(**{**SMALL, "attack": False})
    stream = synthesize_churn_stream(config)
    assert stream.victim is None
    assert stream.attacker is None
    assert stream.attack_result is None
    prefixes = {update.message.prefix for update in stream.messages}
    assert all(prefix.startswith("10.") for prefix in prefixes)


def test_backup_padding_changes_the_mix():
    plain = synthesize_churn_stream(ChurnConfig(**SMALL))
    padded = synthesize_churn_stream(
        ChurnConfig(**{**SMALL, "backup_padding": 4})
    )
    assert plain.messages != padded.messages


def test_plain_messages_strip_stamps(stream):
    plain = stream.plain_messages()
    assert len(plain) == stream.updates
    assert plain == [update.message for update in stream.messages]


def test_world_reuse():
    first = synthesize_churn_stream(ChurnConfig(**SMALL))
    reused = synthesize_churn_stream(ChurnConfig(**SMALL), world=first.world)
    assert reused.messages == first.messages


@pytest.mark.parametrize(
    "overrides",
    [{"updates": -1}, {"prefixes": 0}],
)
def test_validation(overrides):
    with pytest.raises(SimulationError):
        synthesize_churn_stream(ChurnConfig(**{**SMALL, **overrides}))


@pytest.mark.parametrize("scenarios", [0, -1])
def test_scenarios_below_one_is_rejected_by_name(scenarios):
    """Not "no failure scenario changed any monitor route" (which blames
    the topology), and not ``rng.sample``'s raw ValueError."""
    with pytest.raises(SimulationError, match="scenarios"):
        synthesize_churn_stream(ChurnConfig(**{**SMALL, "scenarios": scenarios}))


def test_feed_streams_partition_the_whole_stream(stream):
    for feeds in (1, 3, 5):
        split = stream.feed_streams(feeds)
        assert len(split) == feeds
        recombined = sorted(
            (u for feed in split for u in feed), key=lambda u: u.seq
        )
        assert recombined == stream.messages


# -- a failed link as two import filters vs a failed link as a new graph --------


def _rows(stream):
    return [
        (u.seq, u.message.monitor, u.message.prefix, u.message.path, u.message.withdrawn)
        for u in stream.messages
    ]


def _observable(synthesize, config, world):
    """Everything a consumer can see of one synthesis (or its refusal)."""
    try:
        stream = synthesize(config, world=world)
    except SimulationError as error:
        return ("refused", str(error))
    return (
        _rows(stream),
        stream.baselines,
        stream.victim,
        stream.attacker,
        stream.attack_start_seq,
        stream.attack_end_seq,
    )


@pytest.mark.parametrize("attack", [True, False])
@pytest.mark.parametrize("backup_padding", [None, 4])
@pytest.mark.parametrize("scale", [0.2, 0.5, 1.0])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_filtered_link_failures_match_the_graph_copy_oracle(
    scale, backup_padding, attack, seed
):
    config = ChurnConfig(
        seed=seed,
        scale=scale,
        monitors=30,
        prefixes=2,
        scenarios=3,
        updates=300,
        backup_padding=backup_padding,
        attack=attack,
    )
    world = build_world(seed=seed, scale=scale)
    assert _observable(synthesize_churn_stream, config, world) == _observable(
        oracle_churn_stream, config, world
    )


@pytest.mark.parametrize(
    "updates, count, digest",
    [
        (200_000, 200_007, "8dbd2fac4cd0b34570482ac814e0ea194423c6d62acf4606b311a53df1fec567"),
        (40_000, 40_025, "7fa2ffbf8cdbfa27526851ece5f9c1824573ba75fb03fd6633b054615933fe1f"),
    ],
)
def test_benchmark_scale_stream_is_pinned(updates, count, digest):
    """sha256 of the message rows, recorded at the last commit where a
    link failure was a graph copy: a synthesizer change that moves the
    stream fails here, by name, before ``benchmarks/e2e/expected.json``."""
    stream = synthesize_churn_stream(
        ChurnConfig(seed=7, monitors=200, prefixes=4, updates=updates)
    )
    assert stream.updates == count
    assert hashlib.sha256(repr(_rows(stream)).encode()).hexdigest() == digest
    assert (stream.victim, stream.attacker) == (186, 13)
