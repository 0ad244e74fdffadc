"""A detection timing is decided by ``raises_alarm``; its alarms are
built on first read.

``detection_timing`` decides each changed monitor with the one-pass
Figure-4 predicate and keeps the view pair; ``DetectionTiming.alarms``
enumerates the alarming monitors' ``inspect_change`` alarms when first
read.  Against the eager oracle (``timing_oracle.py``) every public
value must be equal — fields, the alarm tuple and its order, ``==``,
``hash``, ``repr``, a pickle round trip — and so must every counter an
enabled registry records.  Nothing reads an alarm that nobody asked
for: fig14 builds none, fig13 only its streaming series'.
"""

from __future__ import annotations

import pickle
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.interception import simulate_interception
from repro.bgp.collectors import RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.detection.alarms import Alarm, Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.monitors import top_degree_monitors
from repro.detection.timing import detection_timing
from repro.experiments.base import build_world
from repro.experiments.fig13_detection_accuracy import Fig13Config
from repro.experiments.fig13_detection_accuracy import run as run_fig13
from repro.experiments.fig14_pollution_before_detection import Fig14Config
from repro.experiments.fig14_pollution_before_detection import run as run_fig14
from repro.telemetry.metrics import RunMetrics
from tests.detection.timing_oracle import eager_detection_timing

@contextmanager
def alarms_built():
    """Every :class:`Alarm` constructed inside the block."""
    built: list[Alarm] = []
    init = Alarm.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    Alarm.__init__ = counted
    try:
        yield built
    finally:
        Alarm.__init__ = init


def _detection_metrics(metrics: RunMetrics) -> dict:
    snapshot = metrics.deterministic_snapshot()
    return {
        section: {
            name: value
            for name, value in values.items()
            if name.startswith("detection.") or name == "collector.rows"
        }
        for section, values in snapshot.items()
    }


@pytest.fixture(scope="module")
def fig13_world():
    """fig13's substrate at half scale: enough ASes for a 400-monitor
    fleet."""
    return build_world(seed=7, scale=0.5)


@settings(max_examples=25, deadline=None)
@given(
    pick=st.integers(0, 10**6),
    fleet=st.integers(10, 400),
    min_confidence=st.sampled_from(Confidence),
    feeds=st.booleans(),
)
def test_lazy_timing_equals_the_eager_oracle(fig13_world, pick, fleet, min_confidence, feeds):
    world = fig13_world
    graph = world.graph
    rng = random.Random(pick)
    attacker = rng.choice(world.topology.transit_ases)
    victim = rng.choice([a for a in graph.ases if a != attacker])
    result = simulate_interception(
        world.engine, victim=victim, attacker=attacker, origin_padding=rng.randint(2, 5)
    )
    monitors = top_degree_monitors(graph, fleet)
    detector = ASPPInterceptionDetector(graph)
    options = dict(min_confidence=min_confidence, attacker_feeds_collector=feeds)

    expected_metrics = RunMetrics()
    expected = eager_detection_timing(
        result, RouteCollector(graph, monitors), detector,
        metrics=expected_metrics, **options,
    )
    with alarms_built() as built:
        timing = detection_timing(result, RouteCollector(graph, monitors), detector, **options)
    assert built == []  # decided, not enumerated

    assert timing.detected == expected.detected
    assert timing.detection_round == expected.detection_round
    assert timing.polluted_before_detection == expected.polluted_before_detection
    assert timing.polluted_total == expected.polluted_total
    assert timing.num_ases == expected.num_ases
    assert timing.alarms == expected.alarms
    assert timing.alarms is timing.alarms  # built once
    assert timing == expected and hash(timing) == hash(expected)
    assert repr(timing) == repr(expected)
    assert pickle.loads(pickle.dumps(timing)) == expected

    # An enabled registry counts the alarms: it reads them, and every
    # detection.* and collector.rows value is the oracle's.
    metrics = RunMetrics()
    metered = detection_timing(
        result, RouteCollector(graph, monitors), detector, metrics=metrics, **options
    )
    assert _detection_metrics(metrics) == _detection_metrics(expected_metrics)
    assert metered == expected


def test_a_timing_is_frozen(figure3_graph):
    result = simulate_interception(
        PropagationEngine(figure3_graph), victim=100, attacker=6, origin_padding=3
    )
    timing = detection_timing(
        result, RouteCollector(figure3_graph, [2, 5]), ASPPInterceptionDetector(figure3_graph)
    )
    with pytest.raises(AttributeError):
        timing.alarms = ()
    with pytest.raises(AttributeError):
        timing.detected = False
    assert timing.detected and timing.alarms


# ----------------------------------------------------------------------
# What an artefact builds.


def test_fig14_builds_no_alarm():
    with alarms_built() as built:
        run_fig14(Fig14Config(scale=0.25, pairs=10))
    assert built == []


def test_fig13_builds_only_its_streaming_alarms():
    with alarms_built() as built:
        run_fig13(Fig13Config(scale=0.25, pairs=10))
    metrics = RunMetrics()
    run_fig13(Fig13Config(scale=0.25, pairs=10), metrics=metrics)
    assert len(built) == metrics.counter_value("detection.pipeline.alarms") > 0
