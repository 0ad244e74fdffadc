"""The outcome row read against the world it stands in for.

``PropagationOutcome.route_of`` reifies one AS's route from the attached
compiled state; collectors and detectors live on it so a detection cell
never builds ``best``.  It must equal ``best.get`` for every AS, on
every kind of state an outcome can carry — a cold run's
``CompiledState`` (the loop's or a kernel column's), a warm run's copied
arrays — and fall back to the world where there is no compiled state
(the reference oracle's eager outcomes).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings

from repro.attack.interception import simulate_interception
from repro.bgp.collectors import RouteCollector
from repro.bgp.engine import PropagationEngine, PropagationOutcome
from repro.bgp.prepending import PrependingPolicy
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.monitors import top_degree_monitors
from repro.detection.streaming import attack_update_stream
from repro.detection.timing import detection_timing
from repro.runner import BaselineCache

from tests.bgp.loop_oracle import LoopEngine
from tests.bgp.reference_engine import ReferenceEngine
from tests.strategies import draw_victim_then_attacker, paddings, seeds, tiny_world

#: engine factories: the loop by name, the engine as shipped (kernel
#: cold runs), the reference interpreter
BACKENDS = [
    pytest.param(LoopEngine, id="compiled"),
    pytest.param(PropagationEngine, id="vectorized"),
    pytest.param(ReferenceEngine, id="reference"),
]


def _rows_then_world(outcome: PropagationOutcome, ases) -> None:
    """Read every row first — while the outcome is still lazy — then
    build the world and compare."""
    lazy = outcome._best is None and outcome.compiled_state is not None
    rows = {asn: outcome.route_of(asn) for asn in ases}
    if lazy:
        assert outcome._best is None, "a row read built the world"
    for asn, route in rows.items():
        assert route == outcome.best.get(asn), f"row of AS{asn} diverges"
    # Materialised now: the same call answers from the world.
    assert all(outcome.route_of(asn) is outcome.best.get(asn) for asn in ases)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=12, deadline=None)
@given(seed=seeds, padding=paddings(2, 5))
def test_route_of_equals_best(backend, seed, padding):
    world, rng = tiny_world(seed)
    victim, attacker = draw_victim_then_attacker(world, rng)
    engine = backend(world.graph)
    prepending = PrependingPolicy.uniform_origin(victim, padding)
    ases = world.graph.ases + [max(world.graph.ases) + 1]  # and one stranger

    cold = engine.propagate(victim, prepending=prepending)
    warm = simulate_interception(
        engine, victim=victim, attacker=attacker, origin_padding=padding,
        baseline=engine.propagate(victim, prepending=prepending),
    ).attacked
    for outcome in (cold, warm):
        _rows_then_world(outcome, ases)


def test_unpickled_outcome_answers_from_its_world(diamond_graph):
    outcome = PropagationEngine(diamond_graph).propagate(diamond_graph.ases[-1])
    clone = pickle.loads(pickle.dumps(outcome))
    assert clone.compiled_state is None
    for asn in diamond_graph.ases:
        assert clone.route_of(asn) == outcome.route_of(asn)
        assert clone.path_of(asn) == outcome.path_of(asn)


def _detection_cells(small_world, backend):
    """What a detector concludes from each engine's rows: the timing
    and the update stream of a few attacks, cached baselines included."""
    graph = small_world.graph
    engine = backend(graph)
    cache = BaselineCache(engine)
    collector = RouteCollector(graph, top_degree_monitors(graph, 30))
    detector = ASPPInterceptionDetector(graph)
    cells = []
    for attacker, victim in zip(small_world.transit_ases[::5], graph.ases[3::31]):
        prepending = PrependingPolicy.uniform_origin(victim, 3)
        result = simulate_interception(
            engine, victim=victim, attacker=attacker, origin_padding=3,
            baseline=cache.baseline(victim, prepending=prepending),
        )
        cells.append(
            (
                detection_timing(result, collector, detector),
                detection_timing(
                    result, collector, detector, attacker_feeds_collector=False
                ),
                attack_update_stream(result, collector),
            )
        )
    return cells


@pytest.mark.parametrize("backend", BACKENDS[1:])
def test_detection_cells_identical_on_every_engine(small_world, backend):
    assert _detection_cells(small_world, backend) == _detection_cells(
        small_world, LoopEngine
    )
