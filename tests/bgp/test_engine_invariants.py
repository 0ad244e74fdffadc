"""Global invariants of converged propagation outcomes.

Three families of checks, each on randomized generated topologies:

* **route-soundness** — every selected path is valley-free, loop-free
  (up to prepending runs), and actually terminates at the origin;
* **order-independence** — lifo and random worklist disciplines
  converge to the engine's ``best``/``adj_rib_in`` fixpoint
  (Gao-Rexford stability), differing at most in adoption-round stamps;
* **fast-path equivalence** — the loop's incremental O(1) decision
  shortcut produces outcomes bit-identical to the full Adj-RIB-in
  rescan (``incremental=False``), including under prepending and
  attacks.

The engine only runs the FIFO fast path.  Order-independence is a
property of the model, so the other disciplines are the reference
interpreter's (``reference_engine.py``); the loop is reached by name
(``loop_oracle.py``) where its cold stamps matter.
"""

from __future__ import annotations

import random

import pytest

from repro.attack.interception import simulate_interception
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology
from tests.bgp.loop_oracle import loop_propagate
from tests.bgp.reference_engine import ReferenceEngine
from tests.strategies import live_offers
from tests.topology.adjacency_oracle import is_path_valley_free

INVARIANT_CONFIG = InternetTopologyConfig(
    num_tier1=3,
    num_tier2=6,
    num_tier3=12,
    num_tier4=10,
    num_stubs=40,
    num_content=2,
    sibling_pairs=2,
)

WORLD_SEEDS = (3, 11, 42)


def _world(seed: int):
    return generate_internet_topology(INVARIANT_CONFIG, random.Random(seed))


def _origins(world, rng: random.Random) -> list[int]:
    """A tier-1 AS, a transit AS and a random AS — distinct if possible."""
    graph = world.graph
    picks = [world.tier1[0], rng.choice(world.transit_ases), rng.choice(graph.ases)]
    return sorted(set(picks))


def _collapse(path: tuple[int, ...]) -> list[int]:
    """Drop consecutive duplicates (prepending runs)."""
    hops: list[int] = []
    for asn in path:
        if not hops or hops[-1] != asn:
            hops.append(asn)
    return hops


def _check_soundness(graph, outcome) -> None:
    origin = outcome.origin
    assert outcome.best[origin] is not None and outcome.best[origin].path == ()
    for asn, route in outcome.best.items():
        if route is None or asn == origin:
            continue
        chain = (asn,) + route.path
        collapsed = _collapse(chain)
        # Loop-free: no ASN appears twice once prepending runs collapse.
        assert len(collapsed) == len(set(collapsed)), f"loop in path at AS{asn}"
        # The path really leads to the origin over existing edges.
        assert collapsed[-1] == origin, f"path at AS{asn} does not end at origin"
        assert is_path_valley_free(graph, chain), f"valley in path at AS{asn}"
        # The first hop is the neighbour the route was learned from.
        assert route.learned_from == _collapse(route.path)[0]


@pytest.mark.parametrize("seed", WORLD_SEEDS)
@pytest.mark.parametrize("padding", (1, 3))
def test_converged_routes_are_sound(seed, padding):
    world = _world(seed)
    engine = PropagationEngine(world.graph)
    rng = random.Random(seed * 7 + 1)
    for origin in _origins(world, rng):
        outcome = engine.propagate(
            origin, prepending=PrependingPolicy.uniform_origin(origin, padding)
        )
        _check_soundness(world.graph, outcome)


@pytest.mark.parametrize("seed", WORLD_SEEDS)
def test_attacked_routes_stay_sound(seed):
    """Origin-strip interception rewrites padded runs but never invents
    AS-level hops, so attacked outcomes keep the soundness invariants."""
    world = _world(seed)
    engine = PropagationEngine(world.graph)
    attacker, victim = world.tier1[0], world.tier1[1]
    result = simulate_interception(
        engine, victim=victim, attacker=attacker, origin_padding=3
    )
    _check_soundness(world.graph, result.baseline)
    _check_soundness(world.graph, result.attacked)


@pytest.mark.parametrize("seed", WORLD_SEEDS)
@pytest.mark.parametrize("padding", (1, 4))
def test_activation_orders_reach_same_fixpoint(seed, padding):
    """fifo/lifo/random disciplines agree on best routes and Adj-RIBs-in
    (the fixpoint is unique under valley-free policies); only the
    logical clock is order-dependent."""
    world = _world(seed)
    engine = PropagationEngine(world.graph)
    oracle = ReferenceEngine(world.graph)
    rng = random.Random(seed + 99)
    for origin in _origins(world, rng):
        prepending = PrependingPolicy.uniform_origin(origin, padding)
        reference = engine.propagate(origin, prepending=prepending)
        for activation in ("lifo", "random"):
            other = oracle.propagate(
                origin,
                prepending=prepending,
                activation=activation,
                activation_rng=random.Random(seed),
            )
            assert other.best == reference.best, f"{activation} diverged at AS{origin}"
            assert live_offers(other) == live_offers(reference)


@pytest.mark.parametrize("seed", WORLD_SEEDS)
def test_incremental_fast_path_matches_full_rescan(seed):
    """The incremental decision shortcut is bit-identical to rerunning
    the full Adj-RIB-in scan on every change — including rounds and
    adoption stamps, because the activation trace itself is identical."""
    world = _world(seed)
    engine = PropagationEngine(world.graph)
    oracle = ReferenceEngine(world.graph)
    rng = random.Random(seed * 13)
    for origin in _origins(world, rng):
        for padding in (1, 3):
            prepending = PrependingPolicy.uniform_origin(origin, padding)
            fast = loop_propagate(engine, origin, prepending=prepending)
            full = oracle.propagate(origin, prepending=prepending, incremental=False)
            assert fast == full
            assert fast.adoption_round == full.adoption_round
            assert fast.rounds == full.rounds


def test_incremental_fast_path_matches_under_attack(small_world):
    """Equivalence must also hold on warm-started attack propagation,
    where the fast path sees withdrawn and modified offers."""
    graph = small_world.graph
    engine = PropagationEngine(graph)
    attacker, victim = small_world.tier1[0], small_world.tier1[1]
    prepending = PrependingPolicy.uniform_origin(victim, 3)
    baseline = engine.propagate(victim, prepending=prepending)
    result = simulate_interception(
        engine,
        victim=victim,
        attacker=attacker,
        origin_padding=3,
        prepending=prepending,
        baseline=baseline,
    )
    from repro.attack.interception import ASPPInterceptionAttack

    attack = ASPPInterceptionAttack(attacker=attacker, victim=victim)
    full = ReferenceEngine(graph).propagate(
        victim,
        prepending=prepending,
        modifiers={attacker: attack.modifier()},
        warm_start=baseline,
        incremental=False,
    )
    assert result.attacked == full
