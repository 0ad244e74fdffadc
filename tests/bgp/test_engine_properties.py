"""Property-based tests: engine vs the three-phase oracle, and global
routing invariants on randomly generated topologies."""

from __future__ import annotations

from hypothesis import given, settings

from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.uphill import three_phase_routes
from tests.strategies import TINY_NO_SIBLINGS, TINY_WITH_SIBLINGS, paddings, seeds, tiny_world
from tests.topology.adjacency_oracle import is_path_valley_free


@settings(max_examples=20, deadline=None)
@given(seed=seeds, padding=paddings())
def test_engine_agrees_with_three_phase_oracle(seed, padding):
    """On sibling-free topologies both algorithms select routes of the
    same preference class and length at every AS."""
    world, rng = tiny_world(seed, TINY_NO_SIBLINGS)
    graph = world.graph
    engine = PropagationEngine(graph)
    origin = rng.choice(graph.ases)
    prepending = PrependingPolicy.uniform_origin(origin, padding)

    outcome = engine.propagate(origin, prepending=prepending)
    oracle = three_phase_routes(graph, origin, prepending=prepending)

    for asn in graph.ases:
        route = outcome.best.get(asn)
        reference = oracle.get(asn)
        assert (route is None) == (reference is None), f"reachability at AS{asn}"
        if route is not None:
            assert route.pref is reference.pref, f"class at AS{asn}"
            assert len(route.path) == reference.length, f"length at AS{asn}"


@settings(max_examples=15, deadline=None)
@given(seed=seeds, padding=paddings(max_value=4))
def test_every_selected_route_is_valley_free(seed, padding):
    """No AS ever selects a route whose path violates Gao-Rexford
    export economics (sibling hops transparent, prepending collapsed)."""
    world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
    graph = world.graph
    engine = PropagationEngine(graph)
    origin = rng.choice(graph.ases)
    outcome = engine.propagate(
        origin, prepending=PrependingPolicy.uniform_origin(origin, padding)
    )
    for asn, route in outcome.best.items():
        if route is None or asn == origin:
            continue
        full_path = route.path
        assert full_path[-1] == origin
        assert is_path_valley_free(graph, full_path), (
            f"AS{asn} selected non-valley-free path {full_path}"
        )
        assert asn not in full_path, f"loop at AS{asn}"


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_per_neighbor_padding_respected_at_first_hop(seed):
    """The origin's per-neighbour padding shows up verbatim in the path
    tail of every route whose first hop from the origin is that
    neighbour."""
    world, rng = tiny_world(seed, TINY_NO_SIBLINGS)
    graph = world.graph
    origin = rng.choice([a for a in graph.ases if len(graph.neighbors_of(a)) >= 2])
    neighbors = sorted(graph.neighbors_of(origin))
    prepending = PrependingPolicy()
    expected = {}
    for index, neighbor in enumerate(neighbors):
        count = 1 + (index % 3)
        prepending.set_padding(origin, neighbor, count)
        expected[neighbor] = count
    outcome = PropagationEngine(graph).propagate(origin, prepending=prepending)
    from repro.bgp.aspath import collapse_prepending, padding_of_origin

    for asn, route in outcome.best.items():
        if route is None or asn == origin or not route.path:
            continue
        core = collapse_prepending(route.path)
        first_hop = core[-2] if len(core) >= 2 else asn
        assert padding_of_origin(route.path) == expected[first_hop], (
            f"AS{asn} path {route.path} first hop {first_hop}"
        )
