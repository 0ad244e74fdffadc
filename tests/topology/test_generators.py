"""Tests and properties for the Internet-like topology generator."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import TopologyError
from repro.experiments.base import build_world
from repro.topology.asgraph import ASGraph
from repro.topology.generators import (
    InternetTopologyConfig,
    PowerLawConfig,
    _ProviderPool,
    generate_internet_topology,
    generate_powerlaw_topology,
)
from repro.topology.serialization import dumps_caida
from repro.topology.tiers import tier1_ases
from tests.topology.generator_oracle import (
    _preferential_sample,
    generate_internet_topology_oracle,
)
from tests.topology.test_bulk_load import SCALE_10K

TINY = InternetTopologyConfig(
    num_tier1=3,
    num_tier2=6,
    num_tier3=12,
    num_tier4=10,
    num_stubs=40,
    num_content=2,
    sibling_pairs=2,
)


class TestConfig:
    def test_defaults_validate(self):
        InternetTopologyConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_tier1": 1},
            {"num_stubs": -1},
            {"tier2_providers": (3, 2)},
            {"tier2_peering_prob": 1.5},
            {"sibling_pairs": -2},
            {"stub_peering_prob": -0.1},
            # worlds that would not be transit-connected: a populated
            # tier with an empty provider pool, or zero providers allowed
            {"num_tier2": 0},
            {"num_tier3": 0},
            {"num_tier2": 0, "num_tier3": 0, "num_tier4": 0},
            {"tier3_providers": (0, 1)},
            {"stub_providers": (0, 2)},
            # one AS below Tier-1 cannot form a sibling pair
            {"num_tier2": 1, "num_tier3": 0, "num_tier4": 0, "num_stubs": 0, "num_content": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(TopologyError):
            InternetTopologyConfig(**kwargs).validate()

    def test_scaled_counts(self):
        scaled = InternetTopologyConfig().scaled(0.5)
        assert scaled.num_stubs == round(InternetTopologyConfig().num_stubs * 0.5)
        assert scaled.num_tier1 >= 2
        scaled.validate()

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(TopologyError):
            InternetTopologyConfig().scaled(0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_scaled_rejects_non_finite(self, factor):
        with pytest.raises(TopologyError):
            InternetTopologyConfig().scaled(factor)


class TestGeneration:
    def test_deterministic_under_seed(self):
        a = generate_internet_topology(TINY, random.Random(5))
        b = generate_internet_topology(TINY, random.Random(5))
        assert list(a.graph.edges()) == list(b.graph.edges())

    def test_population_counts(self):
        world = generate_internet_topology(TINY, random.Random(5))
        assert len(world.tier1) == TINY.num_tier1
        assert len(world.tier2) == TINY.num_tier2
        assert len(world.tier4) == TINY.num_tier4
        assert len(world.stubs) == TINY.num_stubs
        assert len(world.graph) == (
            TINY.num_tier1
            + TINY.num_tier2
            + TINY.num_tier3
            + TINY.num_tier4
            + TINY.num_stubs
            + TINY.num_content
        )

    def test_tier1_forms_clique(self):
        world = generate_internet_topology(TINY, random.Random(5))
        assert tier1_ases(world.graph) == set(world.tier1)

    def test_transit_pool_excludes_pure_stubs(self):
        world = generate_internet_topology(TINY, random.Random(5))
        transit = set(world.transit_ases)
        for stub in world.stubs:
            if stub in transit:
                # stubs never get customers
                pytest.fail(f"stub AS{stub} unexpectedly has customers")

    def test_sibling_pairs_recorded(self):
        world = generate_internet_topology(TINY, random.Random(5))
        for a, b in world.sibling_pairs:
            assert b in world.graph.siblings_of(a)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_every_as_transit_connected_to_tier1(self, seed):
        """Every AS reaches the Tier-1 clique by walking providers."""
        world = generate_internet_topology(TINY, random.Random(seed))
        graph = world.graph
        tier1 = set(world.tier1)
        for asn in graph:
            cursor = {asn}
            seen = set(cursor)
            reached = bool(cursor & tier1)
            while cursor and not reached:
                nxt = set()
                for a in cursor:
                    nxt |= set(graph.providers_of(a)) - seen
                seen |= nxt
                cursor = nxt
                reached = bool(nxt & tier1)
            assert reached or asn in tier1, f"AS{asn} cannot reach the core"

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_provider_graph_acyclic(self, seed):
        """No AS is its own transitive provider (the p2c DAG property)."""
        world = generate_internet_topology(TINY, random.Random(seed))
        graph = world.graph
        state: dict[int, int] = {}

        def visit(asn: int) -> None:
            state[asn] = 1
            for provider in graph.providers_of(asn):
                mark = state.get(provider)
                assert mark != 1, f"provider cycle through AS{provider}"
                if mark is None:
                    visit(provider)
            state[asn] = 2

        for asn in graph:
            if asn not in state:
                visit(asn)

    def test_content_ases_richly_peered(self):
        world = generate_internet_topology(TINY, random.Random(5))
        mean_content_peers = sum(
            len(world.graph.peers_of(c)) for c in world.content
        ) / len(world.content)
        mean_stub_peers = sum(
            len(world.graph.peers_of(s)) for s in world.stubs
        ) / len(world.stubs)
        assert mean_content_peers > mean_stub_peers + 3


# ----------------------------------------------------------------------
# The world is pinned: draw for draw against the O(pool) oracle, and
# byte for byte against digests recorded before the generator changed.


def _world_signature(world, rng: random.Random):
    graph = world.graph
    return (
        list(graph.edges()),
        list(graph),  # AS insertion order
        world.tier1,
        world.tier2,
        world.tier3,
        world.tier4,
        world.stubs,
        world.content,
        world.sibling_pairs,
        rng.getstate(),
    )


def _assert_same_world_as_oracle(config: InternetTopologyConfig, seed: int) -> None:
    fast_rng, slow_rng = random.Random(seed), random.Random(seed)
    fast = generate_internet_topology(config, fast_rng)
    slow = generate_internet_topology_oracle(config, slow_rng)
    assert _world_signature(fast, fast_rng) == _world_signature(slow, slow_rng)


class TestDrawForDrawOracle:
    @pytest.mark.parametrize(
        ("scale", "examples"), [(0.05, 40), (0.2, 15), (0.5, 6), (1.0, 3)]
    )
    def test_same_world_and_rng_state_as_oracle(self, scale, examples):
        config = InternetTopologyConfig().scaled(scale)

        @settings(max_examples=examples, deadline=None)
        @example(seed=7)
        @given(seed=st.integers(0, 10**6))
        def check(seed):
            _assert_same_world_as_oracle(config, seed)

        check()

    def test_worlds_without_optional_tiers_match_oracle(self):
        """Pools may be empty where no AS draws from them."""
        config = InternetTopologyConfig(
            num_tier2=0, num_tier3=0, num_tier4=0, num_stubs=0, num_content=3, sibling_pairs=1
        )
        _assert_same_world_as_oracle(config, seed=3)


class _ScriptedRng:
    """Stands in for ``random.Random`` where only ``uniform`` is drawn:
    returns the scripted points and records the totals it was offered."""

    def __init__(self, *points: float) -> None:
        self._points = list(points)
        self.totals: list[int] = []

    def uniform(self, low: float, high: int) -> float:
        point = self._points.pop(0)
        assert low == 0.0 <= point <= high
        self.totals.append(high)
        return point


def _graph_with_customers(counts: dict[int, int]) -> ASGraph:
    graph = ASGraph()
    customer = 1000
    for asn, count in counts.items():
        graph.add_as(asn)
        for _ in range(count):
            customer += 1
            graph.add_p2c(asn, customer)
    return graph


class TestProviderPool:
    #: pool order is not ASN order; weights 1 + customers = 3, 1, 5, 2, 1
    POOL = [30, 10, 50, 20, 40]
    CUSTOMERS = {30: 2, 10: 0, 50: 4, 20: 1, 40: 0}

    def _pool(self) -> _ProviderPool:
        return _ProviderPool(_graph_with_customers(self.CUSTOMERS), list(self.POOL))

    def _both(self, k: int, *points: float):
        pool = self._pool()
        fast_rng, slow_rng = _ScriptedRng(*points), _ScriptedRng(*points)
        fast = pool.sample(fast_rng, k)
        slow = _preferential_sample(slow_rng, list(self.POOL), self.CUSTOMERS, k)
        assert fast == slow
        assert fast_rng.totals == slow_rng.totals
        assert all(type(total) is int for total in fast_rng.totals)
        # zeroed weights are restored: the next call sees the full pool
        assert pool.sample(_ScriptedRng(12.0), 1) == [self.POOL[-1]]
        return fast

    def test_point_zero_is_first_as(self):
        assert self._both(1, 0.0) == [30]

    def test_point_total_is_last_as(self):
        assert self._both(1, 12.0) == [40]

    def test_point_on_prefix_boundary_picks_the_slot_it_closes(self):
        # prefix sums 3, 4, 9, 11, 12: a point of exactly 4 is AS10's,
        # exactly 9 is AS50's
        assert self._both(1, 4.0) == [10]
        assert self._both(1, 9.0) == [50]

    def test_k_covering_the_pool_draws_nothing(self):
        for k in (5, 6):
            rng = _ScriptedRng()
            assert self._pool().sample(rng, k) == self.POOL
            assert rng.totals == []

    def test_second_pick_never_lands_on_the_zeroed_slot(self):
        # first pick AS50 (point 5 of 12); of the 7 left, prefix sums are
        # 3, 4, [4], 6, 7: points 4 and 4.5 straddle the zeroed slot
        assert self._both(2, 5.0, 4.0) == [50, 10]
        assert self._both(2, 5.0, 4.5) == [50, 20]

    def test_point_zero_after_the_first_slot_was_picked(self):
        # the leading slot is zeroed: 0.0 must mean AS10, the first left
        assert self._both(2, 0.0, 0.0) == [30, 10]
        assert self._both(3, 0.0, 0.0, 0.0) == [30, 10, 50]

    def test_bump_moves_the_boundaries(self):
        pool = self._pool()
        pool.bump(10)  # weights 3, 2, 5, 2, 1
        counts = dict(self.CUSTOMERS) | {10: 1}
        for point in (0.0, 3.0, 3.5, 5.0, 5.5, 13.0):
            assert pool.sample(_ScriptedRng(point), 1) == _preferential_sample(
                _ScriptedRng(point), list(self.POOL), counts, 1
            )

    @settings(max_examples=200, deadline=None)
    @given(
        customers=st.lists(st.integers(0, 6), min_size=1, max_size=12),
        k=st.integers(0, 13),
        seed=st.integers(0, 10**6),
    )
    def test_matches_oracle_on_random_pools(self, customers, k, seed):
        asns = list(range(len(customers), 0, -1))
        counts = dict(zip(asns, customers))
        pool = _ProviderPool(_graph_with_customers(counts), list(asns))
        fast_rng, slow_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert pool.sample(fast_rng, k) == _preferential_sample(
                slow_rng, list(asns), counts, k
            )
        assert fast_rng.getstate() == slow_rng.getstate()


class TestWorldDigest:
    """``dumps_caida`` of the default world, recorded on the commit
    before the Fenwick-pool generator (scale 4.0: before the in-repo
    peering shuffle, whose 1,040-AS Tier-4 pool crosses a 1,024 block
    boundary): a generator change that moves the world fails here, by
    name, before it fails in every figure golden."""

    @pytest.mark.parametrize(
        ("scale", "ases", "edges", "digest"),
        [
            (0.2, 312, 797, "0bf9195055fc6a69dd053f1ed617cae1e8f5027912331cc3844be8871e993930"),
            (1.0, 1545, 3915, "4144b54be411de9e3dd8cc286a656bc9cc1facac0a3378a5d4224332784a4fbe"),
            (4.0, 6160, 18360, "403f1c991f6a617bdba3604af6608886cd89144315295840016f669cca8691bc"),
        ],
    )
    def test_seed7_world_is_pinned(self, scale, ases, edges, digest):
        graph = build_world(seed=7, scale=scale).graph
        assert (len(graph), graph.num_edges) == (ases, edges)
        assert hashlib.sha256(dumps_caida(graph).encode()).hexdigest() == digest


class TestPowerLawDigest:
    """The power-law generator's AS order, edge rows and sibling pairs,
    recorded before its inserts became its one duplicate check: the
    e2e benchmark's 10k shape, and a 600-AS shape whose transit peering
    repeats pairs and whose sibling draws hit a linked pair."""

    SMALL = PowerLawConfig(
        num_ases=600,
        tier1_size=8,
        transit_fraction=0.3,
        transit_providers=(1, 3),
        stub_providers=(1, 2),
        transit_peering_degree=(2, 12),
        sibling_pairs=25,
    )

    @pytest.mark.parametrize(
        ("shape", "seed", "edges", "digest"),
        [
            ("10k", 7, 44216, "755c78f9a00385ffdbc718c39a63644dcacd8a92921138f849a6cc37ea94f899"),
            ("10k", 23, 44328, "84bbd31082ab53133a71074e6f3f5ba251f5fadf0f7fd52f366306a38030bc1a"),
            ("600", 7, 1588, "eb0fc27e3d27a35e97d2d49ef4514b9136a9e5c103570d4f19734583c64ec887"),
            ("600", 23, 1639, "33301de9096203d1d0df66be0412dd92786383658dcf9ceded46383dfb86d73f"),
        ],
    )
    def test_world_is_pinned(self, shape, seed, edges, digest):
        config = SCALE_10K if shape == "10k" else self.SMALL
        world = generate_powerlaw_topology(config, seed=seed)
        graph = world.graph
        assert graph.num_edges == edges
        pinned = hashlib.sha256(np.asarray(list(graph), dtype=np.int64).tobytes())
        for column in graph.edge_columns():
            pinned.update(np.asarray(column, dtype=np.int64).tobytes())
        pinned.update(repr(world.sibling_pairs).encode())
        assert pinned.hexdigest() == digest
