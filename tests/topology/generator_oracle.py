"""The O(pool)-per-draw Internet-like generator, kept as an oracle.

This is :func:`repro.topology.generators.generate_internet_topology` as
it stood before the provider draws moved onto a Fenwick-tree pool: every
preferential draw re-sums the whole pool and walks it cumulatively
(:func:`_preferential_sample`), every peering candidate is filtered with
one ``graph.has_edge`` per pool member, and each of the six attach/peer
phases is spelled out.  It is the independent statement of what the fast
generator must produce — the same graph, the same AS insertion order,
the same role lists and sibling pairs, **and the same RNG state
afterwards**, i.e. the same draws in the same order
(``test_generators.py``) — and ``benchmarks/test_bench_engine_perf.py``
times the fast generator against it.
"""

from __future__ import annotations

import random

from repro.topology.asgraph import ASGraph
from repro.topology.generators import GeneratedTopology, InternetTopologyConfig


def _pick_count(rng: random.Random, bounds: tuple[int, int]) -> int:
    lo, hi = bounds
    return rng.randint(lo, hi)


def _preferential_sample(
    rng: random.Random, pool: list[int], weights: dict[int, int], k: int
) -> list[int]:
    """Sample ``k`` distinct ASes from ``pool`` weighted by ``weights``.

    Preferential attachment: the weight of an AS is 1 + its current
    customer count, reproducing the heavy-tailed provider-degree
    distribution of the real AS graph.
    """
    if k >= len(pool):
        return list(pool)
    chosen: list[int] = []
    remaining = list(pool)
    for _ in range(k):
        total = sum(1 + weights.get(asn, 0) for asn in remaining)
        point = rng.uniform(0.0, total)
        cumulative = 0.0
        picked_index = len(remaining) - 1
        for index, asn in enumerate(remaining):
            cumulative += 1 + weights.get(asn, 0)
            if point <= cumulative:
                picked_index = index
                break
        chosen.append(remaining.pop(picked_index))
    return chosen


def generate_internet_topology_oracle(
    config: InternetTopologyConfig, rng: random.Random
) -> GeneratedTopology:
    """Generate the world of ``config`` and ``rng`` draw by draw."""
    config.validate()
    graph = ASGraph()
    next_asn = config.asn_start

    def allocate(count: int) -> list[int]:
        nonlocal next_asn
        block = list(range(next_asn, next_asn + count))
        next_asn += count
        for asn in block:
            graph.add_as(asn)
        return block

    tier1 = allocate(config.num_tier1)
    tier2 = allocate(config.num_tier2)
    tier3 = allocate(config.num_tier3)
    tier4 = allocate(config.num_tier4)
    content = allocate(config.num_content)
    stubs = allocate(config.num_stubs)

    customer_counts: dict[int, int] = {}

    def attach(provider: int, customer: int) -> None:
        graph.add_p2c(provider, customer)
        customer_counts[provider] = customer_counts.get(provider, 0) + 1

    # Tier-1: full peering mesh, no providers.
    for index, a in enumerate(tier1):
        for b in tier1[index + 1 :]:
            graph.add_p2p(a, b)

    # Tier-2: multi-homed onto the Tier-1 clique.
    for asn in tier2:
        for provider in _preferential_sample(
            rng, tier1, customer_counts, _pick_count(rng, config.tier2_providers)
        ):
            attach(provider, asn)

    # Tier-2 peering mesh (sparse).
    for index, a in enumerate(tier2):
        for b in tier2[index + 1 :]:
            if rng.random() < config.tier2_peering_prob:
                graph.add_p2p(a, b)

    # Tier-3: providers from Tier-2 by preferential attachment.
    for asn in tier3:
        for provider in _preferential_sample(
            rng, tier2, customer_counts, _pick_count(rng, config.tier3_providers)
        ):
            attach(provider, asn)

    # Tier-3 IXP-style peering.
    for asn in tier3:
        want = _pick_count(rng, config.tier3_peering_degree)
        candidates = [c for c in tier3 if c != asn and not graph.has_edge(asn, c)]
        rng.shuffle(candidates)
        for peer in candidates[:want]:
            graph.add_p2p(asn, peer)

    # Tier-4: small regional transit, attached to Tier-3.
    for asn in tier4:
        for provider in _preferential_sample(
            rng, tier3, customer_counts, _pick_count(rng, config.tier4_providers)
        ):
            attach(provider, asn)
    for asn in tier4:
        want = _pick_count(rng, config.tier4_peering_degree)
        candidates = [c for c in tier4 if c != asn and not graph.has_edge(asn, c)]
        rng.shuffle(candidates)
        for peer in candidates[:want]:
            graph.add_p2p(asn, peer)

    # Content ASes: few providers, very rich peering (Facebook analogue).
    peering_pool = tier2 + tier3
    for asn in content:
        for provider in _preferential_sample(
            rng, tier1 + tier2, customer_counts, _pick_count(rng, config.content_providers)
        ):
            attach(provider, asn)
        want = min(_pick_count(rng, config.content_peering_degree), len(peering_pool))
        candidates = [c for c in peering_pool if not graph.has_edge(asn, c)]
        rng.shuffle(candidates)
        for peer in candidates[:want]:
            graph.add_p2p(asn, peer)

    # Stubs: one or two providers from the transit tiers.
    transit_pool = tier2 + tier3 + tier4
    for asn in stubs:
        for provider in _preferential_sample(
            rng, transit_pool, customer_counts, _pick_count(rng, config.stub_providers)
        ):
            attach(provider, asn)
        if rng.random() < config.stub_peering_prob:
            other = rng.choice(stubs)
            if other != asn and not graph.has_edge(asn, other):
                graph.add_p2p(asn, other)

    # Sibling pairs among the transit tiers.
    sibling_pairs: list[tuple[int, int]] = []
    pool = tier2 + tier3 + tier4 + content
    attempts = 0
    while len(sibling_pairs) < config.sibling_pairs and attempts < 50 * max(
        1, config.sibling_pairs
    ):
        attempts += 1
        a, b = rng.sample(pool, 2)
        if not graph.has_edge(a, b):
            graph.add_s2s(a, b)
            sibling_pairs.append((min(a, b), max(a, b)))

    return GeneratedTopology(
        graph=graph,
        tier1=tier1,
        tier2=tier2,
        tier3=tier3,
        tier4=tier4,
        stubs=stubs,
        content=content,
        sibling_pairs=sibling_pairs,
    )
