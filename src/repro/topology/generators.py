"""Synthetic Internet-like AS topology generator.

The paper simulates on an AS graph inferred from RouteViews/RIPE tables.
Without network access we generate topologies with the same structural
properties the paper's results depend on:

* a fully peer-meshed **Tier-1 clique** at the top (no providers);
* **transit tiers** below it, attached by preferential attachment so the
  customer-degree distribution is heavy-tailed like the real AS graph;
* widely **multi-homed stubs** at the edge;
* **content ASes** (the Facebook analogue): stub-like origin ASes with
  unusually rich peering — the structure behind the paper's Figure 10
  and Figure 11 scenarios;
* occasional **sibling pairs** (one organisation, two ASNs) — the
  mechanism the paper identifies behind the surprisingly wide pollution
  in Figure 11;
* IXP-style peering inside and across the lower tiers.

The generator is fully deterministic given a :class:`random.Random`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.exceptions import DuplicateEdgeError, TopologyError
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship
from repro.utils.rand import shuffle

__all__ = [
    "InternetTopologyConfig",
    "GeneratedTopology",
    "PowerLawConfig",
    "generate_internet_topology",
    "generate_powerlaw_topology",
]


@dataclass(frozen=True)
class InternetTopologyConfig:
    """Knobs for :func:`generate_internet_topology`.

    The defaults produce roughly 1,500 ASes and 4,000 links — large
    enough for tier structure and rich peering to matter, small enough
    that a full 200-pair hijack campaign runs in seconds.  Experiments
    that need a bigger Internet scale the counts up uniformly.
    """

    num_tier1: int = 10
    num_tier2: int = 60
    num_tier3: int = 200
    #: small regional transit ASes (the paper's "Tier-4 and Tier-5")
    num_tier4: int = 260
    num_stubs: int = 1000
    num_content: int = 15

    #: inclusive (min, max) number of Tier-1 providers per Tier-2 AS
    tier2_providers: tuple[int, int] = (2, 3)
    #: inclusive (min, max) number of Tier-2 providers per Tier-3 AS
    tier3_providers: tuple[int, int] = (1, 3)
    #: inclusive (min, max) number of Tier-3 providers per Tier-4 AS
    tier4_providers: tuple[int, int] = (1, 2)
    #: inclusive (min, max) number of providers per stub (multi-homing)
    stub_providers: tuple[int, int] = (1, 2)
    #: inclusive (min, max) number of providers per content AS
    content_providers: tuple[int, int] = (2, 3)

    #: probability that any two Tier-2 ASes peer
    tier2_peering_prob: float = 0.12
    #: inclusive (min, max) number of IXP-style peers per Tier-3 AS
    tier3_peering_degree: tuple[int, int] = (0, 4)
    #: inclusive (min, max) number of IXP-style peers per Tier-4 AS
    tier4_peering_degree: tuple[int, int] = (0, 2)
    #: inclusive (min, max) number of peers per content AS (rich peering)
    content_peering_degree: tuple[int, int] = (15, 60)
    #: fraction of stubs that additionally peer with one other stub
    stub_peering_prob: float = 0.02

    #: number of sibling pairs to create among Tier-2/Tier-3 ASes
    sibling_pairs: int = 8

    #: first AS number to allocate
    asn_start: int = 1

    def validate(self) -> None:
        if self.num_tier1 < 2:
            raise TopologyError("a Tier-1 clique needs at least 2 ASes")
        for name in ("num_tier2", "num_tier3", "num_tier4", "num_stubs", "num_content"):
            if getattr(self, name) < 0:
                raise TopologyError(f"{name} must be non-negative")
        for name in (
            "tier2_providers",
            "tier3_providers",
            "tier4_providers",
            "stub_providers",
            "content_providers",
            "tier3_peering_degree",
            "tier4_peering_degree",
            "content_peering_degree",
        ):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise TopologyError(f"{name} must be a (min, max) range, got {(lo, hi)}")
            if name.endswith("_providers") and lo < 1:
                raise TopologyError(f"{name}: every AS below Tier-1 needs a provider")
        # Transit-connected by construction: a populated tier draws its
        # providers from a pool that must not be empty.
        if self.num_tier3 and not self.num_tier2:
            raise TopologyError("Tier-3 ASes need Tier-2 providers, num_tier2 is 0")
        if self.num_tier4 and not self.num_tier3:
            raise TopologyError("Tier-4 ASes need Tier-3 providers, num_tier3 is 0")
        if self.num_stubs and not (self.num_tier2 or self.num_tier3 or self.num_tier4):
            raise TopologyError("stubs need a transit tier below Tier-1 to attach to")
        if not 0.0 <= self.tier2_peering_prob <= 1.0:
            raise TopologyError("tier2_peering_prob must be a probability")
        if not 0.0 <= self.stub_peering_prob <= 1.0:
            raise TopologyError("stub_peering_prob must be a probability")
        if self.sibling_pairs < 0:
            raise TopologyError("sibling_pairs must be non-negative")
        if self.sibling_pairs and (
            self.num_tier2 + self.num_tier3 + self.num_tier4 + self.num_content < 2
        ):
            raise TopologyError("sibling_pairs needs two transit or content ASes to pair")

    def scaled(self, factor: float) -> "InternetTopologyConfig":
        """Return a copy with all population counts scaled by ``factor``."""
        if not 0 < factor < math.inf:
            raise TopologyError("scale factor must be a finite number above 0")
        return InternetTopologyConfig(
            # The Tier-1 clique stays near its natural size: the paper's
            # tier-conditioned experiments need a handful of Tier-1
            # attacker/victim pairs even at small scales.
            num_tier1=max(min(5, self.num_tier1), round(self.num_tier1 * min(factor, 2.0))),
            num_tier2=max(1, round(self.num_tier2 * factor)),
            num_tier3=max(1, round(self.num_tier3 * factor)),
            num_tier4=max(1, round(self.num_tier4 * factor)),
            num_stubs=max(1, round(self.num_stubs * factor)),
            num_content=max(1, round(self.num_content * factor)),
            tier2_providers=self.tier2_providers,
            tier3_providers=self.tier3_providers,
            tier4_providers=self.tier4_providers,
            stub_providers=self.stub_providers,
            content_providers=self.content_providers,
            tier2_peering_prob=self.tier2_peering_prob,
            tier3_peering_degree=self.tier3_peering_degree,
            tier4_peering_degree=self.tier4_peering_degree,
            content_peering_degree=self.content_peering_degree,
            stub_peering_prob=self.stub_peering_prob,
            sibling_pairs=self.sibling_pairs,
            asn_start=self.asn_start,
        )


@dataclass
class GeneratedTopology:
    """A generated topology together with its ground-truth structure.

    Experiments use the ground-truth role lists to sample attackers and
    victims from specific tiers; the inference package uses the graph's
    relationship labels as the gold standard for accuracy scoring.
    """

    graph: ASGraph
    tier1: list[int] = field(default_factory=list)
    tier2: list[int] = field(default_factory=list)
    tier3: list[int] = field(default_factory=list)
    tier4: list[int] = field(default_factory=list)
    stubs: list[int] = field(default_factory=list)
    content: list[int] = field(default_factory=list)
    sibling_pairs: list[tuple[int, int]] = field(default_factory=list)

    @property
    def transit_ases(self) -> list[int]:
        """ASes that provide transit (have at least one customer).

        The paper's random attacker/victim experiments draw mostly
        "Tier-4 and Tier-5" ASes — small networks that still provide
        transit; a valley-free attacker without customers has nowhere
        to export a modified route, so experiment samplers use this
        pool for attackers.
        """
        return list(self.graph.relatives(Relationship.CUSTOMER))


def _pick_count(rng: random.Random, bounds: tuple[int, int]) -> int:
    lo, hi = bounds
    return rng.randint(lo, hi)


class _ProviderPool:
    """An ordered pool of ASes drawn by weight ``1 + customers``.

    Preferential attachment reproduces the heavy-tailed provider-degree
    distribution of the real AS graph.  The weights are integers and
    their prefix sums live in a Fenwick tree, so a draw costs O(log n)
    where rescanning the pool cost O(n) — and picks the very same AS:
    the tree answers "first slot whose prefix sum reaches ``point``"
    exactly, because an int/float comparison in Python is exact.
    """

    def __init__(self, graph: ASGraph, pool: list[int]) -> None:
        self._pool = pool
        self._slot = {asn: slot for slot, asn in enumerate(pool)}
        self._weight = [1 + graph.transit_degree(asn) for asn in pool]
        self._total = sum(self._weight)
        self._top = 1 << (len(pool).bit_length() - 1) if pool else 0
        tree = self._tree = [0, *self._weight]  # 1-based
        for i in range(1, len(tree)):
            parent = i + (i & -i)
            if parent < len(tree):
                tree[parent] += tree[i]

    def _add(self, slot: int, delta: int) -> None:
        tree = self._tree
        size = len(tree)
        i = slot + 1
        while i < size:
            tree[i] += delta
            i += i & -i
        self._total += delta

    def bump(self, asn: int) -> None:
        """``asn`` gained a customer."""
        slot = self._slot[asn]
        self._weight[slot] += 1
        self._add(slot, 1)

    def sample(self, rng: random.Random, k: int) -> list[int]:
        """Draw ``k`` distinct ASes, one ``rng.uniform`` per pick; the
        whole pool (and no draw) when ``k`` covers it."""
        pool, tree, weight = self._pool, self._tree, self._weight
        if k >= len(pool):
            return list(pool)
        size = len(tree)
        slots: list[int] = []
        for _ in range(k):
            # A picked slot weighs nothing for the rest of the call: the
            # ASes left keep their order, and a zeroed slot is never the
            # first to reach a point — except 0.0 on a zeroed leading
            # slot, so 0.0 is read as 1 (prefixes are integers: every
            # point in (0, 1] means "the first AS left").
            point = rng.uniform(0.0, self._total) or 1
            slot, acc, step = 0, 0, self._top
            while step:
                reach = slot + step
                if reach < size and acc + tree[reach] < point:
                    slot, acc = reach, acc + tree[reach]
                step >>= 1
            slots.append(slot)
            self._add(slot, -weight[slot])
        for slot in slots:
            self._add(slot, weight[slot])
        return [pool[slot] for slot in slots]


def generate_internet_topology(
    config: InternetTopologyConfig, rng: random.Random
) -> GeneratedTopology:
    """Generate a hierarchical Internet-like topology.

    Returns a :class:`GeneratedTopology`; the contained graph is always
    transit-connected (every AS can reach the Tier-1 clique through
    provider links), which the propagation engine relies on.
    """
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
    # Each AS's neighbours through ``attach`` and ``peer``, the only
    # links ``peer`` asks about; the graph would regroup its rows to
    # answer ``neighbors_of`` after every insert.
    linked: dict[int, set[int]] = {asn: set() for asn in graph}

    def link(a: int, b: int) -> None:
        linked[a].add(b)
        linked[b].add(a)

    def attach(asn: int, providers: _ProviderPool, bounds: tuple[int, int]) -> None:
        # A pool's weights are read from the graph once, when its phase
        # starts; that stays right only while every AS gaining a customer
        # during the phase is a member of the phase's pool.
        for provider in providers.sample(rng, _pick_count(rng, bounds)):
            graph.add_p2c(provider, asn)
            link(provider, asn)
            providers.bump(provider)

    def peer(asn: int, pool: list[int], want: int) -> None:
        known = linked[asn]
        candidates = [c for c in pool if c != asn and c not in known]
        shuffle(rng, candidates)  # rng.shuffle's draws, without its call frames
        for other in candidates[:want]:
            graph.add_p2p(asn, other)
            link(asn, other)

    # Tier-1: full peering mesh, no providers.
    for index, a in enumerate(tier1):
        for b in tier1[index + 1 :]:
            graph.add_p2p(a, b)

    # Tier-2: multi-homed onto the Tier-1 clique, sparse peering mesh.
    providers = _ProviderPool(graph, tier1)
    for asn in tier2:
        attach(asn, providers, config.tier2_providers)
    for index, a in enumerate(tier2):
        for b in tier2[index + 1 :]:
            if rng.random() < config.tier2_peering_prob:
                graph.add_p2p(a, b)

    # Tier-3, then Tier-4 (small regional transit): providers from the
    # tier above by preferential attachment, then IXP-style peering.
    for tier, above, provider_bounds, peering_bounds in (
        (tier3, tier2, config.tier3_providers, config.tier3_peering_degree),
        (tier4, tier3, config.tier4_providers, config.tier4_peering_degree),
    ):
        providers = _ProviderPool(graph, above)
        for asn in tier:
            attach(asn, providers, provider_bounds)
        for asn in tier:
            peer(asn, tier, _pick_count(rng, peering_bounds))

    # Content ASes: few providers, very rich peering (Facebook analogue).
    providers = _ProviderPool(graph, tier1 + tier2)
    peering_pool = tier2 + tier3
    for asn in content:
        attach(asn, providers, config.content_providers)
        peer(asn, peering_pool, _pick_count(rng, config.content_peering_degree))

    # Stubs: one or two providers from the transit tiers.
    providers = _ProviderPool(graph, tier2 + tier3 + tier4)
    for asn in stubs:
        attach(asn, providers, config.stub_providers)
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


# ----------------------------------------------------------------------
# Internet-scale power-law generator (NumPy).
#
# ``generate_internet_topology`` is pinned draw for draw to
# ``random.Random`` (its worlds are golden), so it costs what its draws
# cost: one Python-level ``rng`` call per provider pick and per shuffled
# peering candidate — fine at 1.5k ASes, seconds at 10k, hopeless at
# 80k.  This generator produces the same macro structure (Tier-1
# clique, preferentially attached transit hierarchy, multi-homed stub
# majority, sparse transit peering, optional sibling pairs) with
# chunked weighted draws from ``numpy.random.default_rng`` (PCG64: one
# integer seed reproduces the graph on every platform), so 10k builds
# in tens of milliseconds and 80k in under a second before graph
# insertion.


@dataclass(frozen=True)
class PowerLawConfig:
    """Knobs for :func:`generate_powerlaw_topology`.

    ``num_ases`` is the total AS count; everything else defaults to
    ratios that keep the customer-degree distribution heavy-tailed like
    the real AS graph (a few huge transit providers, a long tail of
    small ones, ~85% stubs).
    """

    num_ases: int
    #: Tier-1 clique size (full peer mesh, no providers).
    tier1_size: int = 12
    #: fraction of non-Tier-1 ASes that provide transit
    transit_fraction: float = 0.14
    #: inclusive (min, max) providers per transit AS
    transit_providers: tuple[int, int] = (1, 3)
    #: inclusive (min, max) providers per stub AS
    stub_providers: tuple[int, int] = (1, 2)
    #: inclusive (min, max) IXP-style peers per transit AS
    transit_peering_degree: tuple[int, int] = (0, 2)
    #: preferential-attachment strength: provider weight is
    #: ``(1 + customer_degree) ** attachment_bias``
    attachment_bias: float = 1.0
    #: sibling pairs among transit ASes (0 disables)
    sibling_pairs: int = 0
    #: first AS number to allocate
    asn_start: int = 1

    def validate(self) -> None:
        if self.num_ases < 4:
            raise TopologyError("num_ases must be at least 4")
        if not 2 <= self.tier1_size < self.num_ases:
            raise TopologyError("tier1_size must be in [2, num_ases)")
        if not 0.0 < self.transit_fraction < 1.0:
            raise TopologyError("transit_fraction must be in (0, 1)")
        for name in ("transit_providers", "stub_providers", "transit_peering_degree"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise TopologyError(f"{name} must be a (min, max) range, got {(lo, hi)}")
        if self.transit_providers[0] < 1 or self.stub_providers[0] < 1:
            raise TopologyError("every non-Tier-1 AS needs at least one provider")
        if self.attachment_bias < 0:
            raise TopologyError("attachment_bias must be non-negative")
        if self.sibling_pairs < 0:
            raise TopologyError("sibling_pairs must be non-negative")


def _weighted_distinct_rows(rng, weights, want, chunk_rows):
    """For each row draw ``want[row]`` distinct indices weighted by
    ``weights`` (fixed within the call).  Oversamples with replacement
    then dedupes per row — at power-law weights the repeat probability
    is tiny, and any shortfall is topped up uniformly."""
    import numpy as np

    total = weights.sum()
    probs = weights / total
    kmax = int(want.max())
    draws = rng.choice(len(weights), size=(chunk_rows, max(2 * kmax + 2, 4)), p=probs)
    out = []
    pool = len(weights)
    for row in range(chunk_rows):
        need = int(want[row])
        seen: list[int] = []
        for value in draws[row]:
            value = int(value)
            if value not in seen:
                seen.append(value)
                if len(seen) == need:
                    break
        while len(seen) < need and len(seen) < pool:
            value = int(rng.integers(pool))
            if value not in seen:
                seen.append(value)
        out.append(seen)
    return out


def generate_powerlaw_topology(
    config: PowerLawConfig | int, seed: int = 0
) -> GeneratedTopology:
    """Generate an Internet-scale tiered power-law topology.

    ``config`` is a :class:`PowerLawConfig` (or a bare AS count using
    the default ratios); ``seed`` feeds ``numpy.random.default_rng``.
    The graph is transit-connected by construction — every transit AS
    attaches to at least one earlier transit/Tier-1 AS, every stub to
    at least one transit AS — which the propagation engine relies on.
    The result's ``tier2`` list holds all transit ASes below the
    clique (the finer tier-3/4 split is a small-world ground-truth
    detail the scale experiments do not condition on).
    """
    import numpy as np

    if isinstance(config, int):
        config = PowerLawConfig(num_ases=config)
    config.validate()
    rng = np.random.default_rng(seed)

    n = config.num_ases
    t1 = config.tier1_size
    num_transit = max(1, round((n - t1) * config.transit_fraction))
    num_stubs = n - t1 - num_transit
    first = config.asn_start
    tier1 = list(range(first, first + t1))
    transit = list(range(first + t1, first + t1 + num_transit))
    stubs = list(range(first + t1 + num_transit, first + n))

    # Provider pool: tier1 + already-attached transit; weight grows
    # with customer degree (preferential attachment), updated between
    # chunks so early transit ASes accumulate heavy tails.
    pool = list(tier1)
    degree = np.zeros(n, dtype=np.float64)  # by pool position later
    p2c: list[tuple[int, int]] = []
    p2p: list[tuple[int, int]] = []

    def attach_block(customers: list[int], bounds: tuple[int, int], grow_pool: bool):
        lo, hi = bounds
        position = 0
        while position < len(customers):
            chunk = customers[position : position + 2048]
            weights = (1.0 + degree[: len(pool)]) ** config.attachment_bias
            want = rng.integers(lo, hi + 1, size=len(chunk))
            np.minimum(want, len(pool), out=want)
            rows = _weighted_distinct_rows(rng, weights, want, len(chunk))
            for customer, providers in zip(chunk, rows):
                for j in providers:
                    p2c.append((pool[j], customer))
                    degree[j] += 1.0
            if grow_pool:
                pool.extend(chunk)
            position += 2048

    attach_block(transit, config.transit_providers, grow_pool=True)
    attach_block(stubs, config.stub_providers, grow_pool=False)

    # Tier-1 full peer mesh.
    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            p2p.append((a, b))

    # Sparse IXP-style peering among transit.
    if transit and config.transit_peering_degree[1] > 0:
        lo, hi = config.transit_peering_degree
        want = rng.integers(lo, hi + 1, size=len(transit))
        partners = rng.integers(0, len(transit), size=(len(transit), max(hi, 1)))
        for i, a in enumerate(transit):
            for j in partners[i, : want[i]]:
                b = transit[int(j)]
                if a < b:
                    p2p.append((a, b))

    # The graph's inserts refuse a second edge between two ASes: that
    # refusal is the one dedupe, the first edge drawn winning.
    graph = ASGraph()
    for asn in tier1 + transit + stubs:
        graph.add_as(asn)
    for edges, insert in ((p2c, graph.add_p2c), (p2p, graph.add_p2p)):
        for a, b in edges:
            try:
                insert(a, b)
            except DuplicateEdgeError:
                pass

    sibling_pairs: list[tuple[int, int]] = []
    if config.sibling_pairs and len(transit) >= 2:
        attempts = 0
        while len(sibling_pairs) < config.sibling_pairs and attempts < 50 * config.sibling_pairs:
            attempts += 1
            i, j = rng.choice(len(transit), size=2, replace=False)
            a, b = transit[int(i)], transit[int(j)]
            try:
                graph.add_s2s(a, b)
            except DuplicateEdgeError:
                continue
            sibling_pairs.append((a, b) if a < b else (b, a))

    return GeneratedTopology(
        graph=graph,
        tier1=tier1,
        tier2=transit,
        stubs=stubs,
        sibling_pairs=sibling_pairs,
    )
