"""Shared hypothesis strategies and tiny-world builders.

The property suites (compiled differential, engine invariants,
streaming detection, vectorized differential) all need the same scaffolding:
a topology small enough that hypothesis can afford dozens of examples,
a seeded ``random.Random`` whose post-generation state drives the
scenario picks (so one integer seed reproduces the whole example), and
the backend-pair / scenario-pick helpers built on top.  Each suite used
to carry its own copy; they live here so a new differential suite
starts from the same vocabulary instead of another fork.

Conventions:

* ``seeds``/``paddings`` are the hypothesis strategies (``graphs`` and
  ``scale_configs`` draw whole topologies); everything else is plain
  deterministic code driven by the drawn seed.
* ``tiny_world(seed, config)`` returns both the world *and* the rng
  used to generate it — scenario picks must come from that rng so the
  example is a pure function of the seed.
* The draw-order helpers (victim-first vs attacker-first) are separate
  functions on purpose: the suites predate this module with different
  orders, and changing an order silently reshuffles every regression
  example hypothesis has ever minimised.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.attack.interception import simulate_interception
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.runner import BaselineCache, SweepPointResult
from repro.topology.asgraph import ASGraph
from repro.topology.generators import (
    GeneratedTopology,
    InternetTopologyConfig,
    PowerLawConfig,
    generate_internet_topology,
    generate_powerlaw_topology,
)
from repro.topology.relationships import Relationship
from tests.bgp.loop_oracle import LoopEngine
from tests.bgp.reference_engine import ReferenceEngine

__all__ = [
    "SCALE_SMOKE",
    "TINY",
    "TINY_DETECTION",
    "TINY_NO_SIBLINGS",
    "TINY_WITH_SIBLINGS",
    "assert_outcomes_identical",
    "assert_vectorized_matches",
    "backend_pair",
    "cold_convergences",
    "draw_attacker_then_victim",
    "draw_victim_then_attacker",
    "engine_route_points",
    "graphs",
    "paddings",
    "powerlaw_config",
    "scale_configs",
    "scale_world",
    "seeds",
    "tiny_config",
    "tiny_world",
    "vectorized_pair",
]


def tiny_config(
    *,
    num_tier1: int = 3,
    num_tier2: int = 5,
    num_tier3: int = 10,
    num_tier4: int = 8,
    num_stubs: int = 25,
    num_content: int = 2,
    sibling_pairs: int = 2,
) -> InternetTopologyConfig:
    """A ~50-AS topology config — large enough for multi-tier routing
    structure, small enough for dozens of hypothesis examples."""
    return InternetTopologyConfig(
        num_tier1=num_tier1,
        num_tier2=num_tier2,
        num_tier3=num_tier3,
        num_tier4=num_tier4,
        num_stubs=num_stubs,
        num_content=num_content,
        sibling_pairs=sibling_pairs,
    )


#: The differential suites' default world.
TINY = tiny_config()
#: Sibling-free variant — the three-phase oracle is only defined without
#: sibling (transparent) hops.
TINY_NO_SIBLINGS = tiny_config(sibling_pairs=0)
#: Extra sibling pairs to stress transparent-hop handling.
TINY_WITH_SIBLINGS = tiny_config(sibling_pairs=3)
#: The detection suites' slightly larger world (more stubs → more
#: monitors with distinct vantage points).
TINY_DETECTION = tiny_config(
    num_tier2=6, num_tier3=12, num_tier4=10, num_stubs=40, sibling_pairs=1
)

#: One integer reproduces the whole example (topology + scenario picks).
seeds = st.integers(0, 10**6)


def paddings(min_value: int = 1, max_value: int = 5):
    """Origin-padding (λ) strategy; the paper sweeps 1..8 but tiny
    topologies saturate earlier."""
    return st.integers(min_value, max_value)


#: every role an edge can give its far end
KINDS = tuple(kind for kind in Relationship if kind is not Relationship.NONE)


@st.composite
def graphs(draw) -> ASGraph:
    """Up to 24 ASes with sparse 32-bit ASNs in drawn (unsorted) order,
    joined by random edges of every kind; undrawn pairs stay isolated.
    No tier structure: the shapes a generator never makes."""
    asns = draw(
        st.lists(st.integers(1, 2**32 - 1), min_size=1, max_size=24, unique=True)
    )
    graph = ASGraph()
    for asn in asns:
        graph.add_as(asn)
    members = st.sampled_from(asns)
    edges = draw(st.lists(st.tuples(members, members, st.sampled_from(KINDS)), max_size=60))
    for a, b, kind in edges:
        if a != b and not graph.has_edge(a, b):
            graph.add_edge(a, b, kind)
    return graph


def tiny_world(
    seed: int, config: InternetTopologyConfig = TINY
) -> tuple[GeneratedTopology, random.Random]:
    """Generate a tiny world; return it with the generating rng.

    The rng comes back advanced past topology generation, so scenario
    picks drawn from it are stable per seed and independent of how many
    picks a test makes.
    """
    rng = random.Random(seed)
    return generate_internet_topology(config, rng), rng


def backend_pair(
    seed: int, config: InternetTopologyConfig = TINY
) -> tuple[GeneratedTopology, random.Random, ReferenceEngine, PropagationEngine]:
    """World + rng + (reference oracle, compiled-loop) engines over the
    same graph: the loop by name, because it is the loop — cold stamps
    and withdrawal slots included — that mirrors the oracle statement
    for statement, not whichever core a default engine picks."""
    world, rng = tiny_world(seed, config)
    return world, rng, ReferenceEngine(world.graph), LoopEngine(world.graph)


def draw_victim_then_attacker(
    world: GeneratedTopology, rng: random.Random
) -> tuple[int, int]:
    """Any-AS victim, then a transit attacker ≠ victim (the compiled
    differential suite's draw order)."""
    victim = rng.choice(world.graph.ases)
    attacker = rng.choice([a for a in world.transit_ases if a != victim])
    return victim, attacker


def draw_attacker_then_victim(
    world: GeneratedTopology, rng: random.Random
) -> tuple[int, int]:
    """Transit attacker first, then any victim ≠ attacker (the
    streaming-detection suite's draw order).  Returns (victim, attacker)
    like its sibling so call sites read the same."""
    attacker = rng.choice(world.transit_ases)
    victim = rng.choice([a for a in world.graph.ases if a != attacker])
    return victim, attacker


def powerlaw_config(num_ases: int, **overrides) -> PowerLawConfig:
    """A test-friendly power-law config at a chosen scale.

    Defaults keep density modest (fast hypothesis examples) while
    preserving the tiered structure — override any
    :class:`PowerLawConfig` field for denser or stranger shapes.
    """
    params = dict(
        num_ases=num_ases,
        tier1_size=min(8, max(3, num_ases // 40)),
        transit_fraction=0.15,
        transit_providers=(1, 3),
        stub_providers=(1, 2),
        transit_peering_degree=(0, 3),
        sibling_pairs=min(3, num_ases // 100),
    )
    params.update(overrides)
    return PowerLawConfig(**params)


#: The scale differential suites' default world — the 1.5k-AS floor of
#: the oracle ladder (1.5k in-suite, 10k in CI scale-smoke, 80k local).
SCALE_SMOKE = powerlaw_config(1500)


def scale_world(
    seed: int, config: PowerLawConfig = SCALE_SMOKE
) -> tuple[GeneratedTopology, random.Random]:
    """Generate a power-law world at scale; return it with a scenario rng.

    Unlike :func:`tiny_world` the generator consumes a NumPy bit
    stream, so the scenario rng is a separate ``random.Random`` derived
    from the same seed — picks stay a pure function of ``seed``.
    """
    world = generate_powerlaw_topology(config, seed=seed)
    return world, random.Random(seed ^ 0x5CA1E)


@st.composite
def scale_configs(draw, min_ases: int = 80, max_ases: int = 400):
    """Hypothesis strategy over tiered power-law configs.

    Scale-parameterized: AS count, tier-1 clique size, transit share,
    peering spread, and sibling count all vary, so the differential
    suites exercise the vectorized core across graph shapes rather
    than one fixed topology."""
    num_ases = draw(st.integers(min_ases, max_ases))
    return powerlaw_config(
        num_ases,
        tier1_size=draw(st.integers(3, 8)),
        transit_fraction=draw(st.floats(0.08, 0.3)),
        transit_peering_degree=(0, draw(st.integers(1, 6))),
        sibling_pairs=draw(st.integers(0, 3)),
    )


def vectorized_pair(
    world: GeneratedTopology,
) -> tuple[PropagationEngine, PropagationEngine]:
    """(loop, default) oracle/candidate engines over one graph: the
    per-activation loop by name, and the engine as shipped, whose cold
    stock-policy runs are kernel columns."""
    return LoopEngine(world.graph), PropagationEngine(world.graph)


def assert_vectorized_matches(
    oracle, candidate, *, stamps: bool = False, warm: bool = False
) -> None:
    """The vectorized cold-run contract against a loop or reference
    oracle: ``best``/``best_keys`` bit-identical including dict
    iteration order, Adj-RIB-in equal on every *present* offer with no
    explicit-``None`` withdrawals on the vectorized side, and (for
    warm restarts computed from vectorized baselines) adoption stamps
    and round counts too when ``stamps=True``.

    ``warm=True`` is for comparing two *compiled warm runs* that differ
    only in which baseline (loop vs kernel) seeded them: the
    compiled warm flood emits explicit-``None`` withdrawals on both
    sides, and the baselines' absent-vs-``None`` difference survives in
    untouched slots — so both Adj-RIBs-in compare modulo ``None``."""
    assert oracle.prefix == candidate.prefix
    assert oracle.origin == candidate.origin
    assert list(oracle.best.items()) == list(candidate.best.items())
    assert oracle.best_keys == candidate.best_keys
    assert list(oracle.adj_rib_in) == list(candidate.adj_rib_in)
    if not warm:
        for a, offers in candidate.adj_rib_in.items():
            assert None not in offers.values(), f"explicit withdrawal emitted at AS {a}"
    for a, offers in oracle.adj_rib_in.items():
        present = {s: o for s, o in offers.items() if o is not None}
        other = {
            s: o for s, o in candidate.adj_rib_in[a].items() if o is not None
        }
        assert present == other, f"Adj-RIB-in diverges at AS {a}"
    if stamps:
        assert oracle.adoption_round == candidate.adoption_round
        assert oracle.rounds == candidate.rounds


def cold_convergences(metrics) -> int:
    """Cold convergences ``metrics`` recorded, on whichever core ran
    them: kernel columns plus the loop's cold runs.  The sum is what a
    baseline-cache miss costs, whichever core converged it."""
    return metrics.counter_value(
        "engine.vectorized.propagations"
    ) + metrics.counter_value("engine.cold.propagations")


def live_offers(outcome) -> dict[int, dict[int, tuple]]:
    """Adj-RIBs-in with withdrawn/absent offers normalised away.

    Whether an AS holds an explicit ``None`` (a neighbour offered a
    route transiently, then withdrew it) or no entry at all (the
    neighbour never offered) depends on the activation order; the live
    offers are the order-independent fixpoint.
    """
    return {
        asn: {n: offer for n, offer in offers.items() if offer is not None}
        for asn, offers in outcome.adj_rib_in.items()
    }


def assert_outcomes_identical(ref, other) -> None:
    """Bit-identity across every outcome field the artefacts consume:
    prefix, origin, rounds, adoption stamps, best routes, Adj-RIBs-in
    (including the absent-offer vs explicit-``None`` withdrawal
    distinction) — plus dict iteration order, which is part of the
    emission contract (reports and serialised artefacts walk these
    maps)."""
    assert ref == other  # prefix, origin, rounds, adoption_round, best, adj_rib_in
    assert ref.best_keys == other.best_keys
    assert list(ref.best) == list(other.best)
    assert list(ref.adj_rib_in) == list(other.adj_rib_in)


def engine_route_points(
    engine: PropagationEngine,
    cells,
    *,
    cache: BaselineCache | None = None,
    **attack,
) -> list[SweepPointResult]:
    """Sweep points computed the way every route-building cell is: a
    cached baseline converged at the cell's own λ, then a warm-started
    ``simulate_interception`` on ``engine``, then the pollution report.

    ``cells`` are ``(attacker, victim, padding)`` triples; ``attack``
    forwards ``violate_policy`` / ``strip_mode`` / ``keep``.  Sweeps
    themselves answer impact-only cells from the impact kernel, so this
    is both the kernel's oracle and how suites exercise the engine's
    warm path (from loop or kernel baselines) at sweep shape.
    """
    cache = cache if cache is not None else BaselineCache(engine)
    points = []
    for attacker, victim, padding in cells:
        prepending = PrependingPolicy.uniform_origin(victim, padding)
        result = simulate_interception(
            engine,
            victim=victim,
            attacker=attacker,
            origin_padding=padding,
            prepending=prepending,
            baseline=cache.baseline(victim, prepending=prepending),
            **attack,
        )
        points.append(
            SweepPointResult(
                attacker=attacker,
                victim=victim,
                padding=padding,
                before_fraction=result.report.before_fraction,
                after_fraction=result.report.after_fraction,
                attacker_kept_route=result.attacker_has_route,
            )
        )
    return points
