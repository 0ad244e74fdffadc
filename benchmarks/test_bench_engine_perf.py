"""Micro-benchmarks of the propagation engine itself.

Unlike the figure benchmarks (one full experiment per run), these use
pytest-benchmark's statistics properly: many rounds of a single
propagation, at three topology scales, plus the warm-start attack path
— each measured for the compiled loop **and** the reference interpreter
it replaced (the test-side oracle, ``tests/bgp/reference_engine.py``),
so the loop's envelope is tracked against it.  "Compiled" here is the
per-activation loop (``run_compiled``) called by name through
``tests/bgp/loop_oracle.py``: a default engine sends its cold
stock-policy runs to the wave kernel wherever numpy imports, and these
gates are about the loop (``test_bench_vectorized_scale`` owns the
kernel's).

``test_bench_fig09_sweep_speedup`` is the regression gate: it times the
full Figure-9 λ-sweep pipeline (eight baseline convergences, eight
warm-started attacks, pollution reports) on both, asserts the rows are
bit-identical, writes the measurement to ``BENCH_engine.json`` at the
repository root, and fails if the compiled loop drops below 1.5× the
reference.

``test_bench_topology_compile_10k`` gates the topology build itself:
:meth:`CompiledTopology.from_graph` against the per-slot builder it
replaced (kept as ``tests/bgp/compile_oracle.py``) on the 10k-AS world,
CSR columns identical, at least 3× faster.

``test_bench_topology_load_10k`` gates the loader: ``loads_asrel2``
(one NumPy pass into edge columns, one bulk
``ASGraph.from_edge_columns`` that derives no per-AS map) against
the per-edge parser it replaced (kept as
``tests/topology/load_oracle.py``) on a dump of the same world, the
same AS order and edge rows, at least 6× faster.

``test_bench_world_generation`` gates the default 1.5k-AS world the
figures run on: ``generate_internet_topology`` against the O(pool)
generator it replaced (kept as ``tests/topology/generator_oracle.py``),
same ``dumps_caida`` bytes and same RNG state, at least 4× faster.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

import pytest

from repro.attack.interception import ASPPInterceptionAttack
from repro.bgp.compiled import CompiledTopology
from repro.bgp.prepending import PrependingPolicy
from repro.experiments.base import build_world
from repro.topology.generators import (
    InternetTopologyConfig,
    PowerLawConfig,
    generate_internet_topology,
    generate_powerlaw_topology,
)
from repro.topology.serialization import dumps_caida, loads_asrel2
from repro.topology.tiers import customer_cone
from repro.utils.rand import derive_rng, make_rng
from tests.bgp.compile_oracle import columns, compile_oracle
from tests.bgp.loop_oracle import LoopEngine
from tests.bgp.reference_engine import ReferenceEngine
from tests.strategies import engine_route_points
from tests.topology.generator_oracle import generate_internet_topology_oracle
from tests.topology.load_oracle import loads_asrel2_oracle

#: engine factory per timed core: the reference interpreter, and the
#: compiled loop by name
BACKENDS = {
    "reference": ReferenceEngine,
    "compiled": LoopEngine,
}

#: Internet-realistic density at CI scale: ~44k edges, mean degree ~8.8.
SCALE_10K = PowerLawConfig(
    num_ases=10_000,
    tier1_size=20,
    transit_fraction=0.30,
    transit_providers=(2, 4),
    stub_providers=(1, 3),
    transit_peering_degree=(4, 24),
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _merge_bench(entry: str, payload: dict) -> None:
    """Read-modify-write one named record of ``BENCH_engine.json`` —
    several benchmarks share the file, so nobody may clobber it whole."""
    records: dict = {}
    if BENCH_JSON.exists():
        try:
            existing = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            existing = {}
        if isinstance(existing, dict):
            if "benchmark" in existing:  # legacy single-record layout
                records[str(existing["benchmark"])] = {
                    k: v for k, v in existing.items() if k != "benchmark"
                }
            else:
                records = existing
    records[entry] = payload
    BENCH_JSON.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def worlds():
    return {scale: build_world(seed=7, scale=scale) for scale in (0.25, 0.5, 1.0)}


@pytest.fixture(scope="module")
def engines(worlds):
    return {
        (scale, backend): build(world.graph)
        for scale, world in worlds.items()
        for backend, build in BACKENDS.items()
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scale", [0.25, 0.5, 1.0])
def test_bench_cold_propagation(benchmark, worlds, engines, scale, backend):
    world = worlds[scale]
    engine = engines[(scale, backend)]
    victim = world.topology.content[0]
    prepending = PrependingPolicy.uniform_origin(victim, 3)
    outcome = benchmark(engine.propagate, victim, prepending=prepending)
    assert outcome.best[victim] is not None
    reachable = sum(1 for route in outcome.best.values() if route is not None)
    assert reachable == len(world.graph)


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_warm_start_attack(benchmark, worlds, engines, backend):
    world = worlds[1.0]
    engine = engines[(1.0, backend)]
    victim = world.topology.content[0]
    attacker = world.topology.tier1[0]
    prepending = PrependingPolicy.uniform_origin(victim, 3)
    baseline = engine.propagate(victim, prepending=prepending)
    modifier = ASPPInterceptionAttack(attacker=attacker, victim=victim).modifier()

    def attack_run():
        return engine.propagate(
            victim,
            prepending=prepending,
            modifiers={attacker: modifier},
            warm_start=baseline,
        )

    outcome = benchmark(attack_run)
    assert outcome.rounds >= 0


def test_bench_topology_compile(benchmark, worlds):
    """CSR compilation cost (paid once per graph, on first propagation)."""
    graph = worlds[1.0].graph
    topo = benchmark(CompiledTopology.from_graph, graph)
    assert topo.n == len(graph)


def _min_of(repeats, fn):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def test_bench_topology_compile_10k():
    """``from_graph`` must hold >= 3x over the per-slot oracle builder
    on the 10k-AS world, with identical CSR columns."""
    graph = generate_powerlaw_topology(SCALE_10K, seed=7).graph
    oracle_s, reference = _min_of(3, lambda: compile_oracle(graph))
    fast_s, topo = _min_of(5, lambda: CompiledTopology.from_graph(graph))
    assert columns(topo) == columns(reference), "builders disagree"

    speedup = oracle_s / fast_s
    _merge_bench(
        "topology_compile_10k",
        {
            "topology_ases": topo.n,
            "topology_slots": len(topo.nbr),
            "oracle_ms": round(oracle_s * 1000, 2),
            "from_graph_ms": round(fast_s * 1000, 2),
            "speedup": round(speedup, 2),
            "gate": 3.0,
        },
    )
    print(
        f"\n10k compile: oracle {oracle_s * 1000:.1f} ms, "
        f"from_graph {fast_s * 1000:.1f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= 3.0, (
        f"from_graph regressed to {speedup:.2f}x over the per-slot builder "
        f"(floor is 3x)"
    )


def test_bench_topology_load_10k():
    """``loads_asrel2`` (a NumPy parse, one bulk build) must hold >= 6x
    over the per-edge parser on a dump of the 10k-AS world (median of
    21 back-to-back pairs), and build the same graph: the same ASes in
    the same order and the same edge rows."""
    text = dumps_caida(generate_powerlaw_topology(SCALE_10K, seed=7).graph)
    loaders = (loads_asrel2_oracle, loads_asrel2)
    pairs, graphs = [], {}
    for _ in range(22):
        pair = []
        for load in loaders:  # back to back, so a slow spell hits both
            graphs.pop(load, None)
            # The collector's passes over whatever is live would only
            # add noise: time each call with GC off, as timeit does.
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                graphs[load] = load(text)
                pair.append(time.perf_counter() - start)
            finally:
                gc.enable()
        pairs.append(pair)
    del pairs[0]  # the first pair grows the heap both sides reuse
    reference, graph = (graphs[load] for load in loaders)
    # A graph is its AS order and its edge rows: equal ones read alike.
    assert list(graph) == list(reference), "loaders disagree on AS order"
    for ours, theirs in zip(graph.edge_columns(), reference.edge_columns()):
        assert ours.tolist() == theirs.tolist(), "loaders disagree on the edge rows"

    # the median of per-pair ratios: a slow spell moves both halves of a pair
    speedup = statistics.median(oracle / fast for oracle, fast in pairs)
    oracle_s = min(oracle for oracle, _ in pairs)
    fast_s = min(fast for _, fast in pairs)
    _merge_bench(
        "topology_load_10k",
        {
            "topology_ases": len(graph),
            "topology_edges": graph.num_edges,
            "oracle_ms": round(oracle_s * 1000, 2),
            "loads_asrel2_ms": round(fast_s * 1000, 2),
            "speedup": round(speedup, 2),
            "gate": 6.0,
        },
    )
    print(
        f"\n10k load: per-edge oracle {oracle_s * 1000:.1f} ms, "
        f"loads_asrel2 {fast_s * 1000:.1f} ms (mins), speedup {speedup:.2f}x "
        f"(median of {len(pairs)} pairs)"
    )
    assert speedup >= 6.0, (
        f"loads_asrel2 regressed to {speedup:.2f}x over the per-edge parser "
        f"(floor is 6x)"
    )


def test_bench_world_generation():
    """The default world (scale 1.0, 1,545 ASes) must generate >= 4x
    faster than the O(pool)-per-draw oracle and be the same world: same
    serialised bytes, same RNG state afterwards.  Both sides insert
    through the same ``ASGraph``, so the ratio is the generator's own
    bookkeeping: the provider draws (Fenwick descents against re-summed
    pools) and the peering shuffles (``repro.utils.rand.shuffle``, one
    ``getrandbits`` per element, against ``rng.shuffle``'s two Python
    calls around it).  Both sides draw every word: a partial shuffle
    would draw a different world."""
    config = InternetTopologyConfig()

    def run(generate):
        rng = derive_rng(make_rng(7), "topology")  # the figures' seed-7 world
        world = generate(config, rng)
        return world, rng.getstate()

    oracle_s, (reference, reference_state) = _min_of(
        3, lambda: run(generate_internet_topology_oracle)
    )
    fast_s, (world, state) = _min_of(5, lambda: run(generate_internet_topology))
    assert dumps_caida(world.graph) == dumps_caida(reference.graph), "worlds differ"
    assert state == reference_state, "generators drew differently"

    speedup = oracle_s / fast_s
    _merge_bench(
        "world_generation_1k5",
        {
            "topology_ases": len(world.graph),
            "topology_edges": world.graph.num_edges,
            "oracle_ms": round(oracle_s * 1000, 2),
            "generator_ms": round(fast_s * 1000, 2),
            "speedup": round(speedup, 2),
            "gate": 4.0,
        },
    )
    print(
        f"\n1.5k world: oracle {oracle_s * 1000:.1f} ms, "
        f"generator {fast_s * 1000:.1f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= 4.0, (
        f"generate_internet_topology regressed to {speedup:.2f}x over the "
        f"O(pool) oracle (floor is 4x)"
    )


def _engine_sweep_rows(engine, attacker, victim):
    """The λ = 1..8 sweep on the engine route — cached baseline, warm
    attack, pollution report — which is what every route-building cell
    pays.  (``padding_sweep`` itself answers impact-only points from
    the impact kernel, so it cannot tell two engines apart.)"""
    cells = [(attacker, victim, padding) for padding in range(1, 9)]
    return [point.row() for point in engine_route_points(engine, cells)]


def _time_fig09_sweep(graph, backend, attacker, victim, repeats=3):
    """Min-of-N wall clock of the λ-sweep with a fresh engine per rep
    (a fresh engine per topology is exactly what the runner pays)."""
    best = None
    rows = None
    for _ in range(repeats):
        engine = BACKENDS[backend](graph)
        start = time.perf_counter()
        rows = _engine_sweep_rows(engine, attacker, victim)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, rows


def test_bench_fig09_sweep_speedup(worlds):
    """The compiled loop must hold >= 1.5x over the reference
    interpreter on the Figure-9 λ-sweep (the CI bar leaves headroom for
    noisy shared runners)."""
    world = worlds[1.0]
    graph = world.graph
    tier1 = sorted(
        world.topology.tier1, key=lambda asn: -len(customer_cone(graph, asn))
    )
    attacker, victim = tier1[0], tier1[1]

    reference_s, reference_rows = _time_fig09_sweep(graph, "reference", attacker, victim)
    compiled_s, compiled_rows = _time_fig09_sweep(graph, "compiled", attacker, victim)
    assert compiled_rows == reference_rows, "loop and oracle disagree on sweep rows"

    speedup = reference_s / compiled_s
    _merge_bench(
        "fig09_lambda_sweep",
        {
            "topology_ases": len(graph),
            "reference_ms": round(reference_s * 1000, 2),
            "compiled_ms": round(compiled_s * 1000, 2),
            "speedup": round(speedup, 2),
        },
    )
    print(
        f"\nfig09 sweep: reference {reference_s * 1000:.1f} ms, "
        f"compiled {compiled_s * 1000:.1f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= 1.5, (
        f"compiled loop regressed to {speedup:.2f}x over reference "
        f"(floor is 1.5x)"
    )


def _time_secpol_sweep(graph, attacker, victim, secpol, repeats=5):
    """Min-of-N wall clock of the fig09-shaped λ-sweep pipeline run with
    an explicit security-policy argument (possibly None)."""
    from repro.attack.interception import simulate_interception

    best = None
    rows = None
    for _ in range(repeats):
        engine = LoopEngine(graph)
        start = time.perf_counter()
        rows = []
        for padding in range(1, 9):
            prepending = PrependingPolicy.uniform_origin(victim, padding)
            baseline = engine.propagate(victim, prepending=prepending)
            result = simulate_interception(
                engine,
                victim=victim,
                attacker=attacker,
                origin_padding=padding,
                prepending=prepending,
                baseline=baseline,
                secpol=secpol,
            )
            rows.append(
                (padding, result.report.before_fraction, result.report.after_fraction)
            )
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, rows


def test_bench_secpol_noop_overhead(worlds):
    """The security-policy hook must be free when nothing is deployed.

    An active ``secpol`` argument with *zero* deployers exercises the
    whole plumbing (checker construction, per-neighbour deployment test
    in the hot loop) without filtering anything; the rows must be
    bit-identical to the policy-free sweep and the wall-clock within 5%.
    """
    from repro.secpol import RovPolicy, SecurityDeployment

    world = worlds[1.0]
    graph = world.graph
    tier1 = sorted(
        world.topology.tier1, key=lambda asn: -len(customer_cone(graph, asn))
    )
    attacker, victim = tier1[0], tier1[1]
    hollow = SecurityDeployment(RovPolicy(victim), ())

    plain_s, plain_rows = _time_secpol_sweep(graph, attacker, victim, None)
    hooked_s, hooked_rows = _time_secpol_sweep(graph, attacker, victim, hollow)
    assert hooked_rows == plain_rows, "a zero-deployment policy changed the rows"

    overhead = hooked_s / plain_s - 1.0
    _merge_bench(
        "secpol_noop_overhead",
        {
            "topology_ases": len(graph),
            "plain_ms": round(plain_s * 1000, 2),
            "hooked_ms": round(hooked_s * 1000, 2),
            "overhead_pct": round(100 * overhead, 2),
        },
    )
    print(
        f"\nsecpol no-op: plain {plain_s * 1000:.1f} ms, "
        f"hooked {hooked_s * 1000:.1f} ms, overhead {100 * overhead:.2f}%"
    )
    assert overhead <= 0.05, (
        f"undeployed security-policy hook costs {100 * overhead:.2f}% "
        f"(budget is 5%)"
    )
