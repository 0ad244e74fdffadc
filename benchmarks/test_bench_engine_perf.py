"""Micro-benchmarks of the propagation engine itself.

Unlike the figure benchmarks (one full experiment per run), these use
pytest-benchmark's statistics properly: many rounds of a single
propagation, at three topology scales, plus the warm-start attack path
— each measured for **both** backends, so the compiled core's envelope
is tracked against the reference interpreter it replaced.

``test_bench_fig09_sweep_speedup`` is the regression gate: it times the
full Figure-9 λ-sweep pipeline (canonical baseline, cached λ
derivations, eight warm-started attacks, pollution reports) on both
backends, asserts the rows are bit-identical, writes the measurement to
``BENCH_engine.json`` at the repository root, and fails if the compiled
backend drops below 1.5× the reference.

``test_bench_topology_compile_10k`` gates the topology build itself:
:meth:`CompiledTopology.from_graph` against the per-slot builder it
replaced (kept as ``tests/bgp/compile_oracle.py``) on the 10k-AS world,
payloads byte-identical, at least 3× faster.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.attack.interception import ASPPInterceptionAttack
from repro.bgp.compiled import CompiledTopology
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.experiments.base import build_world
from repro.runner import BaselineCache
from repro.topology.generators import PowerLawConfig, generate_powerlaw_topology
from repro.topology.tiers import customer_cone
from tests.bgp.compile_oracle import compile_oracle
from tests.strategies import engine_route_points

BACKENDS = ("reference", "compiled")

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
        (scale, backend): PropagationEngine(world.graph, backend=backend)
        for scale, world in worlds.items()
        for backend in BACKENDS
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


def test_bench_reference_engine_construction(benchmark, worlds):
    """Adjacency pre-compilation cost of the reference backend (paid
    per engine; the compiled backends construct for free and compile
    on first use, see ``test_bench_topology_compile``)."""
    graph = worlds[1.0].graph
    engine = benchmark(PropagationEngine, graph, backend="reference")
    assert engine.graph is graph


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
    on the 10k-AS world, with a byte-identical payload.  Both builders
    start from a graph whose sorted-neighbour memo is empty, which is
    how a freshly loaded topology reaches its first compile."""
    graph = generate_powerlaw_topology(SCALE_10K, seed=7).graph

    def oracle():
        graph._sorted_neighbors.clear()
        return compile_oracle(graph)

    oracle_s, reference = _min_of(3, oracle)
    graph._sorted_neighbors.clear()
    fast_s, topo = _min_of(5, lambda: CompiledTopology.from_graph(graph))
    assert topo.to_payload() == reference.to_payload(), "builders disagree"

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


def _engine_sweep_rows(engine, attacker, victim):
    """The λ = 1..8 sweep on the engine route — cached baseline, warm
    attack, pollution report — which is what every route-building cell
    pays.  (``padding_sweep`` itself answers impact-only points from
    the impact kernel whatever the engine's backend or mode, so it
    cannot tell two engines apart.)"""
    cells = [(attacker, victim, padding) for padding in range(1, 9)]
    return [point.row() for point in _engine_route(engine, cells)]


def _engine_route(engine, cells):
    """``cells`` on the engine route with each victim's λ family
    derived in one pass first, as the runner's prepare hook does."""
    cache = BaselineCache(engine)
    for victim in dict.fromkeys(victim for _, victim, _ in cells):
        cache.prefetch_uniform(victim, [p for _, v, p in cells if v == victim])
    return engine_route_points(engine, cells, cache=cache)


def _time_fig09_sweep(graph, backend, attacker, victim, repeats=3):
    """Min-of-N wall clock of the λ-sweep with a fresh engine per rep
    (a fresh engine per topology is exactly what the runner pays)."""
    best = None
    rows = None
    for _ in range(repeats):
        engine = PropagationEngine(graph, backend=backend)
        start = time.perf_counter()
        rows = _engine_sweep_rows(engine, attacker, victim)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, rows


def test_bench_fig09_sweep_speedup(worlds):
    """The compiled backend must hold >= 1.5x over the reference on the
    Figure-9 λ-sweep (the tentpole's acceptance gate is 2x; the CI bar
    leaves headroom for noisy shared runners)."""
    world = worlds[1.0]
    graph = world.graph
    tier1 = sorted(
        world.topology.tier1, key=lambda asn: -len(customer_cone(graph, asn))
    )
    attacker, victim = tier1[0], tier1[1]

    reference_s, reference_rows = _time_fig09_sweep(graph, "reference", attacker, victim)
    compiled_s, compiled_rows = _time_fig09_sweep(graph, "compiled", attacker, victim)
    assert compiled_rows == reference_rows, "backends disagree on sweep rows"

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
        f"compiled backend regressed to {speedup:.2f}x over reference "
        f"(floor is 1.5x)"
    )


def _time_fig09_recompute(graph, attacker, victim, repeats=3):
    """Min-of-N wall clock of the fig09 λ-sweep under the full-recompute
    discipline: every point converges its baseline cold and re-floods
    the whole topology for the attack — no cross-λ cache, no delta.
    This is what the sweep costs without any warm-reuse machinery."""
    from repro.attack.interception import simulate_interception

    best = None
    rows = None
    for _ in range(repeats):
        engine = PropagationEngine(graph, backend="compiled")
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
            )
            rows.append(
                (
                    padding,
                    100 * result.report.before_fraction,
                    100 * result.report.after_fraction,
                )
            )
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, rows


def _time_fig09_mode(graph, mode, attacker, victim, repeats=3):
    """Min-of-N wall clock of the production λ-sweep pipeline (shared
    baseline cache, uniform-λ derivations) under one engine mode."""
    best = None
    rows = None
    for _ in range(repeats):
        engine = PropagationEngine(graph, backend="compiled", mode=mode)
        start = time.perf_counter()
        rows = _engine_sweep_rows(engine, attacker, victim)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, rows


def test_bench_fig09_delta_speedup(worlds):
    """Delta mode on the fig09 λ-sweep, measured honestly.

    Figure 9 pits the two largest Tier-1s against each other, so the
    attacker's affected cone covers most of the topology (~78% of ASes
    on the seed world) and a delta flood does nearly as much work as a
    full one — the headline delta win lives on grids of small-cone
    attackers (see ``test_bench_grid_delta_speedup``, which carries the
    5x gate).  What delta must deliver *here* is (a) bit-identical rows
    and (b) a solid margin over the full-recompute discipline (cold
    baseline + whole-topology re-flood per point), without regressing
    the already-cached production pipeline.  The payload records all
    three disciplines so the provenance of every ratio is explicit; the
    CI floor is 1.4x over full recompute (measured 1.6-2.1x across
    runs, headroom for noisy shared runners).
    """
    world = worlds[1.0]
    graph = world.graph
    tier1 = sorted(
        world.topology.tier1, key=lambda asn: -len(customer_cone(graph, asn))
    )
    attacker, victim = tier1[0], tier1[1]

    recompute_s, recompute_rows = _time_fig09_recompute(graph, attacker, victim)
    full_s, full_rows = _time_fig09_mode(graph, "full", attacker, victim)
    delta_s, delta_rows = _time_fig09_mode(graph, "delta", attacker, victim)
    assert delta_rows == full_rows, "delta mode changed the sweep rows"
    assert delta_rows == recompute_rows, "delta mode disagrees with full recompute"

    speedup = recompute_s / delta_s
    _merge_bench(
        "fig09_delta_sweep",
        {
            "topology_ases": len(graph),
            "full_recompute_ms": round(recompute_s * 1000, 2),
            "full_pipeline_ms": round(full_s * 1000, 2),
            "delta_ms": round(delta_s * 1000, 2),
            "speedup_vs_recompute": round(speedup, 2),
            "speedup_vs_pipeline": round(full_s / delta_s, 2),
        },
    )
    print(
        f"\nfig09 delta: recompute {recompute_s * 1000:.1f} ms, "
        f"full pipeline {full_s * 1000:.1f} ms, delta {delta_s * 1000:.1f} ms, "
        f"{speedup:.2f}x vs recompute"
    )
    assert speedup >= 1.4, (
        f"delta mode at {speedup:.2f}x over full recompute on the fig09 "
        f"sweep (floor is 1.4x)"
    )
    assert delta_s <= full_s * 1.10, (
        f"delta mode regressed the cached pipeline: {delta_s * 1000:.1f} ms "
        f"vs {full_s * 1000:.1f} ms full"
    )


def _time_grid(graph, mode, pairs, repeats=3):
    """Min-of-N wall clock of a fixed-λ pair grid under one engine mode
    (fresh baseline cache per rep, engine construction excluded)."""
    cells = [(attacker, victim, 3) for attacker, victim in pairs]
    best = None
    results = None
    for _ in range(repeats):
        engine = PropagationEngine(graph, backend="compiled", mode=mode)
        start = time.perf_counter()
        results = _engine_route(engine, cells)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, results


def _time_grid_recompute(graph, pairs, repeats=2):
    """Min-of-N wall clock of the grid under the per-pair full-recompute
    discipline: every cell converges its victim's baseline cold and
    runs the attack from it, with no cache shared between cells.  This
    is the reference oracle the golden grid test pins delta against,
    and what the grid costs without any reuse machinery."""
    from repro.attack.interception import simulate_interception
    from repro.runner import SweepPointResult

    best = None
    results = None
    for _ in range(repeats):
        engine = PropagationEngine(graph, backend="compiled")
        start = time.perf_counter()
        results = []
        for attacker, victim in pairs:
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
            results.append(
                SweepPointResult(
                    attacker=attacker,
                    victim=victim,
                    padding=3,
                    before_fraction=result.report.before_fraction,
                    after_fraction=result.report.after_fraction,
                    attacker_kept_route=result.attacker_has_route,
                )
            )
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, results


def test_bench_grid_delta_speedup(worlds):
    """The delta-reuse gate: >= 5x on an exhaustive attack grid.

    This is the workload delta mode exists for — many attackers probing
    the same victims, each touching only its own neighbourhood.  The
    grid pits small-cone Tier-4 transit attackers (the paper's "mostly
    Tier-4/Tier-5 attackers" regime) against the two largest Tier-1
    victims.  Under the per-pair full-recompute discipline every cell
    pays a cold whole-topology convergence; delta pays two cold
    convergences total (one canonical pass per victim) and then only
    each cell's affected cone — a handful of ASes here — so the reuse
    ratio, not cache locality, carries the gate.  The warm cached
    pipeline (full mode, shared baseline cache) is recorded alongside
    for provenance: its worklist is already change-driven, so delta's
    margin over *it* is modest and is gated only as a no-regression
    bound.  Rows must be bit-identical cell for cell across all three
    disciplines.
    """
    world = worlds[1.0]
    graph = world.graph
    tier1 = sorted(
        world.topology.tier1, key=lambda asn: -len(customer_cone(graph, asn))
    )
    victims = tier1[:2]
    attackers = sorted(
        world.topology.tier4, key=lambda asn: (len(customer_cone(graph, asn)), asn)
    )[:64]
    pairs = [(a, v) for a in attackers for v in victims if a != v]

    recompute_s, recompute_results = _time_grid_recompute(graph, pairs)
    full_s, full_results = _time_grid(graph, "full", pairs)
    delta_s, delta_results = _time_grid(graph, "delta", pairs)
    assert delta_results == full_results, "delta mode changed grid cells"
    assert delta_results == recompute_results, "delta disagrees with full recompute"

    speedup = recompute_s / delta_s
    _merge_bench(
        "exhaustive_grid_delta",
        {
            "topology_ases": len(graph),
            "grid_cells": len(pairs),
            "full_recompute_ms": round(recompute_s * 1000, 2),
            "full_pipeline_ms": round(full_s * 1000, 2),
            "delta_ms": round(delta_s * 1000, 2),
            "speedup_vs_recompute": round(speedup, 2),
            "speedup_vs_pipeline": round(full_s / delta_s, 2),
        },
    )
    print(
        f"\ngrid delta: {len(pairs)} cells, recompute {recompute_s * 1000:.1f} ms, "
        f"full pipeline {full_s * 1000:.1f} ms, delta {delta_s * 1000:.1f} ms, "
        f"{speedup:.2f}x vs recompute"
    )
    assert speedup >= 5.0, (
        f"delta mode at {speedup:.2f}x over per-pair full recompute on the "
        f"exhaustive grid (gate is 5x)"
    )
    assert delta_s <= full_s * 1.10, (
        f"delta mode regressed the cached pipeline: {delta_s * 1000:.1f} ms "
        f"vs {full_s * 1000:.1f} ms full"
    )


def _time_secpol_sweep(graph, attacker, victim, secpol, repeats=5):
    """Min-of-N wall clock of the fig09-shaped λ-sweep pipeline run with
    an explicit security-policy argument (possibly None)."""
    from repro.attack.interception import simulate_interception

    best = None
    rows = None
    for _ in range(repeats):
        engine = PropagationEngine(graph, backend="compiled")
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
