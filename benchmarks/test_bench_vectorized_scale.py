"""Internet-scale benchmarks of the engine's cold core, the wave kernel.

The engine benchmarks (``test_bench_engine_perf``) track the compiled
loop on the paper's ~1k-AS worlds; these track the NumPy CSR core on
the scales the paper's methodology actually needs — 10k ASes in CI's
``scale-smoke`` job, 80k (CAIDA-snapshot order) locally behind the
``slow`` marker.

Three disciplines are timed and recorded so each ratio's provenance is
explicit:

* ``compiled_ms`` — one cold propagation on the per-activation loop,
  called by name (``tests/bgp/loop_oracle.py``): the oracle the kernel
  must match bit for bit;
* ``vectorized_ms`` — the same cold run end to end through a default
  engine, whose cold core the kernel is (fixpoint + route/RIB emission
  + outcome assembly);
* ``core_ms`` — the raw packed-key fixpoint alone
  (:func:`vectorized_fixpoint`), the piece that scales to 80k where
  materialising per-AS route objects would dwarf the convergence.

The ≥10x acceptance gate rides on the core kernel: emission materials
(intern-table paths, Route objects, Python dicts) are shared overhead
both cores pay, and at 80k nobody pays them at all.  The end-to-end
engine ratio is recorded alongside, ungated, so the full-run picture
stays honest in ``BENCH_engine.json``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from test_bench_engine_perf import SCALE_10K, _merge_bench, _min_of

from repro.bgp.compiled import CompiledTopology
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.vectorized import ImpactKernel, vectorized_fixpoint
from repro.topology.generators import PowerLawConfig, generate_powerlaw_topology
from repro.topology.tiers import customer_cone
from tests.bgp.loop_oracle import LoopEngine
from tests.strategies import engine_route_points

#: CAIDA-snapshot order (an as-rel2 file is ~75-80k ASes), kept sparser
#: so the slow rung stays a local minutes-not-hours check.
SCALE_80K = PowerLawConfig(
    num_ases=80_000,
    tier1_size=20,
    transit_fraction=0.15,
    transit_providers=(2, 4),
    stub_providers=(1, 3),
    transit_peering_degree=(2, 12),
)


@pytest.fixture(scope="module")
def world_10k():
    return generate_powerlaw_topology(SCALE_10K, seed=7)


@pytest.fixture(scope="module")
def topo_10k(world_10k):
    return CompiledTopology.of(world_10k.graph)


def test_bench_fig09_vectorized_10k(world_10k, topo_10k):
    """Cold λ=3 propagation at 10k ASes: the loop by name vs a default
    engine (a kernel column) vs the raw fixpoint core, with bit-identity
    asserted before any timing is trusted.  Gate: the core kernel holds
    ≥10x over the loop's run."""
    graph = world_10k.graph
    victim = world_10k.tier1[0]
    prep = PrependingPolicy.uniform_origin(victim, 3)

    eng_c = LoopEngine(graph)
    eng_v = PropagationEngine(graph)
    oc = eng_c.propagate(victim, prepending=prep)
    ov = eng_v.propagate(victim, prepending=prep)
    assert list(oc.best.items()) == list(ov.best.items())
    assert oc.best_keys == ov.best_keys
    for a, offers in oc.adj_rib_in.items():
        present = {s: o for s, o in offers.items() if o is not None}
        assert present == ov.adj_rib_in[a]

    compiled_s, _ = _min_of(3, lambda: eng_c.propagate(victim, prepending=prep))
    vectorized_s, _ = _min_of(3, lambda: eng_v.propagate(victim, prepending=prep))
    core_s, (keys, waves, _) = _min_of(
        5, lambda: vectorized_fixpoint(topo_10k, [victim], prepending=prep)
    )
    assert int((keys[:, 0] < (np.int64(5) << 53)).sum()) == len(graph)

    core_speedup = compiled_s / core_s
    _merge_bench(
        "fig09_vectorized_10k",
        {
            "topology_ases": len(graph),
            "topology_edges": graph.num_edges,
            "compiled_ms": round(compiled_s * 1000, 2),
            "vectorized_ms": round(vectorized_s * 1000, 2),
            "core_ms": round(core_s * 1000, 2),
            "speedup_engine": round(compiled_s / vectorized_s, 2),
            "speedup_core": round(core_speedup, 2),
            "waves": waves,
        },
    )
    print(
        f"\n10k cold: compiled {compiled_s * 1000:.1f} ms, "
        f"vectorized {vectorized_s * 1000:.1f} ms "
        f"({compiled_s / vectorized_s:.1f}x), "
        f"core {core_s * 1000:.2f} ms ({core_speedup:.1f}x)"
    )
    assert core_speedup >= 10.0, (
        f"vectorized core at {core_speedup:.1f}x over compiled at 10k "
        f"(gate is 10x)"
    )


def test_bench_impact_kernel_10k(world_10k, topo_10k):
    """The grid-10k shape — 5 largest-cone transit attackers x 10
    largest-cone victims at λ=3 — as impact-kernel columns vs the
    compiled engine route on the loop by name (cached loop baselines,
    warm attacks, pollution reports), both cold.  Counts must agree cell for cell before any
    timing is trusted.  Gate: the kernel holds ≥2.5x; its peak traced
    allocation is recorded because batch width is a memory decision."""
    graph = world_10k.graph

    def top(pool, limit):
        return sorted(pool, key=lambda a: (-len(customer_cone(graph, a)), a))[:limit]

    attackers = top(world_10k.transit_ases, 5)
    victims = top(graph.ases, 10)
    pairs = [(a, v) for a in attackers for v in victims if a != v]
    cells = [(v, a, 3, 1, False) for a, v in pairs]
    population = len(graph) - 2

    engine_s, points = _min_of(
        2,
        lambda: engine_route_points(
            LoopEngine(graph), [(a, v, 3) for a, v in pairs]
        ),
    )
    kernel_s, counts = _min_of(3, lambda: ImpactKernel(topo_10k).run(cells))
    assert [
        (before / population, after / population, kept) for before, after, kept in counts
    ] == [(p.before_fraction, p.after_fraction, p.attacker_kept_route) for p in points]

    tracemalloc.start()
    ImpactKernel(topo_10k).run(cells)
    peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    speedup = engine_s / kernel_s
    _merge_bench(
        "impact_kernel_10k",
        {
            "topology_ases": len(graph),
            "grid_cells": len(cells),
            "engine_ms": round(engine_s * 1000, 2),
            "kernel_ms": round(kernel_s * 1000, 2),
            "kernel_ms_per_cell": round(kernel_s / len(cells) * 1000, 2),
            "kernel_peak_traced_mib": round(peak_mib, 2),
            "speedup": round(speedup, 2),
            "gate": 2.5,
        },
    )
    print(
        f"\n10k impact grid x{len(cells)}: engine {engine_s * 1000:.1f} ms, "
        f"kernel {kernel_s * 1000:.1f} ms ({speedup:.1f}x), "
        f"peak traced {peak_mib:.1f} MiB"
    )
    assert speedup >= 2.5, (
        f"impact kernel at {speedup:.1f}x over the compiled engine route on the "
        f"10k grid (gate is 2.5x)"
    )


@pytest.mark.slow
def test_bench_fixpoint_vectorized_80k():
    """The 80k rung — local only (``-m slow``).  No oracle exists at
    this scale (a compiled run would take minutes per origin), so the
    checks are structural: full reachability, sane wave count, and the
    batched columns identical to single-source runs."""
    world = generate_powerlaw_topology(SCALE_80K, seed=7)
    topo = CompiledTopology.of(world.graph)
    origins = list(world.tier1[:2])

    core_s, (keys, waves, _) = _min_of(
        2, lambda: vectorized_fixpoint(topo, origins)
    )
    inf = np.int64(5) << 53
    for col, origin in enumerate(origins):
        assert int((keys[:, col] < inf).sum()) == len(world.graph)
        single, _, _ = vectorized_fixpoint(topo, [origin])
        assert np.array_equal(keys[:, col], single[:, 0])
    assert waves <= 5 * (topo.n + 2)

    _merge_bench(
        "fixpoint_vectorized_80k",
        {
            "topology_ases": len(world.graph),
            "topology_edges": world.graph.num_edges,
            "batch_columns": len(origins),
            "core_ms_per_col": round(core_s / len(origins) * 1000, 2),
            "waves": waves,
        },
    )
    print(
        f"\n80k fixpoint: {core_s / len(origins) * 1000:.1f} ms/col, "
        f"{waves} waves"
    )
