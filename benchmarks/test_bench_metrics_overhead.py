"""Wall-clock guard: telemetry must be free when it is switched off.

The instrumentation contract (see ``src/repro/telemetry``) is that a
run without a registry — or with a disabled one — pays nothing in the
hot loops beyond one hoisted boolean check.  This bench pins that
promise on the Figure-9 λ-sweep:

* the *disabled* sweep (a ``RunMetrics(enabled=False)`` registry
  threaded through the whole stack) stays within 5% of the pristine
  sweep that never saw a registry;
* the *enabled* overhead is printed for the record (it is allowed to
  cost something — it is measured, not asserted, because recording
  real counters is genuine work).
"""

from __future__ import annotations

import time

from repro.experiments.base import build_world
from repro.experiments.sweeps import padding_sweep
from repro.runner import RunConfig
from repro.telemetry import RunMetrics
from repro.topology.tiers import customer_cone

SCALE = 0.25
PADDINGS = tuple(range(1, 9))
REPEATS = 5


def _fig09_pair(world) -> tuple[int, int]:
    graph = world.graph
    by_cone = sorted(
        world.topology.tier1, key=lambda t: (-len(customer_cone(graph, t)), t)
    )
    return by_cone[0], by_cone[1]


def _best_of(fn):
    best, value = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_bench_disabled_metrics_are_free():
    world = build_world(seed=7, scale=SCALE)
    attacker, victim = _fig09_pair(world)
    sweep = lambda metrics: padding_sweep(  # noqa: E731
        world.engine,
        victim=victim,
        attacker=attacker,
        paddings=PADDINGS,
        run=RunConfig(metrics=metrics),
    )

    # Interleave-free warmup, then best-of timings.
    sweep(None)
    pristine_time, pristine_rows = _best_of(lambda: sweep(None))
    disabled_time, disabled_rows = _best_of(
        lambda: sweep(RunMetrics(enabled=False))
    )
    enabled_time, enabled_rows = _best_of(lambda: sweep(RunMetrics()))

    assert disabled_rows == pristine_rows == enabled_rows

    disabled_overhead = disabled_time / pristine_time - 1
    enabled_overhead = enabled_time / pristine_time - 1
    print(
        f"\nfig09 λ-sweep (scale={SCALE}): pristine {pristine_time * 1e3:.1f} ms, "
        f"disabled metrics {disabled_time * 1e3:.1f} ms "
        f"({disabled_overhead:+.1%}), "
        f"enabled metrics {enabled_time * 1e3:.1f} ms "
        f"({enabled_overhead:+.1%})"
    )
    # 5% relative + 2 ms absolute slack absorbs scheduler jitter on
    # small hosts; a real per-iteration cost shows up far above this.
    assert disabled_time <= pristine_time * 1.05 + 0.002, (
        f"disabled metrics cost {disabled_overhead:+.1%} — the hoisted "
        "branch contract is broken"
    )
