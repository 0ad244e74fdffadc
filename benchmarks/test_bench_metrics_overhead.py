"""What telemetry costs on the Figure-9 λ-sweep.

The instrumentation contract (see ``src/repro/telemetry``) is that a
run without a registry (``metrics=None``) pays nothing in the hot loops
beyond one hoisted ``is not None`` check, and that a registry never
changes a row.  This bench pins the second promise and prints the
first's price:

* the rows of the pristine sweep and of a sweep recording into a
  ``RunMetrics()`` registry are identical;
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


def test_bench_metrics_overhead():
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
    enabled_time, enabled_rows = _best_of(lambda: sweep(RunMetrics()))

    assert pristine_rows == enabled_rows

    enabled_overhead = enabled_time / pristine_time - 1
    print(
        f"\nfig09 λ-sweep (scale={SCALE}): pristine {pristine_time * 1e3:.1f} ms, "
        f"enabled metrics {enabled_time * 1e3:.1f} ms "
        f"({enabled_overhead:+.1%})"
    )
