"""Span table and tracer for the traced pass of the end-to-end benchmark.

The table is data: one row per public entry point of a layer, giving
the dotted name to wrap and the metric names its self time and call
count are summed into.  Several rows may share metric names (both
generators feed ``topology.generate_s``).  A name that no longer
resolves after a refactor lands in ``Tracer.unavailable`` and the
workload still runs; an untraced run never installs the tracer.

Spans are recorded only from here — the program carries no tracing of
its own yet (ROADMAP item 1) — so the rows are coarse calls, at most a
few tens of thousands per pass, never anything per update.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

__all__ = ["COUNTERS", "SPAN_TABLE", "Tracer", "self_times"]

#: (dotted target, seconds metric, calls metric or None)
SPAN_TABLE: tuple[tuple[str, str, str | None], ...] = (
    # topology
    ("repro.topology.generators.generate_internet_topology",
     "topology.generate_s", "topology.generate_calls"),
    ("repro.topology.generators.generate_powerlaw_topology",
     "topology.generate_s", "topology.generate_calls"),
    ("repro.topology.serialization.load_asrel2", "topology.load_s", None),
    ("repro.topology.tiers.classify_tiers", "topology.tiers_s", "topology.tiers_calls"),
    ("repro.topology.tiers.customer_cone", "topology.tiers_s", "topology.tiers_calls"),
    # bgp
    ("repro.bgp.compiled.CompiledTopology.from_graph",
     "bgp.compiled.compile_s", "bgp.compiled.compile_calls"),
    ("repro.bgp.engine.PropagationEngine.propagate",
     "bgp.engine.propagate_s", "bgp.engine.propagate_calls"),
    ("repro.bgp.engine.PropagationEngine.propagate_batch",
     "bgp.engine.propagate_s", "bgp.engine.propagate_calls"),
    ("repro.bgp.collectors.RouteCollector.snapshot",
     "bgp.collectors.snapshot_s", "bgp.collectors.snapshot_calls"),
    # runner
    ("repro.runner.cache.BaselineCache.baseline", "runner.cache.self_s", None),
    ("repro.runner.cache.BaselineCache.prefetch_uniform", "runner.cache.self_s", None),
    ("repro.runner.cache.BaselineCache.prefetch_canonical_batch",
     "runner.cache.self_s", None),
    ("repro.runner.executor.execute_task", "runner.tasks.execute_s", None),
    ("repro.runner.supervisor.SupervisedExecutor.run", "runner.pool.run_s", None),
    # close() is where the pool is joined, so it belongs with run, not bootstrap
    ("repro.runner.supervisor.SupervisedExecutor.close", "runner.pool.run_s", None),
    ("repro.runner.supervisor.SupervisedExecutor.__init__", "runner.pool.bootstrap_s", None),
    ("repro.runner.supervisor.SupervisedExecutor.__enter__", "runner.pool.bootstrap_s", None),
    ("repro.runner.shm.publish_topology", "runner.pool.bootstrap_s", None),
    ("repro.runner.scheduler.ShardedScheduler.run", "runner.scheduler.run_s", None),
    # attack / experiments / core
    ("repro.attack.interception.simulate_interception", "attack.simulate_s", None),
    ("repro.attack.impact.pollution_report", "attack.report_s", "attack.report_calls"),
    ("repro.experiments.sweeps.padding_sweep", "experiments.sweeps_s", None),
    ("repro.experiments.sweeps.pair_grid", "experiments.sweeps_s", None),
    ("repro.experiments.sweeps.exhaustive_grid", "experiments.sweeps_s", None),
    ("repro.experiments.base.ExperimentResult.to_text", "experiments.render_s", None),
    ("repro.core.study.InterceptionStudy.__init__", "core.study_init_s", None),
    # store
    ("repro.store.store.CampaignStore.__init__", "store.open_s", None),
    ("repro.store.store.CampaignStore.refresh", "store.refresh_s", "store.refresh_calls"),
    ("repro.store.store.CampaignStore.get", "store.get_s", "store.gets"),
    ("repro.store.store.CampaignStore.put", "store.put_s", "store.puts"),
    ("repro.store.store.CampaignStore.compact", "store.compact_s", None),
    ("repro.store.query.query_experiment", "store.query_s", None),
    # measurement / detection / mitigation
    ("repro.measurement.churn.synthesize_churn_stream", "measurement.churn.synth_s", None),
    ("repro.detection.pipeline.ingest.StreamingPipeline.run",
     "detection.pipeline.run_s", None),
    ("repro.detection.pipeline.ingest.StreamingPipeline.prime",
     "detection.pipeline.prime_s", None),
    ("repro.detection.timing.detection_timing",
     "detection.detector.timing_s", "detection.detector.timing_calls"),
    ("repro.detection.streaming.StreamingDetector.consume_all",
     "detection.streaming.consume_s", "detection.streaming.consume_calls"),
    ("repro.mitigation.controller.run_closed_loop", "mitigation.loop_s", None),
)

#: per-layer metric -> the program's own counter it is lifted from
#: (``--metrics jsonl`` on the traced pass); exact, so comparable run to run
COUNTERS: dict[str, str] = {
    "bgp.engine.cold_propagations": "engine.cold.propagations",
    "bgp.engine.warm_propagations": "engine.warm.propagations",
    "bgp.engine.delta_propagations": "engine.delta.propagations",
    "bgp.engine.vectorized_propagations": "engine.vectorized.propagations",
    "bgp.engine.vectorized_fallbacks": "engine.vectorized.fallbacks",
    "bgp.engine.delta_fallbacks": "engine.delta.fallbacks",
    "runner.cache.hits": "cache.baseline_hits",
    "runner.cache.misses": "cache.baseline_misses",
    "runner.cache.canonical_convergences": "cache.canonical_convergences",
    "runner.cache.derivations": "cache.baseline_derivations",
    "runner.tasks.cells": "worker.tasks",
    "runner.pool.restarts": "runner.pool_restarts",
    "runner.shm.publishes": "runner.shm.publishes",
    "runner.shm.published_bytes": "runner.shm.published_bytes",
    "runner.shm.graph_pickles": "runner.shm.graph_pickles",
    "runner.shm.fallbacks": "runner.shm.fallbacks",
    "runner.scheduler.tasks": "scheduler.tasks",
    "runner.scheduler.store_hits": "scheduler.store_hits",
    "runner.scheduler.executed": "scheduler.executed",
    "detection.pipeline.updates": "detection.pipeline.updates",
    "detection.pipeline.batches": "detection.pipeline.batches",
    "detection.pipeline.blocked": "detection.pipeline.blocked",
    "detection.pipeline.dropped": "detection.pipeline.dropped",
    "detection.pipeline.parked": "detection.pipeline.parked",
    "detection.pipeline.reconnects": "detection.pipeline.reconnects",
    "detection.pipeline.alarms": "detection.pipeline.alarms",
}


def _resolve(dotted: str):
    """``(owner, attribute name)`` for a dotted target, or ``None``.

    The owner is the module for a function and the class for a method.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            vars(owner)[parts[-1]]
        except (AttributeError, KeyError, TypeError):
            return None
        return owner, parts[-1]
    return None


class Tracer:
    """Wraps the span-table targets and records one span per call.

    A span is ``[row, start, end, parent, op]``: the table row it came
    from, clock readings, the index of the enclosing span (``None`` for
    a root) and the op index the harness set before the command.  One
    ``current`` pointer serves all threads: the only thread the
    workloads start (the scheduler's single shard loop) runs while its
    parent blocks in ``join``, so spans still nest in time.
    """

    def __init__(self, table=SPAN_TABLE, *, clock=time.perf_counter, prefix="repro"):
        self.table = tuple(table)
        self.clock = clock
        self.prefix = prefix
        self.spans: list[list] = []
        self.unavailable: list[str] = []
        self.op = 0
        self._current: int | None = None
        self._bindings: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------
    def _wrapper(self, fn, row: int):
        spans, clock = self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current
            span = [row, clock(), 0.0, parent, self.op]
            self._current = len(spans)
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._current = parent

        return traced

    def _modules(self):
        head = self.prefix + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.prefix or name.startswith(head))
        ]

    def install(self) -> None:
        """Wrap every resolvable target; methods on their class,
        functions in every module of the program that bound them."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        self.unavailable = []
        for row, (dotted, _, _) in enumerate(self.table):
            resolved = _resolve(dotted)
            if resolved is None:
                self.unavailable.append(dotted)
                continue
            owner, name = resolved
            raw = vars(owner)[name]
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrapper(raw.__func__, row))
                else:
                    wrapped = self._wrapper(raw, row)
                self._bindings.append((owner, name, raw))
                setattr(owner, name, wrapped)
                continue
            wrapped = self._wrapper(raw, row)
            for module in self._modules():
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._bindings.append((module, alias, raw))
                        setattr(module, alias, wrapped)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for owner, name, raw in reversed(self._bindings):
            setattr(owner, name, raw)
        self._bindings = []
        self._current = None

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        self._current = None
        return taken


def self_times(spans) -> tuple[list[float], float]:
    """Per-span self time and the summed duration of the root spans.

    Self time is the span's duration minus the durations of its direct
    children, so the self times of a tree sum to its root's duration.
    """
    own = [end - start for _, start, end, _, _ in spans]
    roots = 0.0
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent is None:
            roots += end - start
        else:
            own[parent] -= end - start
    return own, roots
