"""Run-telemetry primitives: counters, timers, histograms, registry.

The simulator's hot layers (engine, baseline cache, batch runner,
detectors) report *what work they did* — announcements processed,
decision fast-path hits, cache misses, updates consumed — into a
:class:`RunMetrics` registry.  The registry is designed around three
hard requirements:

* **zero overhead when off** — "metrics off" is ``metrics=None``,
  and the instrumented call sites hoist a single ``metrics is not
  None`` check out of their hot loops, so an uninstrumented run pays
  nothing but that one branch;
* **picklable and exactly mergeable** — a process-pool worker keeps its
  own registry and ships per-task deltas back with each result;
  :meth:`RunMetrics.merge` sums them so a pooled run's aggregate equals
  the serial run's registry for every deterministic metric (wall-clock
  timers are the one inherently run-dependent section);
* **serialisable** — a registry round-trips through a plain dict (and
  therefore JSONL, see :mod:`repro.telemetry.report`) without losing
  information.

Metric names are dotted strings namespaced by layer (``engine.*``,
``cache.*``, ``worker.*``, ``detection.*``); the ``info`` section holds
run-shape details (e.g. per-worker task counts keyed by PID) that are
*expected* to differ between serial and pooled runs and are therefore
excluded from determinism comparisons.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["CACHE_SHAPE_PREFIXES", "Counter", "Timer", "Histogram", "RunMetrics"]

#: Metric namespaces whose values depend on *how* a run executed rather
#: than on the workload alone.  Every pool worker keeps its own baseline
#: cache, so a victim whose tasks land on two workers converges its
#: baseline twice — ``cache.*`` counters and the engine work
#: done during those cold (non-warm-started) convergences legitimately
#: grow with the worker count.  They are real, useful telemetry (they
#: quantify duplicated baseline work), but they are excluded from
#: serial-vs-pooled determinism comparisons.  The compiled loop's
#: interning counters (``engine.compiled.*`` — hit rates depend on
#: which paths a worker's intern tables have already seen) are
#: cache-shaped for the same reason, as are the wave kernel's counters
#: (``engine.vectorized.*`` — cold convergences follow the cache
#: misses) and the impact kernel's batching
#: counters (``engine.impact.columns`` / ``.batches`` / ``.waves`` —
#: each worker converges its own baseline columns and batches what it
#: is handed; ``engine.impact.cells`` is per task and stays
#: deterministic).
CACHE_SHAPE_PREFIXES = (
    "cache.",
    "engine.cold.",
    "engine.compiled.",
    "engine.vectorized.",
    "engine.impact.columns",
    "engine.impact.batches",
    "engine.impact.waves",
    # The campaign store and the batch lookup measure work *avoided*
    # (dedupe hits, bytes persisted), which depends on what
    # earlier runs left in the store — run-shaped by definition.
    "scheduler.",
    "store.",
)


@dataclass
class Counter:
    """A monotonically increasing integer."""

    name: str
    value: int = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value


@dataclass
class Timer:
    """Accumulated wall-clock time for one named operation.

    Timers are inherently non-deterministic; they are reported but
    excluded from serial-vs-pooled equality checks.
    """

    name: str
    count: int = 0
    total: float = 0.0
    max: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Timer") -> None:
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max


@dataclass
class Histogram:
    """Distribution summary over non-negative observations.

    Observations land in power-of-two buckets (bucket ``b`` holds
    values whose integer part has bit length ``b``, i.e. ``0``, ``1``,
    ``2-3``, ``4-7``, ...), which keeps the merged histogram exact:
    bucket counts, count, total, min and max all add up independently
    of how the observations were partitioned across workers.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None
    #: bucket index (``int(value).bit_length()``) -> observation count
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Exactly ``for value in values: self.observe(value)`` — the
        same float additions in the same order — with each field read
        and written once."""
        count, total, low, high = self.count, self.total, self.min, self.max
        buckets = self.buckets
        for value in values:
            count += 1
            total += value
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
            bucket = int(value).bit_length()
            buckets[bucket] = buckets.get(bucket, 0) + 1
        self.count, self.total, self.min, self.max = count, total, low, high

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """An upper-bound estimate of the ``q``-quantile (``0 <= q <= 1``).

        Walks the power-of-two buckets to the one holding the ``q``-th
        observation and returns that bucket's inclusive upper edge
        (``2**b - 1``), clamped into ``[min, max]`` so the estimate
        never leaves the observed range.  Exact to within one bucket —
        good enough for the p50/p99 latency gates the benchmarks
        report.

        Explicit edge semantics (pinned by unit tests):

        * an **empty** histogram returns ``0.0`` for every ``q``;
        * ``q == 0.0`` returns the exact observed :attr:`min` and
          ``q == 1.0`` the exact observed :attr:`max` (never a bucket
          edge);
        * a **single-bucket** histogram returns a value inside
          ``[min, max]`` for every ``q`` (the bucket edge clamped into
          the observed range);
        * ``q`` outside ``[0, 1]`` (NaN included) raises ``ValueError``.
        """
        if not q >= 0.0 or not q <= 1.0:  # NaN fails both comparisons
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.count or self.min is None or self.max is None:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * self.count
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= rank:
                upper = float((1 << bucket) - 1) if bucket else 0.0
                return min(max(upper, self.min), self.max)
        return self.max

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for bucket, count in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + count


class RunMetrics:
    """The registry: named counters, histograms, timers and info tags.

    Create one per run (``RunMetrics()``); a run without metrics passes
    ``None`` instead.  The registry is a plain picklable object;
    :meth:`merge` folds another registry (or a :meth:`take` delta) in by
    exact summation.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}
        self.timers: dict[str, Timer] = {}
        #: run-shape details (per-worker task counts, ...) — summed on
        #: merge but *excluded* from determinism comparisons, since the
        #: keys legitimately differ between serial and pooled runs.
        self.info: dict[str, int] = {}

    # -- recording ------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        counter.value += n

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        histogram.observe(value)

    def observe_many(self, name: str, values: Sequence[float]) -> None:
        """Fold a batch of observations into histogram ``name`` (one
        lookup; no histogram is created for an empty batch)."""
        if not values:
            return
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        histogram.observe_many(values)

    def timer_add(self, name: str, seconds: float) -> None:
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = Timer(name)
        timer.add(seconds)

    def info_add(self, name: str, n: int = 1) -> None:
        self.info[name] = self.info.get(name, 0) + n

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Context manager timing its body into timer ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timer_add(name, time.perf_counter() - start)

    # -- accessors ------------------------------------------------------
    def counter_value(self, name: str) -> int:
        counter = self.counters.get(name)
        return counter.value if counter is not None else 0

    def __bool__(self) -> bool:
        """True when anything has been recorded."""
        return bool(self.counters or self.histograms or self.timers or self.info)

    # -- aggregation ----------------------------------------------------
    def merge(self, other: "RunMetrics | Mapping[str, object]") -> "RunMetrics":
        """Fold ``other`` (a registry or a :meth:`take` delta) into self."""
        if isinstance(other, Mapping):
            other = RunMetrics.from_dict(other)
        for name, counter in other.counters.items():
            mine = self.counters.get(name)
            if mine is None:
                self.counters[name] = Counter(name, counter.value)
            else:
                mine.merge(counter)
        for name, histogram in other.histograms.items():
            mine_h = self.histograms.get(name)
            if mine_h is None:
                self.histograms[name] = Histogram(
                    name,
                    histogram.count,
                    histogram.total,
                    histogram.min,
                    histogram.max,
                    dict(histogram.buckets),
                )
            else:
                mine_h.merge(histogram)
        for name, timer in other.timers.items():
            mine_t = self.timers.get(name)
            if mine_t is None:
                self.timers[name] = Timer(name, timer.count, timer.total, timer.max)
            else:
                mine_t.merge(timer)
        for name, value in other.info.items():
            self.info[name] = self.info.get(name, 0) + value
        return self

    def reset(self) -> None:
        self.counters.clear()
        self.histograms.clear()
        self.timers.clear()
        self.info.clear()

    def take(self) -> dict[str, object]:
        """Snapshot-and-reset: the delta since the last take.

        Pool workers call this after every task; the deltas merged in
        task order reproduce the serial registry exactly.
        """
        delta = self.to_dict()
        self.reset()
        return delta

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """A plain-data snapshot (JSON-compatible, deterministic order)."""
        return {
            "counters": {
                name: self.counters[name].value for name in sorted(self.counters)
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "buckets": {str(b): c for b, c in sorted(h.buckets.items())},
                }
                for name, h in sorted(self.histograms.items())
            },
            "timers": {
                name: {"count": t.count, "total": t.total, "max": t.max}
                for name, t in sorted(self.timers.items())
            },
            "info": {name: self.info[name] for name in sorted(self.info)},
        }

    def deterministic_snapshot(self) -> dict[str, object]:
        """The metrics that must be identical between a serial run and
        any pooled run of the same workload: counters and histograms
        (never wall-clock timers or the per-worker ``info`` split),
        minus the :data:`CACHE_SHAPE_PREFIXES` namespaces, whose values
        measure per-worker cache locality rather than the workload."""
        snapshot = self.to_dict()
        return {
            section: {
                name: value
                for name, value in snapshot[section].items()
                if not name.startswith(CACHE_SHAPE_PREFIXES)
            }
            for section in ("counters", "histograms")
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunMetrics":
        metrics = cls()
        for name, value in dict(data.get("counters", {})).items():
            metrics.counters[name] = Counter(name, int(value))
        for name, h in dict(data.get("histograms", {})).items():
            metrics.histograms[name] = Histogram(
                name,
                int(h["count"]),
                float(h["total"]),
                None if h["min"] is None else float(h["min"]),
                None if h["max"] is None else float(h["max"]),
                {int(b): int(c) for b, c in dict(h["buckets"]).items()},
            )
        for name, t in dict(data.get("timers", {})).items():
            metrics.timers[name] = Timer(
                name, int(t["count"]), float(t["total"]), float(t["max"])
            )
        for name, value in dict(data.get("info", {})).items():
            metrics.info[name] = int(value)
        return metrics

    def summary_table(self) -> str:
        """Human-readable summary (see :mod:`repro.telemetry.report`)."""
        from repro.telemetry.report import summary_table

        return summary_table(self)

