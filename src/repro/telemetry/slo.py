"""Rolling service-level objectives over run telemetry.

The p50/p99 records the benchmarks report are point-in-time summaries;
a long-running detection deployment needs *objectives*: "the 99th
percentile of alarm latency over the last N observations stays below
X", with a structured, machine-readable event whenever the objective is
breached.  This module turns the histogram primitives into exactly
that:

* :class:`SLO` declares one objective — a metric, a quantile, a
  threshold, and a rolling window;
* :class:`SLOTracker` maintains the rolling window and emits
  :class:`BreachEvent` records the moment the windowed quantile crosses
  the threshold (edge-triggered: one event per excursion, not one per
  observation, so a sustained breach produces one event when it starts
  and a fresh event only after the objective recovers);
* :class:`SLORegistry` groups the trackers of one run, fans
  observations out by SLO name, and renders everything as summary rows
  or JSONL events alongside the :mod:`repro.telemetry.report` output.

Three objective kinds are predefined for the streaming mitigation loop
(:func:`default_pipeline_slos`): ``alarm-latency`` (updates between an
attack entering the stream and its first alarm), ``feed-staleness``
(per-feed backlog while a feed is disconnected) and
``recovery-deadline`` (re-convergence rounds after a mitigation
re-announce).  Trackers are deterministic: the same observation
sequence always yields the same breach events.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import ceil, inf

from repro.telemetry.metrics import RunMetrics

__all__ = [
    "SLO_KINDS",
    "SLO",
    "BreachEvent",
    "SLOTracker",
    "SLORegistry",
    "default_pipeline_slos",
]

#: The objective kinds the mitigation loop ships with.  ``kind`` is a
#: free-form label (custom SLOs may use their own); these are the ones
#: the pipeline and controller emit.
SLO_KINDS = ("alarm-latency", "feed-staleness", "recovery-deadline")


@dataclass(frozen=True)
class SLO:
    """One rolling objective: ``quantile(window) <= threshold``."""

    name: str
    kind: str
    threshold: float
    quantile: float = 0.99
    #: rolling window length in observations (the tracker never holds
    #: more than this many values — memory is bounded by construction)
    window: int = 256

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an SLO needs a name")
        if not 0.0 <= self.threshold < inf:
            raise ValueError(
                f"SLO threshold {self.threshold} is not a finite number of at least 0"
            )
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError(f"SLO quantile {self.quantile} outside [0, 1]")
        if self.window < 1:
            raise ValueError("SLO window must be >= 1")


@dataclass(frozen=True)
class BreachEvent:
    """A structured record of one objective excursion."""

    slo: str
    kind: str
    threshold: float
    observed: float
    quantile: float
    #: observation index (1-based) at which the breach started
    at: int

    def to_event(self) -> dict[str, object]:
        """A JSONL-ready dict (mirrors the metrics event schema)."""
        return {
            "event": "slo-breach",
            "slo": self.slo,
            "kind": self.kind,
            "threshold": self.threshold,
            "observed": self.observed,
            "quantile": self.quantile,
            "at": self.at,
        }


def _window_quantile(values: list[float], q: float) -> float:
    """Exact nearest-rank quantile of a non-empty sorted list."""
    if q <= 0.0:
        return values[0]
    if q >= 1.0:
        return values[-1]
    rank = min(len(values), max(1, ceil(q * len(values))))
    return values[rank - 1]


class SLOTracker:
    """Rolling window + edge-triggered breach detection for one SLO.

    ``record`` appends an observation, evaluates the windowed quantile,
    and returns a :class:`BreachEvent` when the objective *newly*
    fails (it returns ``None`` while a breach is ongoing; the next
    event fires only after the objective recovers first).  A tracker
    with an empty window is healthy by definition: :meth:`current`
    returns ``0.0`` and :meth:`healthy` is ``True`` — never a crash.
    """

    def __init__(self, slo: SLO, *, metrics: RunMetrics | None = None) -> None:
        self.slo = slo
        self.metrics = metrics
        self._window: deque[float] = deque(maxlen=slo.window)
        self.observations = 0
        self.breaches: list[BreachEvent] = []
        self._in_breach = False

    def current(self) -> float:
        """The windowed quantile right now (``0.0`` on an empty window)."""
        if not self._window:
            return 0.0
        return _window_quantile(sorted(self._window), self.slo.quantile)

    def healthy(self) -> bool:
        return not self._window or self.current() <= self.slo.threshold

    def record(self, value: float) -> BreachEvent | None:
        """Observe one value; returns the breach it opened, if any."""
        self._window.append(float(value))
        self.observations += 1
        observed = self.current()
        if observed <= self.slo.threshold:
            self._in_breach = False
            return None
        if self._in_breach:
            return None  # ongoing excursion: already reported
        self._in_breach = True
        event = BreachEvent(
            slo=self.slo.name,
            kind=self.slo.kind,
            threshold=self.slo.threshold,
            observed=observed,
            quantile=self.slo.quantile,
            at=self.observations,
        )
        self.breaches.append(event)
        if self.metrics is not None:
            self.metrics.count(f"slo.breaches.{self.slo.name}")
        return event


class SLORegistry:
    """The SLO trackers of one run, addressable by SLO name."""

    def __init__(
        self,
        slos: Iterable[SLO] = (),
        *,
        metrics: RunMetrics | None = None,
    ) -> None:
        self.metrics = metrics
        self.trackers: dict[str, SLOTracker] = {}
        for slo in slos:
            self.add(slo)

    def __bool__(self) -> bool:
        return bool(self.trackers)

    def __iter__(self) -> Iterator[SLOTracker]:
        return iter(self.trackers.values())

    def add(self, slo: SLO) -> SLOTracker:
        if slo.name in self.trackers:
            raise ValueError(f"duplicate SLO name {slo.name!r}")
        tracker = self.trackers[slo.name] = SLOTracker(slo, metrics=self.metrics)
        return tracker

    def record(self, name: str, value: float) -> BreachEvent | None:
        """Observe ``value`` against SLO ``name``; unknown names are
        ignored (a pipeline emits every signal it has — the operator
        chooses which objectives to hold it to)."""
        tracker = self.trackers.get(name)
        if tracker is None:
            return None
        return tracker.record(value)

    def breaches(self) -> list[BreachEvent]:
        """Every breach so far, in (SLO registration, occurrence) order."""
        out: list[BreachEvent] = []
        for tracker in self.trackers.values():
            out.extend(tracker.breaches)
        return out

    def events(self) -> list[dict[str, object]]:
        """JSONL-ready breach events (the structured alerting surface)."""
        return [breach.to_event() for breach in self.breaches()]

    def summary_rows(self) -> list[tuple[object, ...]]:
        """``(slo, kind, objective, observed, status, breaches)`` rows."""
        rows: list[tuple[object, ...]] = []
        for tracker in self.trackers.values():
            slo = tracker.slo
            status = "ok" if tracker.healthy() else "BREACHED"
            if not tracker.observations:
                status = "no data"
            rows.append(
                (
                    slo.name,
                    slo.kind,
                    f"p{slo.quantile * 100:g} <= {slo.threshold:g}",
                    f"{tracker.current():g}",
                    status,
                    len(tracker.breaches),
                )
            )
        return rows

    def summary_table(self) -> str:
        from repro.utils.tables import format_table

        rows = self.summary_rows()
        if not rows:
            rows = [("(no objectives)", "-", "-", "-", "-", "-")]
        return format_table(
            ("slo", "kind", "objective", "observed", "status", "breaches"),
            rows,
            title="service-level objectives",
        )


def default_pipeline_slos(
    *,
    alarm_latency_updates: float = 2000.0,
    feed_staleness_updates: float = 512.0,
    recovery_rounds: float = 12.0,
    window: int = 256,
) -> tuple[SLO, ...]:
    """The mitigation loop's stock objectives.

    ``alarm-latency`` holds the p99 of updates-to-alarm under
    ``alarm_latency_updates``; ``feed-staleness`` holds the p99 per-feed
    backlog (updates buffered behind a disconnected feed) under
    ``feed_staleness_updates``; ``recovery-deadline`` holds the *max*
    (p100) re-convergence rounds of a mitigation step under
    ``recovery_rounds``.
    """
    return (
        SLO(
            name="alarm-latency",
            kind="alarm-latency",
            threshold=alarm_latency_updates,
            quantile=0.99,
            window=window,
        ),
        SLO(
            name="feed-staleness",
            kind="feed-staleness",
            threshold=feed_staleness_updates,
            quantile=0.99,
            window=window,
        ),
        SLO(
            name="recovery-deadline",
            kind="recovery-deadline",
            threshold=recovery_rounds,
            quantile=1.0,
            window=window,
        ),
    )
