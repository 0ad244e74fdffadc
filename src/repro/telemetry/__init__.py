"""Run telemetry: lightweight, dependency-free instrumentation.

Every layer of the simulator can report what work it did into a
:class:`RunMetrics` registry — announcements processed and decision
fast-path hits in the engine, baseline-cache hits and misses in
the runner, per-worker task counts in the batch runner, updates
consumed and time-to-first-alarm in the detectors.  "Metrics off" is
``metrics=None``, which costs one hoisted check per hot loop;
registries are picklable and mergeable, so per-worker metrics from a
process pool aggregate exactly into one report; the report serialises
to JSONL event logs or a human-readable summary table.

Instrumentation never changes results: metrics are pure observations,
and the differential test suite pins that a run recording into a
registry produces bit-identical experiment artefacts to one without.
"""

from repro.telemetry.metrics import (
    CACHE_SHAPE_PREFIXES,
    Counter,
    Histogram,
    RunMetrics,
    Timer,
)
from repro.telemetry.report import (
    events,
    from_jsonl,
    read_jsonl,
    summary_table,
    to_jsonl,
    write_jsonl,
)
from repro.telemetry.slo import (
    SLO,
    SLO_KINDS,
    BreachEvent,
    SLORegistry,
    SLOTracker,
    default_pipeline_slos,
)

__all__ = [
    "CACHE_SHAPE_PREFIXES",
    "Counter",
    "Histogram",
    "RunMetrics",
    "Timer",
    "events",
    "from_jsonl",
    "read_jsonl",
    "summary_table",
    "to_jsonl",
    "write_jsonl",
    "SLO",
    "SLO_KINDS",
    "BreachEvent",
    "SLORegistry",
    "SLOTracker",
    "default_pipeline_slos",
]
