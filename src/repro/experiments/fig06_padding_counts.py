"""Figure 6 — number of duplicate ASNs.

The paper plots the distribution of the padding count (longest run of
one ASN) over observed routes, for routing tables and for update
files, on a log-scaled fraction axis.  Expected shape: mode at 2
(~34%), 3 (~22%), a long geometric tail, ~1% above 10, and the updates
series heavier-tailed than the tables series.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import MeasurementError
from repro.experiments.base import ExperimentResult, instrumented
from repro.telemetry.metrics import RunMetrics
from repro.experiments.measurement_world import build_measurement_world
from repro.measurement.characterize import padding_count_distribution, update_paths

__all__ = ["Fig06Config", "run"]


@dataclass(frozen=True)
class Fig06Config:
    seed: int = 7
    scale: float = 1.0
    num_monitors: int = 60
    num_prefixes: int = 400
    churn_origins: int = 40
    churn_events: int = 2


@instrumented("fig06")
def run(
    config: Fig06Config = Fig06Config(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Regenerate Figure 6's two padding-count distributions."""
    data = build_measurement_world(
        seed=config.seed,
        scale=config.scale,
        num_monitors=config.num_monitors,
        num_prefixes=config.num_prefixes,
        churn_origins=config.churn_origins,
        churn_events=config.churn_events,
        metrics=metrics,
    )
    table_dist = padding_count_distribution(data.ribs.all_paths())
    try:
        updates_dist = padding_count_distribution(update_paths(data.updates))
    except MeasurementError:
        updates_dist = {}

    rows: list[tuple[object, ...]] = []
    all_counts = sorted(set(table_dist) | set(updates_dist))
    for count in all_counts:
        rows.append(
            (
                count,
                round(table_dist.get(count, 0.0), 5),
                round(updates_dist.get(count, 0.0), 5),
            )
        )
    summary = {
        "table_fraction_pad2": table_dist.get(2, 0.0),
        "table_fraction_pad3": table_dist.get(3, 0.0),
        "table_fraction_above10": sum(v for k, v in table_dist.items() if k > 10),
        "max_padding_observed": float(max(all_counts)) if all_counts else 0.0,
    }
    if updates_dist:
        summary["updates_fraction_above10"] = sum(
            v for k, v in updates_dist.items() if k > 10
        )
    return ExperimentResult(
        experiment_id="fig06",
        title="Number of duplicate ASNs (fraction of prepended routes)",
        params={
            "monitors": config.num_monitors,
            "prefixes": config.num_prefixes,
            "seed": config.seed,
            "scale": config.scale,
        },
        headers=("padding_count", "fraction_table", "fraction_updates"),
        rows=rows,
        summary=summary,
        notes=[
            "paper: 34% repeat twice, 22% three times, ~1% more than ten "
            "times; update routes show larger duplications than table routes"
        ],
    )
