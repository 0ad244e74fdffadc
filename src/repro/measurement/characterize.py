"""Characterising ASPP usage (the statistics behind Figures 5 and 6).

* :func:`prepended_fraction_per_monitor` — for each monitor, the
  fraction of prefixes whose best route contains prepending (Figure 5
  plots the CDF of this statistic over monitors, for all monitors and
  Tier-1-only, and for table routes vs. update routes);
* :func:`padding_count_distribution` — the distribution of the number
  of duplicated ASNs over observed routes (Figure 6).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.bgp.aspath import has_prepending, max_prepending_run
from repro.bgp.updates import UpdateMessage
from repro.exceptions import MeasurementError
from repro.measurement.ribs import MonitorRIBs

__all__ = [
    "prepended_fraction_per_monitor",
    "padding_count_distribution",
    "update_paths",
]

Path = tuple[int, ...]


def prepended_fraction_per_monitor(
    ribs: MonitorRIBs, *, monitors: Iterable[int] | None = None
) -> dict[int, float]:
    """Fraction of each monitor's table routes that carry prepending.

    ``monitors`` restricts the computation (e.g. to Tier-1 monitors for
    Figure 5's second series).  Monitors with empty tables are skipped.
    """
    selected = set(monitors) if monitors is not None else None
    fractions: dict[int, float] = {}
    for monitor, table in ribs.tables.items():
        if selected is not None and monitor not in selected:
            continue
        if not table:
            continue
        prepended = sum(1 for route in table.values() if has_prepending(route.path))
        fractions[monitor] = prepended / len(table)
    if not fractions:
        raise MeasurementError("no monitor has any routes to characterise")
    return fractions


def update_paths(messages: Iterable[UpdateMessage]) -> list[Path]:
    """AS-PATHs of non-withdrawal update messages."""
    return [message.path for message in messages if not message.withdrawn and message.path]


def padding_count_distribution(paths: Iterable[Path]) -> dict[int, float]:
    """Distribution of the number of duplicated ASNs over prepended routes.

    For each route carrying prepending, the statistic is the longest
    consecutive run of one ASN (the paper's "number of duplicate ASNs");
    the result maps run length -> fraction among prepended routes, which
    is Figure 6's y-axis (log scale).
    """
    counts: Counter = Counter()
    for path in paths:
        run = max_prepending_run(path)
        if run >= 2:
            counts[run] += 1
    total = sum(counts.values())
    if total == 0:
        raise MeasurementError("no prepended routes found in the sample")
    return {run: counts[run] / total for run in sorted(counts)}
