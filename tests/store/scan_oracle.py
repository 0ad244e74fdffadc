"""Test-side oracle for :meth:`CampaignStore.refresh`'s scan.

The scan classifies the lines :func:`~repro.store.store.encode_record`
writes by their byte shape and sends every other line through
``json.loads``.  This oracle is the loop it replaced: every line through
:func:`~repro.store.store._parse_record`, so the property suite can
check the two agree line by line and log by log, and the store
benchmark can time one against the other.  Empty lines are skipped
uncounted, as the store does (a crash fence can leave one).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.store.store import _parse_record


def classify_line(line: bytes) -> tuple[str, str | None, str | None]:
    """``(status, fp, kind)`` of one line, ``status`` being ``"ok"``,
    ``"stale"`` or ``"corrupt"`` (``fp`` and ``kind`` only when ok)."""
    record = _parse_record(line)
    if isinstance(record, str):
        return record, None, None
    return "ok", record["fp"], str(record.get("kind", "task"))


@dataclass
class OracleScan:
    """What a store opened on ``data`` indexes and counts."""

    #: fingerprint -> (offset, length) of its first usable record.
    index: dict[str, tuple[int, int]] = field(default_factory=dict)
    kinds: dict[str, str] = field(default_factory=dict)
    #: ``store.{corrupt,stale,duplicate}_records`` as the registry counts them.
    counts: Counter = field(default_factory=Counter)
    #: bytes consumed as complete lines.
    consumed: int = 0


def scan_oracle(data: bytes) -> OracleScan:
    """Index the complete lines of a record log, one ``json.loads`` each."""
    scan = OracleScan()
    consumed = 0
    while True:
        newline = data.find(b"\n", consumed)
        if newline < 0:
            break
        line = data[consumed:newline]
        offset = consumed
        consumed = newline + 1
        if not line:
            continue
        status, fingerprint, kind = classify_line(line)
        if status != "ok":
            scan.counts[f"store.{status}_records"] += 1
        elif fingerprint in scan.index:
            scan.counts["store.duplicate_records"] += 1
        else:
            scan.index[fingerprint] = (offset, len(line))
            scan.kinds[fingerprint] = kind
    scan.consumed = consumed
    return scan
