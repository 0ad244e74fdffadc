"""Lifting a legacy checkpoint journal into the shared store.

:class:`~repro.runner.checkpoint.CheckpointJournal` predates the store
and stays fully supported — it is the right tool for a single run's
crash/resume.  :func:`import_journal` copies a ``--resume`` journal's
success records into a store, after which the journal file can be
deleted — its results keep serving every future campaign.  (A run given
both a journal and a store does the same for the cells it replays; see
:class:`~repro.runner.ShardedScheduler`.)

Failures are deliberately *not* imported: the store is content-addressed
truth about completed work, and a quarantined task should be retried by
the next run, not remembered forever.
"""

from __future__ import annotations

from pathlib import Path

from repro.runner.checkpoint import CheckpointJournal
from repro.store.store import CampaignStore

__all__ = ["import_journal"]


def import_journal(
    journal: CheckpointJournal | str | Path, store: CampaignStore
) -> int:
    """Copy a legacy journal's success records into ``store``.

    Accepts an open journal or a path to one; returns how many records
    were actually new to the store (already-stored fingerprints dedupe
    away).  The journal is left untouched — both paths stay green.
    """
    owned = not isinstance(journal, CheckpointJournal)
    source = CheckpointJournal(journal) if owned else journal
    try:
        imported = 0
        for fingerprint, result in source.successes():
            if store.put(fingerprint, result):
                imported += 1
        return imported
    finally:
        if owned:
            source.close()
