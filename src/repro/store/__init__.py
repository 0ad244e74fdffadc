"""Content-addressed campaign store: compute any cell once, ever.

The store keys results by the same sha256 task fingerprints the
checkpoint journal uses, so campaigns, sweeps, grids and figures all
dedupe against one shared append-only log:

    from repro.store import CampaignStore, query_experiment

    store = CampaignStore("results-store")
    first = query_experiment(store, "fig09")    # computes, streams cells in
    again = query_experiment(store, "fig09")    # pure store hit, zero engine work
    assert again.from_store and again.result.rows == first.result.rows

Layered modules: :mod:`~repro.store.store` (the log + index),
:mod:`~repro.store.adapter` (legacy-journal import) and
:mod:`~repro.store.query` (experiment-level serving).  The ambient
binding every batch consults (:func:`use_store`) is the runner's,
re-exported here.
"""

from repro.runner.batch import get_active_store, use_store
from repro.store.adapter import import_journal
from repro.store.query import QueryOutcome, experiment_fingerprint, query_experiment
from repro.store.store import MISSING, SCHEMA_VERSION, CampaignStore

__all__ = [
    "MISSING",
    "SCHEMA_VERSION",
    "CampaignStore",
    "QueryOutcome",
    "experiment_fingerprint",
    "get_active_store",
    "import_journal",
    "query_experiment",
    "use_store",
]
