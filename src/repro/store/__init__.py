"""Content-addressed campaign store: compute any cell once, ever.

The store keys results by sha256 task fingerprints, so campaigns,
sweeps, grids and figures all dedupe against one shared append-only
log:

    from repro.store import CampaignStore, query_experiment

    store = CampaignStore("results-store")
    first = query_experiment(store, "fig09")    # computes, streams cells in
    again = query_experiment(store, "fig09")    # pure store hit, zero engine work
    assert again.from_store and again.result.rows == first.result.rows

Layered modules: :mod:`~repro.store.store` (the log + index and the
ambient binding every batch consults) and
:mod:`~repro.store.query` (experiment-level serving).  Nothing here
imports :mod:`repro.runner`; the runner imports the store.
"""

from repro.store.query import QueryOutcome, experiment_fingerprint, query_experiment
from repro.store.store import (
    MISSING,
    SCHEMA_VERSION,
    CampaignStore,
    get_active_store,
    use_store,
)

__all__ = [
    "MISSING",
    "SCHEMA_VERSION",
    "CampaignStore",
    "QueryOutcome",
    "experiment_fingerprint",
    "get_active_store",
    "query_experiment",
    "use_store",
]
