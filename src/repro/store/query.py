"""Serve registered experiments from the campaign store.

Two levels of content addressing cooperate here:

* **Task level** — while an experiment computes, the ambient store
  binding (:func:`~repro.store.use_store`) lets the sweep
  machinery dedupe individual grid cells against everything any prior
  campaign converged.
* **Experiment level** — :func:`experiment_fingerprint` hashes the
  experiment id together with its frozen config, and the finished
  :class:`~repro.experiments.base.ExperimentResult` is stored whole
  under that key.  A repeated query is then a single store hit: no
  world build, no engine, zero propagations — the figure comes back
  bit-identical from the log.

Run-shape knobs (the ``workers`` field some configs carry) are masked
out of the fingerprint: results are bit-identical at any worker count
by construction, so a figure computed with 8 workers must serve a
1-worker query.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.store.store import MISSING, CampaignStore, use_store
from repro.telemetry.metrics import RunMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.base import ExperimentResult

__all__ = ["QueryOutcome", "experiment_fingerprint", "query_experiment"]

#: config fields that shape the run, never the rows — masked from the
#: experiment fingerprint so any execution layout serves any query.
_RUN_SHAPE_FIELDS = ("workers",)


@dataclass(frozen=True)
class QueryOutcome:
    """What :func:`query_experiment` did and what it returned."""

    result: "ExperimentResult"
    #: experiment-level content address the result lives under.
    fingerprint: str
    #: True when the result came straight from the store (zero
    #: propagations); False when this call computed and stored it.
    from_store: bool


def experiment_fingerprint(experiment_id: str, config: Any) -> str:
    """Content address of one experiment run: id + frozen config repr.

    Mirrors :func:`~repro.runner.fingerprint.task_fingerprint` — configs
    are frozen dataclasses whose ``repr`` enumerates every field in
    declaration order, so the digest is stable across processes and
    changes whenever any result-shaping input changes.
    """
    masked = {
        name: None
        for name in _RUN_SHAPE_FIELDS
        if dataclasses.is_dataclass(config)
        and any(field.name == name for field in dataclasses.fields(config))
    }
    if masked:
        config = dataclasses.replace(config, **masked)
    identity = (
        f"experiment:{experiment_id}|"
        f"{type(config).__module__}.{type(config).__qualname__}|{config!r}"
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


def query_experiment(
    store: CampaignStore,
    experiment_id: str,
    config: Any = None,
    *,
    metrics: RunMetrics | None = None,
    **overrides: Any,
) -> QueryOutcome:
    """Serve ``experiment_id`` from ``store``, computing only if missing.

    ``config`` and ``overrides`` are those of
    :func:`repro.experiments.experiment_config`.  On a miss the
    experiment runs with ``store`` ambiently bound, so its individual
    cells dedupe against — and stream back into — the same store; the
    finished result is then stored under its experiment fingerprint and
    the next identical query is a pure hit.
    """
    from repro.experiments import experiment_config, run_experiment

    config = experiment_config(experiment_id, config, **overrides)
    fingerprint = experiment_fingerprint(experiment_id, config)
    cached = store.get(fingerprint)
    if cached is not MISSING:
        return QueryOutcome(result=cached, fingerprint=fingerprint, from_store=True)
    with use_store(store):
        result = run_experiment(experiment_id, config, metrics=metrics)
    # The registry is part of the live run, not of the artefact: strip
    # it so the stored payload is pure figure data.
    store.put(
        fingerprint, dataclasses.replace(result, metrics=None), kind="experiment"
    )
    return QueryOutcome(result=result, fingerprint=fingerprint, from_store=False)
