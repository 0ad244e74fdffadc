"""Experiment-level queries: compute once, serve forever from the store."""

from __future__ import annotations

import dataclasses

import pytest

from repro.exceptions import ExperimentError
from repro.store import CampaignStore, experiment_fingerprint, query_experiment
from repro.telemetry.metrics import RunMetrics

#: small scale keeps the cold run to a fraction of a second.
SCALE = 0.2


class TestQueryExperiment:
    def test_figure_served_twice_second_time_from_store(self, tmp_path):
        """The headline acceptance: a repeated query is a pure store
        hit — zero engine propagations — and bit-identical rows."""
        with CampaignStore(tmp_path / "store") as store:
            cold_metrics = RunMetrics()
            cold = query_experiment(
                store, "fig09", metrics=cold_metrics, scale=SCALE
            )
            assert not cold.from_store
            assert any(
                name.startswith("engine.")
                for name in cold_metrics.deterministic_snapshot()["counters"]
            )

            warm_metrics = RunMetrics()
            warm = query_experiment(
                store, "fig09", metrics=warm_metrics, scale=SCALE
            )
            assert warm.from_store
            assert warm.fingerprint == cold.fingerprint
            assert not any(
                name.startswith("engine.")
                for name in warm_metrics.deterministic_snapshot()["counters"]
            )
            assert warm.result.rows == cold.result.rows
            assert warm.result.headers == cold.result.headers
            assert warm.result.summary == cold.result.summary

    def test_cold_run_stores_task_cells_too(self, tmp_path):
        """While computing, the ambient binding streams every grid cell
        into the store alongside the experiment record."""
        with CampaignStore(tmp_path / "store") as store:
            query_experiment(store, "fig09", scale=SCALE)
            stats = store.stats()
            assert stats["kinds"]["experiment"] == 1
            assert stats["kinds"]["task"] > 0

    def test_stored_result_carries_no_metrics_registry(self, tmp_path):
        with CampaignStore(tmp_path / "store") as store:
            query_experiment(store, "fig09", metrics=RunMetrics(), scale=SCALE)
            warm = query_experiment(store, "fig09", scale=SCALE)
            assert warm.result.metrics is None

    def test_override_changes_fingerprint_and_recomputes(self, tmp_path):
        with CampaignStore(tmp_path / "store") as store:
            base = query_experiment(store, "fig09", scale=SCALE)
            other = query_experiment(store, "fig09", scale=SCALE, seed=11)
            assert other.fingerprint != base.fingerprint
            assert not other.from_store

    def test_unknown_experiment_raises(self, tmp_path):
        with CampaignStore(tmp_path / "store") as store:
            with pytest.raises(ExperimentError, match="unknown experiment"):
                query_experiment(store, "fig99")


class TestExperimentFingerprint:
    def test_workers_field_is_masked(self):
        """Results are bit-identical at any worker count, so a figure
        computed with 8 workers must serve a 1-worker query."""
        from repro.experiments import REGISTRY

        factory, _ = REGISTRY["fig09"]
        config = factory()
        assert experiment_fingerprint("fig09", config) == experiment_fingerprint(
            "fig09", dataclasses.replace(config, workers=8)
        )

    def test_result_shaping_fields_do_count(self):
        from repro.experiments import REGISTRY

        factory, _ = REGISTRY["fig09"]
        config = factory()
        assert experiment_fingerprint("fig09", config) != experiment_fingerprint(
            "fig09", dataclasses.replace(config, seed=config.seed + 1)
        )

    def test_experiment_id_is_part_of_the_address(self):
        from repro.experiments import REGISTRY

        factory, _ = REGISTRY["fig09"]
        config = factory()
        assert experiment_fingerprint("fig09", config) != experiment_fingerprint(
            "fig10", config
        )


class TestStudyQuery:
    def test_study_query_delegates_to_store(self, tmp_path):
        """A study's figure is served by ``query_experiment`` with the
        study's seed as an override; there is no façade method."""
        with CampaignStore(tmp_path / "store") as store:
            cold = query_experiment(store, "fig09", scale=SCALE, seed=7)
            assert not cold.from_store
            warm = query_experiment(store, "fig09", scale=SCALE, seed=7)
            assert warm.from_store
            assert warm.result.rows == cold.result.rows
            assert cold.result.params["seed"] == 7
