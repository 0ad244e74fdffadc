"""Tests for the InterceptionStudy façade."""

from __future__ import annotations

import random

import pytest

from repro.attack.interception import simulate_interception
from repro.core import AttackCampaign, InterceptionStudy
from repro.detection.alarms import Confidence
from repro.detection.timing import detection_timing
from repro.exceptions import ExperimentError, SimulationError
from repro.experiments.base import build_world
from repro.measurement.padding_model import PaddingBehaviorModel
from repro.measurement.ribs import build_monitor_ribs
from repro.mitigation.reactive import reactive_padding_reduction
from repro.runner import CampaignPairResult, RunConfig
from repro.runner.executor import available_cpus
from repro.secpol.deployment import simulate_cautious_deployment
from repro.store import CampaignStore
from repro.telemetry.metrics import RunMetrics
from repro.topology.generators import InternetTopologyConfig

STUDY_CONFIG = InternetTopologyConfig(
    num_tier1=4,
    num_tier2=8,
    num_tier3=20,
    num_tier4=20,
    num_stubs=80,
    num_content=3,
    sibling_pairs=2,
)


@pytest.fixture(scope="module")
def study() -> InterceptionStudy:
    return InterceptionStudy.generate(seed=7, config=STUDY_CONFIG, monitors=40)


class TestConstruction:
    def test_generate_is_deterministic(self):
        a = InterceptionStudy.generate(seed=7, config=STUDY_CONFIG)
        b = InterceptionStudy.generate(seed=7, config=STUDY_CONFIG)
        assert list(a.world.graph.edges()) == list(b.world.graph.edges())
        assert a.collector.monitors == b.collector.monitors

    def test_same_seed_same_world_as_the_experiments(self):
        study = InterceptionStudy.generate(seed=7, scale=0.2, monitors=10)
        world = build_world(seed=7, scale=0.2).topology
        assert list(study.world.graph.edges()) == list(world.graph.edges())
        assert study.world.sibling_pairs == world.sibling_pairs

    def test_placement_strategies(self):
        top = InterceptionStudy.generate(
            seed=7, config=STUDY_CONFIG, monitors=20, placement="top-degree"
        )
        cover = InterceptionStudy.generate(
            seed=7, config=STUDY_CONFIG, monitors=20, placement="greedy-cover"
        )
        assert top.collector.monitors != cover.collector.monitors

    def test_unknown_placement_rejected(self):
        with pytest.raises(SimulationError):
            InterceptionStudy.generate(
                seed=7, config=STUDY_CONFIG, placement="astrology"
            )

    def test_monitor_count_capped_by_world(self):
        study = InterceptionStudy.generate(
            seed=7, config=STUDY_CONFIG, monitors=10**6
        )
        assert len(study.collector.monitors) == len(study.world.graph)


class TestWorkflow:
    """One attack instance runs on the public functions over the
    study's parts (``engine``, ``collector``, ``detector``)."""

    @staticmethod
    def _attack(study, padding=3):
        return simulate_interception(
            study.engine,
            victim=study.world.content[0],
            attacker=study.world.tier1[0],
            origin_padding=padding,
        )

    def test_attack_and_detection(self, study):
        result = self._attack(study)
        timing = detection_timing(result, study.collector, study.detector)
        assert result.report.after_fraction >= result.report.before_fraction
        assert isinstance(timing.detected, bool)

    def test_high_confidence_filter(self, study):
        result = self._attack(study)
        low = detection_timing(
            result, study.collector, study.detector, min_confidence=Confidence.LOW
        )
        high = detection_timing(
            result, study.collector, study.detector, min_confidence=Confidence.HIGH
        )
        assert len(high.alarms) <= len(low.alarms)

    def test_reactive_defense(self, study):
        mitigation = reactive_padding_reduction(study.engine, self._attack(study, 4))
        assert mitigation.report.gain == pytest.approx(0.0, abs=1e-12)

    def test_cautious_defense(self, study):
        result = self._attack(study, 4)
        report = simulate_cautious_deployment(
            study.engine,
            victim=result.attack.victim,
            attacker=result.attack.attacker,
            origin_padding=result.origin_padding,
            deployment_fraction=1.0,
            rng=random.Random(7),
        )
        assert report.gain <= 1e-12

    def test_characterization(self, study):
        ribs = build_monitor_ribs(
            study.world.graph,
            study.collector,
            num_prefixes=30,
            model=PaddingBehaviorModel(),
            rng=random.Random(7),
            engine=study.engine,
        )
        assert len(ribs.origins) == 30
        assert ribs.tables

    def test_campaign_aggregates(self, study):
        campaign = study.campaign(pairs=10, padding=3)
        assert len(campaign.results) == 10
        assert 0.0 <= campaign.mean_pollution <= 1.0
        assert 0.0 <= campaign.detection_rate <= 1.0
        assert all(r in campaign.results for r in campaign.effective)

    def test_a_campaign_row_is_its_attack_and_timing(self, study):
        """A row holds what ``simulate_interception`` and
        ``detection_timing`` say about the pair, and nothing else."""
        campaign = study.campaign(pairs=6, padding=3)
        assert all(type(row) is CampaignPairResult for row in campaign.results)
        for row in campaign.results:
            result = simulate_interception(
                study.engine, victim=row.victim, attacker=row.attacker, origin_padding=3
            )
            timing = detection_timing(result, study.collector, study.detector)
            assert row == CampaignPairResult(
                attacker=row.attacker,
                victim=row.victim,
                padding=3,
                before_fraction=result.report.before_fraction,
                after_fraction=result.report.after_fraction,
                newly_polluted=len(result.report.newly_polluted),
                detected=timing.detected,
            )

    def test_campaign_requires_pairs(self, study):
        with pytest.raises(ExperimentError):
            study.campaign(pairs=0, padding=3)

    def test_empty_campaign_statistics(self):
        campaign = AttackCampaign()
        assert campaign.mean_pollution == 0.0
        assert campaign.detection_rate == 0.0


class TestLazyCompile:
    """The study compiles its topology when a propagation needs it,
    once, and not at all when every cell comes from the store."""

    @pytest.fixture()
    def fresh_study(self, compile_calls) -> InterceptionStudy:
        study = InterceptionStudy.generate(seed=7, config=STUDY_CONFIG, monitors=40)
        assert compile_calls == []
        return study

    @staticmethod
    def _grid(study, **run):
        world = study.world
        return study.exhaustive_grid(
            padding=3,
            attacker_pool=world.transit_ases[:3],
            victim_pool=world.graph.ases[::40],
            run=RunConfig(**run),
        )

    def test_warm_store_grid_never_compiles(self, fresh_study, compile_calls, tmp_path):
        with CampaignStore(tmp_path / "store") as store:
            cold = self._grid(fresh_study, store=store)
        assert len(compile_calls) == 1
        del compile_calls[:]
        replay = InterceptionStudy.generate(seed=7, config=STUDY_CONFIG, monitors=40)
        with CampaignStore(tmp_path / "store") as store:
            assert self._grid(replay, store=store) == cold
        assert compile_calls == []

    @pytest.mark.skipif(available_cpus() < 2, reason="the pool needs two CPUs")
    def test_pooled_grid_compiles_once_in_the_parent(self, fresh_study, compile_calls):
        metrics = RunMetrics()
        pooled = self._grid(fresh_study, workers=2, metrics=metrics)
        assert any(name.startswith("worker.pid") for name in metrics.info)
        assert compile_calls == [fresh_study.world.graph]
        # The serial rerun propagates on the arrays the workers inherited.
        assert self._grid(fresh_study) == pooled
        assert len(compile_calls) == 1
