"""The paper's study workflow on the figures' world (``build_world``).

One attack instance is the public functions over a world's parts
(engine, collector, detector); a campaign is
:func:`repro.experiments.sweeps.campaign`; the CLI's batch commands run
both on the same world the figures build.
"""

from __future__ import annotations

import random
import statistics

import pytest

import repro.experiments.base as base
from repro.attack.interception import simulate_interception
from repro.bgp.collectors import RouteCollector
from repro.cli import main
from repro.detection.alarms import Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.monitors import top_degree_monitors
from repro.detection.placement import greedy_cover_monitors
from repro.detection.timing import detection_timing
from repro.exceptions import ExperimentError
from repro.experiments.base import attack_pools, build_world
from repro.experiments.sweeps import campaign, exhaustive_grid
from repro.measurement.padding_model import PaddingBehaviorModel
from repro.measurement.ribs import build_monitor_ribs
from repro.mitigation.reactive import reactive_padding_reduction
from repro.runner import CampaignPairResult, RunConfig
from repro.runner.executor import available_cpus
from repro.secpol.deployment import simulate_cautious_deployment
from repro.store import CampaignStore
from repro.telemetry.metrics import RunMetrics
from repro.topology.generators import InternetTopologyConfig
from repro.utils.rand import derive_rng, make_rng

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
def world():
    return build_world(seed=7, config=STUDY_CONFIG)


@pytest.fixture(scope="module")
def fleet(world) -> list[int]:
    return top_degree_monitors(world.graph, 40)


@pytest.fixture(scope="module")
def collector(world, fleet) -> RouteCollector:
    return RouteCollector(world.graph, fleet)


@pytest.fixture(scope="module")
def detector(world) -> ASPPInterceptionDetector:
    return ASPPInterceptionDetector(world.graph)


def _campaign(world, fleet, pairs, **run):
    attackers, victims = attack_pools(world.topology)
    return campaign(
        world.engine,
        fleet,
        pairs=pairs,
        padding=3,
        attackers=attackers,
        victims=victims,
        rng=derive_rng(make_rng(world.seed), "study-campaign"),
        run=RunConfig(**run),
    )


def _out(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


class TestConstruction:
    def test_generate_is_deterministic(self):
        a = build_world(seed=7, config=STUDY_CONFIG)
        b = build_world(seed=7, config=STUDY_CONFIG)
        assert list(a.graph.edges()) == list(b.graph.edges())
        assert top_degree_monitors(a.graph, 40) == top_degree_monitors(b.graph, 40)

    def test_same_seed_same_world_as_the_experiments(self, monkeypatch, capsys):
        """A batch command on a generated world runs on ``build_world``'s."""
        built, build = [], base.build_world

        def recorded(**kwargs):
            built.append(build(**kwargs))
            return built[-1]

        monkeypatch.setattr(base, "build_world", recorded)
        _out(capsys, ["campaign", "--seed", "7", "--scale", "0.2", "--pairs", "2"])
        (batch,) = built
        world = build_world(seed=7, scale=0.2).topology
        assert list(batch.graph.edges()) == list(world.graph.edges())
        assert batch.topology.sibling_pairs == world.sibling_pairs

    def test_placement_strategies(self, world, capsys):
        assert top_degree_monitors(world.graph, 20) != greedy_cover_monitors(world.graph, 20)
        args = ["campaign", "--scale", "0.15", "--pairs", "20", "--monitors", "20"]
        top = _out(capsys, args + ["--placement", "top-degree"]).splitlines()
        cover = _out(capsys, args + ["--placement", "greedy-cover"]).splitlines()
        assert top[1:3] == cover[1:3]  # the same attacks ...
        assert top[3] != cover[3]  # ... watched by another fleet

    def test_unknown_placement_rejected(self, monkeypatch, capsys):
        """A usage error before any world is built."""

        def built(**kwargs):
            raise AssertionError("the world was built before the flags were checked")

        monkeypatch.setattr(base, "build_world", built)
        with pytest.raises(SystemExit) as usage:
            main(["campaign", "--scale", "0.15", "--placement", "astrology"])
        assert usage.value.code == 2
        assert "argument --placement: invalid choice: 'astrology'" in capsys.readouterr().err

    def test_monitor_count_capped_by_world(self, capsys):
        out = _out(
            capsys, ["campaign", "--scale", "0.15", "--pairs", "2", "--monitors", "1000000"]
        )
        size = len(build_world(seed=7, scale=0.15).graph)
        assert out.startswith(f"campaign: 2 random attacks, λ=3, {size} monitors (top-degree)\n")


class TestWorkflow:
    """One attack instance runs on the public functions over the
    world's parts (``engine``, a collector, a detector)."""

    @staticmethod
    def _attack(world, padding=3):
        return simulate_interception(
            world.engine,
            victim=world.topology.content[0],
            attacker=world.topology.tier1[0],
            origin_padding=padding,
        )

    def test_attack_and_detection(self, world, collector, detector):
        result = self._attack(world)
        timing = detection_timing(result, collector, detector)
        assert result.report.after_fraction >= result.report.before_fraction
        assert isinstance(timing.detected, bool)

    def test_high_confidence_filter(self, world, collector, detector):
        result = self._attack(world)
        low = detection_timing(result, collector, detector, min_confidence=Confidence.LOW)
        high = detection_timing(result, collector, detector, min_confidence=Confidence.HIGH)
        assert len(high.alarms) <= len(low.alarms)

    def test_reactive_defense(self, world):
        mitigation = reactive_padding_reduction(world.engine, self._attack(world, 4))
        assert mitigation.report.gain == pytest.approx(0.0, abs=1e-12)

    def test_cautious_defense(self, world):
        result = self._attack(world, 4)
        report = simulate_cautious_deployment(
            world.engine,
            victim=result.attack.victim,
            attacker=result.attack.attacker,
            origin_padding=result.origin_padding,
            deployment_fraction=1.0,
            rng=random.Random(7),
        )
        assert report.gain <= 1e-12

    def test_characterization(self, world, collector):
        ribs = build_monitor_ribs(
            world.graph,
            collector,
            num_prefixes=30,
            model=PaddingBehaviorModel(),
            rng=random.Random(7),
            engine=world.engine,
        )
        assert len(ribs.origins) == 30
        assert ribs.tables

    def test_campaign_aggregates(self, capsys):
        """The CLI's three aggregates are its rows' effective count,
        mean pollution and detection rate."""
        out = _out(
            capsys, ["campaign", "--scale", "0.15", "--pairs", "10", "--monitors", "20"]
        )
        world = build_world(seed=7, scale=0.15)
        rows = _campaign(world, top_degree_monitors(world.graph, 20), 10)
        assert len(rows) == 10
        effective = [r for r in rows if r.newly_polluted]
        assert effective and not all(r.detected for r in effective)
        detected = sum(r.detected for r in effective) / len(effective)
        mean = statistics.mean(r.after_fraction for r in rows)
        assert out.splitlines()[1:] == [
            f"  effective attacks:   {len(effective)}/10",
            f"  mean pollution:      {mean:.1%}",
            f"  detection rate:      {detected:.1%}",
        ]

    def test_a_campaign_row_is_its_attack_and_timing(self, world, fleet, collector, detector):
        """A row holds what ``simulate_interception`` and
        ``detection_timing`` say about the pair, and nothing else."""
        rows = _campaign(world, fleet, 6)
        assert all(type(row) is CampaignPairResult for row in rows)
        for row in rows:
            result = simulate_interception(
                world.engine, victim=row.victim, attacker=row.attacker, origin_padding=3
            )
            timing = detection_timing(result, collector, detector)
            assert row == CampaignPairResult(
                attacker=row.attacker,
                victim=row.victim,
                padding=3,
                before_fraction=result.report.before_fraction,
                after_fraction=result.report.after_fraction,
                newly_polluted=len(result.report.newly_polluted),
                detected=timing.detected,
            )

    def test_campaign_requires_pairs(self, world, fleet):
        with pytest.raises(ExperimentError):
            _campaign(world, fleet, 0)

    def test_empty_campaign_statistics(self, capsys):
        """With nothing captured (λ=1 gives an attacker nothing to
        strip) the detection rate is 0, not a division by zero."""
        out = _out(capsys, ["campaign", "--scale", "0.15", "--pairs", "5", "--padding", "1"])
        assert "  effective attacks:   0/5\n" in out
        assert out.endswith("  detection rate:      0.0%\n")


class TestLazyCompile:
    """A world compiles its topology when a propagation needs it, once,
    and not at all when every cell comes from the store."""

    @pytest.fixture()
    def fresh_world(self, compile_calls):
        world = build_world(seed=7, config=STUDY_CONFIG)
        assert compile_calls == []
        return world

    @staticmethod
    def _grid(world, **run):
        return exhaustive_grid(
            world.engine,
            attackers=world.topology.transit_ases[:3],
            victims=world.graph.ases[::40],
            origin_padding=3,
            run=RunConfig(**run),
        )

    def test_warm_store_grid_never_compiles(self, fresh_world, compile_calls, tmp_path):
        with CampaignStore(tmp_path / "store") as store:
            cold = self._grid(fresh_world, store=store)
        assert len(compile_calls) == 1
        del compile_calls[:]
        replay = build_world(seed=7, config=STUDY_CONFIG)
        with CampaignStore(tmp_path / "store") as store:
            assert self._grid(replay, store=store) == cold
        assert compile_calls == []

    @pytest.mark.skipif(available_cpus() < 2, reason="the pool needs two CPUs")
    def test_pooled_grid_compiles_once_in_the_parent(self, fresh_world, compile_calls):
        metrics = RunMetrics()
        pooled = self._grid(fresh_world, workers=2, metrics=metrics)
        assert any(name.startswith("worker.pid") for name in metrics.info)
        assert compile_calls == [fresh_world.graph]
        # The serial rerun propagates on the arrays the workers inherited.
        assert self._grid(fresh_world) == pooled
        assert len(compile_calls) == 1
