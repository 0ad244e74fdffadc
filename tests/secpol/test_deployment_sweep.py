"""The deployment_sweep family: curve shapes, workers, checkpointing."""

from __future__ import annotations

import random

import pytest

from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.experiments.sweeps import deployment_sweep
from repro.runner import (
    BaselineCache,
    DeploymentPointTask,
    RunConfig,
)
from repro.store import CampaignStore
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology

TINY = InternetTopologyConfig(
    num_tier1=3,
    num_tier2=5,
    num_tier3=10,
    num_tier4=8,
    num_stubs=25,
    num_content=2,
    sibling_pairs=2,
)

FRACTIONS = (0.0, 0.5, 1.0)


@pytest.fixture(scope="module")
def world():
    return generate_internet_topology(TINY, random.Random(7))


@pytest.fixture()
def engine(world):
    return PropagationEngine(world.graph)


def _sweep(engine, policy, **overrides):
    world_graph = engine.graph
    params = dict(
        victim=overrides.pop("victim"),
        attacker=overrides.pop("attacker"),
        padding=3,
        policy=policy,
        strategy="top-degree-first",
        fractions=FRACTIONS,
        violate_policy=True,
    )
    params.update(overrides)
    return deployment_sweep(engine, **params)


def _resumed(engine, policy, path, **overrides):
    """``_sweep`` recording into, and replaying from, the store at
    ``path`` (what ``--store`` opens)."""
    with CampaignStore(path) as store:
        return _sweep(engine, policy, run=RunConfig(store=store), **overrides)


class TestCurveShapes:
    def test_rov_is_exactly_the_undefended_control(self, world, engine):
        victim, attacker = world.tier1[0], world.tier2[0]
        cache = BaselineCache(engine)
        control = _sweep(
            engine, "none", victim=victim, attacker=attacker, cache=cache
        )
        rov = _sweep(engine, "rov", victim=victim, attacker=attacker, cache=cache)
        assert [r.after_fraction for r in rov] == [
            c.after_fraction for c in control
        ]
        assert all(r.before_fraction == c.before_fraction for r, c in zip(rov, control))

    @pytest.mark.parametrize("policy", ["aspa", "prependguard"])
    def test_path_policies_monotone_nonincreasing(self, world, engine, policy):
        victim, attacker = world.tier1[0], world.tier2[0]
        results = _sweep(engine, policy, victim=victim, attacker=attacker)
        afters = [r.after_fraction for r in results]
        assert all(b <= a for a, b in zip(afters, afters[1:]))
        # fraction 0.0 is the pristine attack; full deployment filters
        # at least something for a leaking tier-2 attacker.
        assert afters[-1] < afters[0]

    def test_fraction_zero_matches_no_policy_point(self, world, engine):
        victim, attacker = world.tier1[0], world.tier2[0]
        cache = BaselineCache(engine)
        control = _sweep(
            engine, "none", victim=victim, attacker=attacker, cache=cache
        )
        for policy in ("rov", "aspa", "prependguard"):
            fraction_zero = _sweep(
                engine,
                policy,
                victim=victim,
                attacker=attacker,
                fractions=(0.0,),
                cache=cache,
            )[0]
            assert fraction_zero.after_fraction == control[0].after_fraction
            assert fraction_zero.deployed_count == 0

    def test_deployed_count_tracks_the_pool(self, world, engine):
        victim, attacker = world.tier1[0], world.tier2[0]
        results = _sweep(engine, "aspa", victim=victim, attacker=attacker)
        counts = [r.deployed_count for r in results]
        assert counts[0] == 0
        assert counts == sorted(counts)
        assert counts[-1] == len(world.graph.ases) - 2  # victim + attacker


class TestWorkerInvariance:
    def test_rows_identical_serial_vs_pool(self, world, engine):
        victim, attacker = world.tier1[0], world.tier2[0]
        serial = _sweep(engine, "prependguard", victim=victim, attacker=attacker)
        pooled = _sweep(
            engine, "prependguard", victim=victim, attacker=attacker, run=RunConfig(workers=2)
        )
        assert [r.row() for r in serial] == [r.row() for r in pooled]
        assert [r.deployed_count for r in serial] == [
            r.deployed_count for r in pooled
        ]


class TestCheckpointing:
    def test_resume_replays_and_other_policies_do_not(
        self, world, engine, tmp_path
    ):
        victim, attacker = world.tier1[0], world.tier2[0]
        store_path = tmp_path / "sweep"
        first = _resumed(
            engine, "aspa", store_path, victim=victim, attacker=attacker
        )
        with CampaignStore(store_path) as recorded:
            assert len(recorded) == len(FRACTIONS)
        # Same configuration: every point replays from the store.
        replayed = _resumed(
            engine, "aspa", store_path, victim=victim, attacker=attacker
        )
        assert [r.row() for r in replayed] == [r.row() for r in first]
        with CampaignStore(store_path) as recorded:
            assert len(recorded) == len(FRACTIONS)
        # A different policy shares no fingerprints: nothing replays,
        # every point is computed and recorded anew.
        other = _resumed(
            engine,
            "prependguard",
            store_path,
            victim=victim,
            attacker=attacker,
        )
        assert [r.policy for r in other] == ["prependguard"] * len(FRACTIONS)
        with CampaignStore(store_path) as recorded:
            assert len(recorded) == 2 * len(FRACTIONS)

    def test_strategy_and_seed_are_fingerprinted(self, world, engine, tmp_path):
        victim, attacker = world.tier1[0], world.tier2[0]
        store_path = tmp_path / "sweep"
        _resumed(
            engine,
            "aspa",
            store_path,
            victim=victim,
            attacker=attacker,
            fractions=(0.5,),
        )
        _resumed(
            engine,
            "aspa",
            store_path,
            victim=victim,
            attacker=attacker,
            fractions=(0.5,),
            strategy="random",
        )
        _resumed(
            engine,
            "aspa",
            store_path,
            victim=victim,
            attacker=attacker,
            fractions=(0.5,),
            strategy="random",
            seed=99,
        )
        with CampaignStore(store_path) as recorded:
            assert len(recorded) == 3


class TestTaskValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError):
            DeploymentPointTask(victim=1, attacker=2, padding=3, policy="bgpsec")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SimulationError):
            DeploymentPointTask(
                victim=1, attacker=2, padding=3, strategy="alphabetical"
            )

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(SimulationError):
            DeploymentPointTask(victim=1, attacker=2, padding=3, fraction=1.5)
