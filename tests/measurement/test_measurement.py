"""Tests for the padding model, monitor-RIB builder, and characterisation."""

from __future__ import annotations

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.collectors import RouteCollector
from repro.exceptions import MeasurementError
from repro.measurement.characterize import (
    padding_count_distribution,
    prepended_fraction_per_monitor,
    update_paths,
)
from repro.measurement.padding_model import PADDING_COUNT_WEIGHTS, PaddingBehaviorModel
from repro.measurement.ribs import build_monitor_ribs
from repro.bgp.updates import UpdateMessage


class TestPaddingModel:
    def test_invalid_probabilities_rejected(self):
        with pytest.raises(MeasurementError):
            PaddingBehaviorModel(prepend_prob=1.5)
        with pytest.raises(MeasurementError):
            PaddingBehaviorModel(preferred_fraction=-0.1)

    def test_counts_below_two_rejected(self):
        with pytest.raises(MeasurementError):
            PaddingBehaviorModel(count_weights={1: 1.0})
        with pytest.raises(MeasurementError):
            PaddingBehaviorModel(count_weights={})

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_sampled_counts_within_support(self, seed):
        model = PaddingBehaviorModel()
        rng = random.Random(seed)
        for _ in range(50):
            count = model.sample_count(rng)
            assert count in PADDING_COUNT_WEIGHTS

    def test_sample_distribution_matches_paper_mode(self):
        model = PaddingBehaviorModel()
        rng = random.Random(5)
        samples = [model.sample_count(rng) for _ in range(4000)]
        fraction_two = samples.count(2) / len(samples)
        fraction_three = samples.count(3) / len(samples)
        assert fraction_two == pytest.approx(0.34, abs=0.05)
        assert fraction_three == pytest.approx(0.22, abs=0.05)
        assert sum(1 for s in samples if s > 10) / len(samples) < 0.05

    def test_configure_origin_keeps_preferred_neighbors_unpadded(self, small_world):
        model = PaddingBehaviorModel(prepend_prob=1.0)
        graph = small_world.graph
        rng = random.Random(3)
        from repro.bgp.prepending import PrependingPolicy

        policy = PrependingPolicy()
        origin = small_world.tier2[0]
        assert model.configure_origin(graph, origin, policy, rng)
        paddings = [policy.padding(origin, n) for n in sorted(graph.neighbors_of(origin))]
        assert any(p == 1 for p in paddings), "a preferred neighbour stays unpadded"
        assert any(p >= 2 for p in paddings), "some neighbour is padded"

    def test_single_homed_origin_never_pads(self, small_world):
        model = PaddingBehaviorModel(prepend_prob=1.0)
        graph = small_world.graph
        single_homed = next(
            s for s in small_world.stubs if len(graph.neighbors_of(s)) == 1
        )
        from repro.bgp.prepending import PrependingPolicy

        policy = PrependingPolicy()
        assert not model.configure_origin(graph, single_homed, policy, random.Random(0))

    def test_intermediary_configuration(self, small_world):
        model = PaddingBehaviorModel(intermediary_prob=1.0)
        from repro.bgp.prepending import PrependingPolicy

        policy = PrependingPolicy()
        configured = model.configure_intermediaries(
            small_world.graph, policy, random.Random(1),
            candidates=small_world.tier3[:10],
        )
        assert configured == 10


class TestMonitorRIBs:
    @pytest.fixture(scope="class")
    def ribs(self, small_world):
        graph = small_world.graph
        monitors = sorted(graph.ases, key=lambda a: -graph.degree(a))[:12]
        collector = RouteCollector(graph, monitors)
        return build_monitor_ribs(
            graph,
            collector,
            num_prefixes=40,
            model=PaddingBehaviorModel(prepend_prob=0.6),
            rng=random.Random(11),
        )

    def test_every_monitor_has_tables(self, ribs):
        assert len(ribs.tables) == 12
        for table in ribs.tables.values():
            assert len(table) >= 35  # nearly every prefix reachable

    def test_origins_recorded(self, ribs):
        assert len(ribs.origins) == 40
        assert len(ribs.prefixes) == 40
        for prefix, origin in ribs.origins.items():
            for monitor, table in ribs.tables.items():
                route = table.get(prefix)
                if route is None:
                    continue
                if route.path:
                    assert route.path[-1] == origin
                else:
                    # A monitor that originates the prefix itself holds
                    # its own (empty-path) route.
                    assert monitor == origin

    def test_all_paths_nonempty(self, ribs):
        paths = ribs.all_paths()
        assert paths
        assert all(path for path in paths)

    def test_bad_prefix_count_rejected(self, small_world):
        graph = small_world.graph
        collector = RouteCollector(graph, [small_world.tier1[0]])
        with pytest.raises(MeasurementError):
            build_monitor_ribs(
                graph, collector, num_prefixes=0,
                model=PaddingBehaviorModel(), rng=random.Random(0),
            )
        with pytest.raises(MeasurementError):
            build_monitor_ribs(
                graph, collector, num_prefixes=10,
                model=PaddingBehaviorModel(), rng=random.Random(0),
                origin_pool=[1, 2],
            )


class TestCharacterize:
    def test_prepended_fractions(self, small_world):
        graph = small_world.graph
        monitors = sorted(graph.ases, key=lambda a: -graph.degree(a))[:10]
        collector = RouteCollector(graph, monitors)
        ribs = build_monitor_ribs(
            graph, collector, num_prefixes=50,
            model=PaddingBehaviorModel(prepend_prob=0.8, preferred_fraction=0.2),
            rng=random.Random(4),
        )
        fractions = prepended_fraction_per_monitor(ribs)
        assert set(fractions) <= set(monitors)
        assert all(0.0 <= f <= 1.0 for f in fractions.values())
        assert statistics.mean(fractions.values()) > 0.05

    def test_padding_distribution_normalised(self):
        paths = [
            (1, 2, 2),          # run 2
            (1, 3, 3, 3),       # run 3
            (1, 2),             # no prepending: excluded
            (5, 5, 9),          # intermediary run 2
        ]
        dist = padding_count_distribution(paths)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist[2] == pytest.approx(2 / 3)
        assert dist[3] == pytest.approx(1 / 3)

    def test_padding_distribution_requires_prepending(self):
        with pytest.raises(MeasurementError):
            padding_count_distribution([(1, 2), (3, 4)])

    def test_update_paths_filters_withdrawals(self):
        messages = [
            UpdateMessage(monitor=1, prefix="p", path=(1, 2)),
            UpdateMessage(monitor=1, prefix="p", path=(), withdrawn=True),
        ]
        assert update_paths(messages) == [(1, 2)]

    def test_empty_tables_rejected(self, small_world):
        from repro.measurement.ribs import MonitorRIBs

        with pytest.raises(MeasurementError):
            prepended_fraction_per_monitor(MonitorRIBs(tables={1: {}}))
