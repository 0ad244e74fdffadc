"""Integration tests: every experiment harness runs at reduced scale and
reproduces the paper's qualitative shape."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import REGISTRY, experiment_config, run_experiment
from repro.experiments.ablation_engine import AblationEngineConfig
from repro.experiments.ablation_monitors import AblationMonitorsConfig
from repro.experiments.fig05_prepending_fraction import Fig05Config
from repro.experiments.fig06_padding_counts import Fig06Config
from repro.experiments.fig07_tier1_pairs import Fig07Config
from repro.experiments.fig08_random_pairs import Fig08Config
from repro.experiments.fig09_tier1_vs_tier1 import Fig09Config
from repro.experiments.fig10_tier1_vs_tier3 import Fig10Config
from repro.experiments.fig11_stub_vs_tier1 import Fig11Config
from repro.experiments.fig12_stub_vs_stub import Fig12Config
from repro.experiments.fig13_detection_accuracy import Fig13Config
from repro.experiments.fig14_pollution_before_detection import Fig14Config
from repro.telemetry.metrics import RunMetrics

SCALE = 0.25  # ~400 ASes: fast but structurally meaningful


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"table1", "fig01"} | {f"fig{n:02d}" for n in range(5, 15)}
        assert expected <= set(REGISTRY)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("fig99")

    def test_result_renders_text(self):
        result = run_experiment("fig01")
        text = result.to_text()
        assert "fig01" in text
        assert "route_before" in text

    def test_overrides_replace_only_fields_the_config_has(self):
        """``None`` values and foreign fields are ignored, so one set of
        CLI flags serves every experiment."""
        base = Fig09Config()
        config = experiment_config(
            "fig09", scale=0.5, seed=None, instances=9, pairs=None
        )
        assert config == Fig09Config(scale=0.5, seed=base.seed)
        given = Fig09Config(max_padding=4)
        assert experiment_config("fig09", given) is given
        assert experiment_config("fig09", given, workers=2).max_padding == 4

    def test_run_applies_overrides_and_threads_metrics(self, monkeypatch):
        import inspect

        from repro.telemetry.metrics import RunMetrics

        metrics = RunMetrics()
        result = run_experiment("fig09", metrics=metrics, scale=SCALE, max_padding=3)
        assert [row[0] for row in result.rows] == [1, 2, 3]
        assert result.metrics is metrics
        assert metrics.counter_value("scheduler.tasks") == 3
        # every runner takes metrics: no signature is inspected to call one
        monkeypatch.setattr(inspect, "signature", None)
        assert run_experiment("fig09", metrics=RunMetrics(), scale=SCALE).rows

    def test_every_runner_takes_metrics(self):
        """Every registered artefact records into a ``metrics=``
        registry; none is called without it."""
        import inspect

        for experiment_id, (_, runner) in REGISTRY.items():
            parameters = inspect.signature(runner).parameters
            assert "metrics" in parameters, experiment_id
            assert parameters["metrics"].kind is inspect.Parameter.KEYWORD_ONLY, experiment_id


class TestWorldTimer:
    def test_build_world_times_generation_into_the_registry(self):
        from repro.experiments.base import build_world
        from repro.telemetry.metrics import RunMetrics

        metrics = RunMetrics()
        build_world(seed=7, scale=SCALE, metrics=metrics)
        timer = metrics.timers["topology.generate_seconds"]
        assert timer.count == 1 and timer.total > 0.0
        # a timer: never part of what serial and pooled runs must agree on
        assert "topology.generate_seconds" not in repr(metrics.deterministic_snapshot())


class TestCaseStudyExperiments:
    def test_table1_traceroute_shape(self):
        result = run_experiment("table1")
        assert result.summary["anomalous_path_traverses_AS4134"] == 1.0
        assert result.summary["anomalous_path_traverses_AS9318"] == 1.0
        assert result.summary["rtt_inflation"] > 3.0
        scenarios = {row[0] for row in result.rows}
        assert scenarios == {"normal", "anomaly"}

    def test_fig01_replay_shape(self):
        result = run_experiment("fig01")
        assert result.summary["att_path_len_before"] == 7
        assert result.summary["att_path_len_after"] == 6
        assert result.summary["padding_seen_after"] == 3
        assert result.summary["ntt_follows_anomaly"] == 1.0


class TestMeasurementExperiments:
    @pytest.fixture(scope="class")
    def fig05(self):
        return run_experiment(
            "fig05",
            Fig05Config(scale=SCALE, num_prefixes=120, num_monitors=30,
                        churn_origins=10, churn_events=1),
        )

    def test_fig05_mean_fraction_plausible(self, fig05):
        assert 0.03 <= fig05.summary["mean_fraction_all_table"] <= 0.35

    def test_fig05_updates_shift_right(self, fig05):
        assert (
            fig05.summary["mean_fraction_all_updates"]
            > fig05.summary["mean_fraction_all_table"]
        )

    def test_fig06_mode_near_two(self):
        result = run_experiment(
            "fig06",
            Fig06Config(scale=SCALE, num_prefixes=250, num_monitors=30,
                        churn_origins=10, churn_events=1),
        )
        table = {row[0]: row[1] for row in result.rows}
        # Padding 2 carries the biggest (or near-biggest — a handful of
        # origins can dominate a small sample) share of prepended routes.
        assert table[2] >= 0.2
        assert table[2] >= 0.75 * max(table.values())
        assert result.summary["table_fraction_above10"] < 0.1


class TestImpactExperiments:
    def test_fig07_tier1_pairs(self):
        result = run_experiment("fig07", Fig07Config(scale=SCALE, instances=12))
        assert len(result.rows) == 12
        # Ranked descending by after-hijack pollution.
        after = [row[4] for row in result.rows]
        assert after == sorted(after, reverse=True)
        assert result.summary["max_pollution_pct"] > 10

    def test_fig08_random_pairs_weaker_than_tier1(self):
        tier1 = run_experiment("fig07", Fig07Config(scale=SCALE, instances=12))
        rand = run_experiment("fig08", Fig08Config(scale=SCALE, instances=12))
        assert (
            rand.summary["median_pollution_pct"]
            <= tier1.summary["mean_pollution_pct"]
        )

    def test_fig09_sigmoid_and_plateau(self):
        result = run_experiment("fig09", Fig09Config(scale=SCALE, max_padding=6))
        after = {row[0]: row[2] for row in result.rows}
        # λ=1 equals the natural share; growth with λ; plateau.
        before = {row[0]: row[1] for row in result.rows}
        assert after[1] == pytest.approx(before[1], abs=0.5)
        assert after[3] > after[1]
        assert after[6] >= after[3]
        assert after[6] <= result.summary["attacker_cone_pct"] + 5

    def test_fig10_high_plateau(self):
        result = run_experiment("fig10", Fig10Config(scale=SCALE, max_padding=6))
        after = {row[0]: row[2] for row in result.rows}
        # The small test topology shields more of the Internet behind
        # the victim's other providers than the paper's full graph, so
        # the plateau is lower than the paper's >99% — but it must be
        # large and monotone.
        assert after[6] > 35
        assert after[6] >= after[2] >= after[1]

    def test_fig11_sibling_chain_enables_valley_free_attack(self):
        result = run_experiment("fig11", Fig11Config(scale=SCALE, max_padding=6))
        no_chain = {row[0]: row[1] for row in result.rows}
        valley_free = {row[0]: row[2] for row in result.rows}
        violating = {row[0]: row[3] for row in result.rows}
        assert valley_free[6] > 10  # the Limelight effect
        assert no_chain[6] < valley_free[6]
        assert violating[6] >= valley_free[6] - 1e-9

    def test_fig12_violation_dominates(self):
        result = run_experiment("fig12", Fig12Config(scale=SCALE, max_padding=6))
        for _, valley_free_pct, violate_pct in result.rows:
            assert violate_pct >= valley_free_pct - 1e-9
        assert result.summary["violate_plateau_pct"] >= result.summary[
            "valley_free_plateau_pct"
        ]


class TestDetectionExperiments:
    def test_fig13_accuracy_monotone(self):
        result = run_experiment(
            "fig13",
            Fig13Config(scale=SCALE, pairs=40, monitor_counts=(10, 60, 150, 300)),
        )
        accuracies = [row[2] for row in result.rows]
        assert accuracies == sorted(accuracies)
        assert accuracies[-1] > accuracies[0]
        assert accuracies[-1] > 50

    def test_fig14_early_detection(self):
        result = run_experiment(
            "fig14", Fig14Config(scale=SCALE, pairs=40, monitors=120)
        )
        assert result.summary["detected_attacks"] > 0
        # Detected attacks are caught early: CDF mass below 0.37
        # approximates the detection rate.
        assert result.summary["cdf_at_0.37"] >= (
            result.summary["detected_attacks"]
            / result.summary["effective_attacks"]
            - 0.15
        )


class TestAblations:
    def test_engine_ablation_agrees(self):
        metrics = RunMetrics()
        result = run_experiment(
            "ablation-engine", AblationEngineConfig(scale=SCALE, origins=5), metrics=metrics
        )
        assert result.summary["disagreements"] == 0
        # the seconds are timers, one reading per origin; the artefact
        # carries none
        for algorithm in ("engine", "oracle"):
            timer = metrics.timers[f"experiment.ablation-engine.{algorithm}_seconds"]
            assert timer.count == 5 and timer.total > 0
        assert not any("seconds" in key for key in result.summary)

    def test_monitor_ablation_reports_four_strategies(self):
        result = run_experiment(
            "ablation-monitors",
            AblationMonitorsConfig(scale=SCALE, pairs=25, monitor_budget=60),
        )
        assert len(result.rows) == 4
        for _, accuracy in result.rows:
            assert 0.0 <= accuracy <= 100.0
        # The set-cover placement covers more potential attackers than
        # degree ranking at the same budget.
        assert result.summary["coverage_greedy"] >= result.summary["coverage_top_degree"]

    def test_defense_ablation_monotone(self):
        from repro.experiments.ablation_defense import AblationDefenseConfig

        result = run_experiment(
            "ablation-defense",
            AblationDefenseConfig(
                scale=SCALE, pairs=12, deployment_fractions=(0.0, 0.5, 1.0)
            ),
        )
        cautious = [row[2] for row in result.rows if row[0] == "cautious adoption"]
        assert cautious[-1] <= cautious[0] + 1e-9
        assert abs(result.summary["reactive_mean_gain_pct"]) < 1e-9

    def test_scale_ablation_runs(self):
        from repro.experiments.ablation_scale import AblationScaleConfig

        result = run_experiment(
            "ablation-scale",
            AblationScaleConfig(
                scales=(0.15, 0.3), tier1_instances=6, detection_pairs=15
            ),
        )
        assert len(result.rows) == 2
        for _, ases, pollution, monitors, accuracy in result.rows:
            assert ases > 100
            assert 0.0 <= pollution <= 100.0
            assert 0.0 <= accuracy <= 100.0
            assert monitors >= 5

    def test_false_positive_ablation_clean(self):
        from repro.experiments.ablation_false_positives import (
            AblationFalsePositivesConfig,
        )

        result = run_experiment(
            "ablation-fp",
            AblationFalsePositivesConfig(scale=SCALE, events=25, monitors=60),
        )
        assert result.summary["high_confidence_false_alarms"] == 0

    def test_figD1_rov_flat_while_path_policies_descend(self):
        from repro.experiments.figD1_deployment_sweep import FigD1Config

        result = run_experiment(
            "figD1",
            FigD1Config(
                scale=SCALE,
                fractions=(0.0, 0.5, 1.0),
                strategies=("top-degree-first",),
            ),
        )
        assert result.summary["rov_max_abs_deviation_pct"] == 0.0
        assert result.summary["aspa_monotone_top_degree"] == 1.0
        assert result.summary["prependguard_monotone_top_degree"] == 1.0
        assert (
            result.summary["prependguard_residual_pct_full"]
            < result.summary["control_after_pct"]
        )
        # one control row + 3 policies x 1 strategy x 3 fractions
        assert len(result.rows) == 1 + 9
        fraction_zero = [row for row in result.rows if row[2] == 0.0]
        control_after = fraction_zero[0][3]
        assert all(row[3] == control_after for row in fraction_zero)

    def test_figD2_grid_covers_every_policy_per_pair(self):
        from repro.experiments.figD2_policy_tiers import FigD2Config

        result = run_experiment(
            "figD2",
            FigD2Config(scale=SCALE, attacker_tiers=(1, 2), victim_tiers=(1, 2)),
        )
        assert result.summary["rov_max_abs_deviation_pct"] == 0.0
        assert result.summary["pairs"] == 4.0
        assert len(result.rows) == 4 * 4  # pairs x policies
        assert (
            result.summary["prependguard_mean_after_pct"]
            <= result.summary["none_mean_after_pct"]
        )
        assert (
            result.summary["rov_mean_after_pct"]
            == result.summary["none_mean_after_pct"]
        )


class TestMitigationExperiments:
    @pytest.fixture(scope="class")
    def figM1(self):
        from repro.experiments.figM1_time_to_recovery import FigM1Config

        return run_experiment(
            "figM1",
            FigM1Config(scale=0.2, monitors=15, prefixes=2, updates=400,
                        paddings=(3,)),
        )

    def test_figM1_strategy_ladder(self, figM1):
        by_strategy = {row[1]: row for row in figM1.rows}
        organic = figM1.summary["lambda3_reset_residual_pollution"]
        none_residual = by_strategy["none"][7]
        step_residual = by_strategy["stepdown"][7]
        reset_residual = by_strategy["reset"][7]
        # no reaction keeps the full attack pollution; stepdown removes
        # some of it; the λ-floor reset collapses it to organic
        assert none_residual == by_strategy["none"][6]
        assert step_residual < none_residual
        assert reset_residual <= step_residual
        assert figM1.summary["lambda3_reset_recovered"] == 1.0
        assert organic == reset_residual

    def test_figM1_clocks_are_populated(self, figM1):
        for row in figM1.rows:
            assert row[2] != "-"  # detected at this scale
        assert figM1.summary["lambda3_stepdown_time_to_recover"] > 0

    def test_figM2_full_coverage_detects_everything(self):
        from repro.experiments.figM2_feed_loss import FigM2Config

        result = run_experiment(
            "figM2",
            FigM2Config(seeds=(5, 7), scale=0.2, monitors=15, prefixes=2,
                        updates=400, loss_fractions=(0.0, 0.5)),
        )
        assert result.summary["loss0_accuracy_pct"] == 100.0
        full, half = result.rows
        assert full[5] == 0  # no feed lost, nothing dropped
        assert half[5] > 0  # half the feeds dark: updates were lost
        assert half[2] <= full[2]  # accuracy can only degrade
