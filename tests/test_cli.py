"""Tests for the ``repro-aspp`` command-line driver."""

from __future__ import annotations

import pytest

from repro.bgp.vectorized import numpy_available
from repro.cli import main
from repro.experiments import REGISTRY


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(REGISTRY)


def test_run_experiment(capsys):
    assert main(["run", "fig01"]) == 0
    out = capsys.readouterr().out
    assert "fig01" in out
    assert "route_before" in out


def test_run_with_overrides(capsys):
    assert main(["run", "fig07", "--scale", "0.2", "--instances", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "instances=4" in out
    assert "seed=3" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_world_summary_and_save(capsys, tmp_path):
    out_path = tmp_path / "topo.caida"
    assert main(["world", "--scale", "0.15", "--save", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "Generated topology" in out
    assert "tier-1 ASes" in out
    assert out_path.exists()
    from repro.topology.serialization import load_caida

    graph = load_caida(out_path)
    assert len(graph) > 50


def test_world_is_deterministic(capsys):
    main(["world", "--scale", "0.15", "--seed", "3"])
    first = capsys.readouterr().out
    main(["world", "--scale", "0.15", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_campaign_summary(capsys):
    assert main(["campaign", "--scale", "0.15", "--pairs", "5"]) == 0
    out = capsys.readouterr().out
    assert "effective attacks" in out
    assert "detection rate" in out


def test_all_runs_every_registered_experiment(capsys, monkeypatch):
    """`repro-aspp all` iterates the registry; patch it down to the two
    cheap case-study experiments so the test stays fast."""
    import repro.cli as cli

    small = {k: v for k, v in REGISTRY.items() if k in ("table1", "fig01")}
    monkeypatch.setattr(cli, "REGISTRY", small)
    assert main(["all"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig01" in out


#: what a λ-sweep point counts as: a kernel cell where numpy is
#: installed, a warm engine propagation where it is not
CELL_COUNTER = (
    "engine.impact.cells" if numpy_available() else "engine.warm.propagations"
)


class TestMetricsFlags:
    """The ``--metrics`` / ``--metrics-out`` surface on run/all/campaign."""

    def test_default_is_off(self, capsys):
        assert main(["run", "fig09", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "run metrics" not in out

    def test_run_metrics_summary_prints_table(self, capsys):
        assert main(["run", "fig09", "--scale", "0.15", "--metrics", "summary"]) == 0
        out = capsys.readouterr().out
        assert "run metrics" in out
        assert CELL_COUNTER in out
        assert "experiment.fig09_seconds" in out

    def test_run_metrics_do_not_change_result_text(self, capsys):
        main(["run", "fig09", "--scale", "0.15"])
        plain = capsys.readouterr().out
        main(["run", "fig09", "--scale", "0.15", "--metrics", "summary"])
        instrumented = capsys.readouterr().out
        assert instrumented.startswith(plain.rstrip("\n"))

    def test_run_metrics_jsonl_emits_valid_events(self, capsys):
        import json

        assert main(["run", "fig09", "--scale", "0.15", "--metrics", "jsonl"]) == 0
        out = capsys.readouterr().out
        events = [
            json.loads(line) for line in out.splitlines() if line.startswith("{")
        ]
        assert events
        kinds = {event["event"] for event in events}
        assert kinds <= {"counter", "histogram", "timer", "info"}
        assert any(event["name"] == CELL_COUNTER for event in events)

    def test_run_metrics_out_writes_parseable_file(self, capsys, tmp_path):
        from repro.telemetry import read_jsonl

        path = tmp_path / "metrics.jsonl"
        assert main(
            [
                "run", "fig09", "--scale", "0.15",
                "--metrics", "jsonl", "--metrics-out", str(path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"metrics written to {path}" in out
        restored = read_jsonl(path)
        assert restored.counter_value(CELL_COUNTER) > 0

    def test_metrics_out_requires_jsonl_mode(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        for argv in (
            ["run", "fig09", "--metrics-out", path],
            ["run", "fig09", "--metrics", "summary", "--metrics-out", path],
            ["all", "--metrics-out", path],
            ["campaign", "--metrics-out", path],
        ):
            with pytest.raises(SystemExit):
                main(argv)

    def test_invalid_metrics_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig09", "--metrics", "verbose"])

    def test_world_has_no_metrics_flags(self):
        with pytest.raises(SystemExit):
            main(["world", "--scale", "0.15", "--metrics", "summary"])

    def test_uninstrumented_experiment_reports_empty_registry(self, capsys):
        """Experiments without a ``metrics`` kwarg (the ablations) still
        accept the flag and report an empty registry."""
        assert main(["run", "ablation-fp", "--scale", "0.15", "--metrics", "summary"]) == 0
        out = capsys.readouterr().out
        assert "(no metrics recorded)" in out

    def test_campaign_metrics_summary(self, capsys):
        assert main(
            [
                "campaign", "--scale", "0.15", "--pairs", "4",
                "--metrics", "summary",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "detection rate" in out
        assert "run metrics" in out
        assert "detection.timings" in out

    def test_all_merges_metrics_across_experiments(self, capsys, monkeypatch):
        """``all --metrics summary`` shares one registry and emits it
        once, after the last experiment."""
        import repro.cli as cli

        small = {k: v for k, v in REGISTRY.items() if k in ("fig09", "fig10")}
        monkeypatch.setattr(cli, "REGISTRY", small)
        assert main(["all", "--scale", "0.15", "--metrics", "summary"]) == 0
        out = capsys.readouterr().out
        assert out.count("run metrics") == 1
        assert "experiment.fig09_seconds" in out
        assert "experiment.fig10_seconds" in out
        assert out.index("experiment.fig10_seconds") > out.index("fig09:")


class TestSubcommandParsing:
    """Every subcommand's argument surface parses as documented."""

    def test_run_rejects_unknown_flag(self):
        with pytest.raises(SystemExit):
            main(["run", "fig09", "--bogus", "1"])

    def test_campaign_rejects_bad_placement(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--placement", "random"])

    def test_campaign_placement_choices_accepted(self, capsys):
        assert main(
            [
                "campaign", "--scale", "0.15", "--pairs", "3",
                "--placement", "greedy-cover", "--monitors", "20",
            ]
        ) == 0
        assert "greedy-cover" in capsys.readouterr().out

    def test_run_workers_flag_does_not_change_rows(self, capsys):
        main(["run", "fig09", "--scale", "0.15"])
        serial = capsys.readouterr().out
        main(["run", "fig09", "--scale", "0.15", "--workers", "2"])
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestResilienceFlags:
    """The supervised-runner surface: ``--resume``/``--retries``/``--task-deadline``."""

    ARGS = ["campaign", "--scale", "0.15", "--pairs", "4", "--monitors", "20"]

    def test_retry_flags_accepted(self, capsys):
        assert main(self.ARGS + ["--retries", "2", "--task-deadline", "30"]) == 0
        assert "effective attacks" in capsys.readouterr().out

    def test_retry_flags_do_not_change_summary(self, capsys):
        main(self.ARGS)
        plain = capsys.readouterr().out
        main(self.ARGS + ["--retries", "5"])
        assert capsys.readouterr().out == plain

    def test_invalid_retries_rejected(self):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            main(self.ARGS + ["--retries", "0"])

    def test_resume_writes_journal_and_replays_it(self, capsys, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        assert main(self.ARGS + ["--resume", path]) == 0
        first = capsys.readouterr().out
        lines = (tmp_path / "campaign.jsonl").read_text().splitlines()
        assert len(lines) == 4

        # Second run replays every journaled instance; same summary.
        assert main(self.ARGS + ["--resume", path]) == 0
        assert capsys.readouterr().out == first
        assert (tmp_path / "campaign.jsonl").read_text().splitlines() == lines

    def test_resume_after_truncation_completes_the_campaign(self, capsys, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        main(self.ARGS + ["--resume", str(journal)])
        reference = capsys.readouterr().out
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + "\n")

        assert main(self.ARGS + ["--resume", str(journal)]) == 0
        assert capsys.readouterr().out == reference
        assert len(journal.read_text().splitlines()) == len(lines)


class TestSecpolSweepCommand:
    """The ``secpol-sweep`` deployment-fraction surface."""

    ARGS = ["secpol-sweep", "--scale", "0.15", "--fractions", "0.0,1.0"]

    @staticmethod
    def _after_column(out: str) -> list[str]:
        rows = [
            line.split()
            for line in out.splitlines()
            if line and line[0].isdigit()
        ]
        return [row[-1] for row in rows]

    def test_prints_one_row_per_fraction(self, capsys):
        assert main(self.ARGS + ["--policy", "prependguard"]) == 0
        out = capsys.readouterr().out
        assert "secpol-sweep: prependguard/top-degree-first" in out
        assert len(self._after_column(out)) == 2

    def test_rov_equals_the_undefended_control(self, capsys):
        main(self.ARGS + ["--policy", "none"])
        control = self._after_column(capsys.readouterr().out)
        main(self.ARGS + ["--policy", "rov"])
        rov = self._after_column(capsys.readouterr().out)
        assert rov == control

    def test_full_prependguard_reduces_pollution(self, capsys):
        main(self.ARGS + ["--policy", "prependguard"])
        after = [float(v) for v in self._after_column(capsys.readouterr().out)]
        assert after[1] < after[0]

    def test_metrics_summary_includes_secpol_counters(self, capsys):
        assert main(
            self.ARGS + ["--policy", "aspa", "--metrics", "summary"]
        ) == 0
        out = capsys.readouterr().out
        assert "secpol.evaluated" in out
        assert "secpol.deployed_ases" in out

    def test_resume_writes_and_replays_the_journal(self, capsys, tmp_path):
        journal = tmp_path / "secpol.jsonl"
        args = self.ARGS + ["--policy", "aspa", "--resume", str(journal)]
        assert main(args) == 0
        first = capsys.readouterr().out
        lines = journal.read_text().splitlines()
        assert len(lines) == 2

        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert journal.read_text().splitlines() == lines

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--policy", "bgpsec"])

    def test_malformed_fractions_rejected(self):
        with pytest.raises(SystemExit):
            main(["secpol-sweep", "--fractions", "0.5,huge"])
        with pytest.raises(SystemExit):
            main(["secpol-sweep", "--fractions", ","])


class TestDetectStream:
    ARGS = [
        "detect-stream",
        "--scale", "0.2",
        "--monitors", "15",
        "--updates", "600",
        "--prefixes", "2",
        "--seed", "5",
    ]

    def test_summary_reports_throughput_and_detection(self, capsys):
        assert main(self.ARGS + ["--feeds", "3", "--batch", "32"]) == 0
        out = capsys.readouterr().out
        assert "updates/sec" in out
        assert "latency p50" in out
        assert "latency p99" in out
        assert "backpressure:" in out
        assert "attack:" in out

    def test_no_attack_omits_verdict(self, capsys):
        assert main(self.ARGS + ["--no-attack"]) == 0
        out = capsys.readouterr().out
        assert "attack:" not in out
        assert "updates/sec" in out

    def test_backpressure_policies_accepted(self, capsys):
        for policy in ("block", "drop", "park"):
            assert main(
                self.ARGS
                + ["--backpressure", policy, "--capacity", "8", "--feeds", "2"]
            ) == 0
            assert "backpressure:" in capsys.readouterr().out

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--backpressure", "spill"])

    def test_metrics_summary_includes_pipeline_counters(self, capsys):
        assert main(self.ARGS + ["--metrics", "summary"]) == 0
        out = capsys.readouterr().out
        assert "detection.pipeline.updates" in out
        assert "detection.pipeline.batches" in out

    def test_seed_is_reproducible_and_distinguishing(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        again = capsys.readouterr().out
        # throughput is wall-clock; everything else must repeat exactly
        def stable(out):
            return [
                line for line in out.splitlines()
                if "updates/sec" not in line and "latency" not in line
            ]
        assert stable(first) == stable(again)
        other_seed = [arg if arg != "5" else "6" for arg in self.ARGS]
        assert main(other_seed) == 0
        assert stable(capsys.readouterr().out) != stable(first)


class TestMitigateStream:
    ARGS = [
        "mitigate-stream",
        "--scale", "0.2",
        "--monitors", "20",
        "--updates", "600",
        "--prefixes", "2",
        "--seed", "7",
    ]

    def test_reports_the_closed_loop_and_slo_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "detected:" in out
        assert "time_to_mitigate:" in out
        assert "time_to_recover:" in out
        assert "pollution:" in out
        assert "service-level objectives" in out
        assert "alarm-latency" in out
        assert "recovery-deadline" in out

    def test_strategies_change_the_residual(self, capsys):
        outputs = {}
        for strategy in ("none", "stepdown", "reset"):
            assert main(self.ARGS + ["--strategy", strategy]) == 0
            out = capsys.readouterr().out
            outputs[strategy] = next(
                line for line in out.splitlines() if "residual" in line
            )
        assert outputs["none"] != outputs["reset"]

    def test_fault_rate_runs_the_tolerant_pipeline(self, capsys):
        assert main(self.ARGS + ["--fault-rate", "0.9", "--metrics", "summary"]) == 0
        out = capsys.readouterr().out
        assert "fault-rate=0.9" in out
        assert "detected:" in out

    def test_unrecoverable_faults_never_crash(self, capsys):
        assert main(
            self.ARGS + ["--fault-rate", "1.0", "--unrecoverable"]
        ) == 0
        assert "pipeline:" in capsys.readouterr().out

    def test_breach_events_are_json_lines(self, capsys):
        import json

        assert main(self.ARGS + ["--slo-alarm-latency", "0"]) == 0
        out = capsys.readouterr().out
        events = [
            json.loads(line) for line in out.splitlines()
            if line.startswith("{")
        ]
        assert any(e["event"] == "slo-breach" for e in events)

    def test_output_is_deterministic(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first

    def test_bad_fault_rate_rejected(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--fault-rate", "1.5"])

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--strategy", "filter"])
