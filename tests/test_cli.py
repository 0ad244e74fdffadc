"""Tests for the ``repro-aspp`` command-line driver."""

from __future__ import annotations

import argparse
import re

import pytest

from repro.bgp.vectorized import numpy_available
from repro.cli import COMMANDS, main
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
        assert "topology.generate_seconds" in out

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
    """The run's one store: ``--resume FILE`` (or ``--store DIR``) is how
    a failed or killed run is finished."""

    ARGS = ["campaign", "--scale", "0.15", "--pairs", "4", "--monitors", "20"]

    def test_invalid_retries_rejected(self, capsys):
        """Nothing is retried, so ``--retries`` is no flag at all."""
        with pytest.raises(SystemExit) as usage:
            main(self.ARGS + ["--retries", "0"])
        assert usage.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == "repro-aspp: error: unrecognized arguments: --retries 0"

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

    def test_a_resume_file_is_a_store_in_the_metrics_too(self, capsys, tmp_path):
        """``--resume`` opens the run's one store with the run's registry,
        so its ``store.*`` rows read like ``--store``'s."""
        summary = ["--metrics", "summary"]
        main(self.ARGS + ["--resume", str(tmp_path / "campaign.jsonl")] + summary)
        cold = capsys.readouterr().out
        assert re.search(r"^store\.puts +counter +4 ", cold, re.M)
        assert re.search(r"^store\.misses +counter +4 ", cold, re.M)
        main(self.ARGS + ["--resume", str(tmp_path / "campaign.jsonl")] + summary)
        warm = capsys.readouterr().out
        assert re.search(r"^store\.hits +counter +4 ", warm, re.M)
        assert re.search(r"^scheduler\.store_hits +counter +4 ", warm, re.M)
        assert "store.puts" not in warm

    def test_import_journal_moves_a_resume_file_into_a_store(self, capsys, tmp_path):
        """What ``--resume F --store D`` used to do in one run: the file's
        records land in the directory, which then replays all of them."""
        resume, store = str(tmp_path / "campaign.jsonl"), str(tmp_path / "store")
        main(self.ARGS + ["--resume", resume])
        reference = capsys.readouterr().out
        assert main(["store", "--store", store, "--import-journal", resume]) == 0
        assert f"imported 4 new records from {resume}" in capsys.readouterr().out
        assert main(self.ARGS + ["--store", store, "--metrics", "summary"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(reference)
        assert re.search(r"^scheduler\.store_hits +counter +4 ", out, re.M)
        assert "scheduler.executed" not in out


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


EXPERIMENTS = tuple(sorted(REGISTRY))

#: Every subcommand's flags as the CLI had them before it became a
#: command table (recorded from ``main``'s inline parsers at PR 16):
#: (option strings, dest, type, default, choices, required, action).
SURFACE = {
    "list": [],
    "run": [
        ((), "experiment", None, None, EXPERIMENTS, True, "store"),
        (("--seed",), "seed", "int", None, None, False, "store"),
        (("--scale",), "scale", "float", None, None, False, "store"),
        (("--pairs",), "pairs", "positive_int", None, None, False, "store"),
        (("--instances",), "instances", "int", None, None, False, "store"),
        (("--workers",), "workers", "int", None, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "all": [
        (("--seed",), "seed", "int", None, None, False, "store"),
        (("--scale",), "scale", "float", None, None, False, "store"),
        (("--workers",), "workers", "int", None, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "world": [
        (("--seed",), "seed", "int", 7, None, False, "store"),
        (("--scale",), "scale", "float", 1.0, None, False, "store"),
        (("--save",), "save", "str", None, None, False, "store"),
    ],
    "campaign": [
        (("--seed",), "seed", "int", 7, None, False, "store"),
        (("--scale",), "scale", "float", 1.0, None, False, "store"),
        (("--pairs",), "pairs", "positive_int", 50, None, False, "store"),
        (("--padding",), "padding", "positive_int", 3, None, False, "store"),
        (("--monitors",), "monitors", "positive_int", 150, None, False, "store"),
        (("--placement",), "placement", None, "top-degree", ("top-degree", "greedy-cover"), False, "store"),
        (("--workers",), "workers", "int", None, None, False, "store"),
        (("--resume",), "resume", "str", None, None, False, "store"),
        (("--topology",), "topology", "str", None, None, False, "store"),
        (("--store",), "store", "str", None, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "grid": [
        (("--seed",), "seed", "int", 7, None, False, "store"),
        (("--scale",), "scale", "float", 1.0, None, False, "store"),
        (("--padding",), "padding", "positive_int", 3, None, False, "store"),
        (("--attackers",), "attackers", "positive_int", None, None, False, "store"),
        (("--victims",), "victims", "positive_int", None, None, False, "store"),
        (("--workers",), "workers", "int", None, None, False, "store"),
        (("--resume",), "resume", "str", None, None, False, "store"),
        (("--topology",), "topology", "str", None, None, False, "store"),
        (("--store",), "store", "str", None, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "secpol-sweep": [
        (("--policy",), "policy", None, "prependguard", ("none", "rov", "aspa", "prependguard"), False, "store"),
        (("--strategy",), "strategy", None, "top-degree-first", ("random", "top-degree-first", "tier1-only", "victim-cone"), False, "store"),
        (("--fractions",), "fractions", "str", "0.0,0.1,0.2,0.4,0.6,0.8,1.0", None, False, "store"),
        (("--seed",), "seed", "int", 7, None, False, "store"),
        (("--scale",), "scale", "float", 1.0, None, False, "store"),
        (("--padding",), "padding", "positive_int", 3, None, False, "store"),
        (("--victim",), "victim", "int", None, None, False, "store"),
        (("--attacker",), "attacker", "int", None, None, False, "store"),
        (("--valley-free",), "valley_free", None, False, None, False, "storetrue"),
        (("--workers",), "workers", "int", None, None, False, "store"),
        (("--resume",), "resume", "str", None, None, False, "store"),
        (("--topology",), "topology", "str", None, None, False, "store"),
        (("--store",), "store", "str", None, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "detect-stream": [
        (("--seed",), "seed", "int", 7, None, False, "store"),
        (("--scale",), "scale", "float", 0.5, None, False, "store"),
        (("--monitors",), "monitors", "positive_int", 100, None, False, "store"),
        (("--updates",), "updates", "int", 20000, None, False, "store"),
        (("--prefixes",), "prefixes", "int", 4, None, False, "store"),
        (("--feeds",), "feeds", "int", 4, None, False, "store"),
        (("--batch",), "batch", "int", 64, None, False, "store"),
        (("--backpressure",), "backpressure", None, "block", ("block", "drop", "park"), False, "store"),
        (("--capacity",), "capacity", "int", 256, None, False, "store"),
        (("--padding",), "padding", "positive_int", 3, None, False, "store"),
        (("--no-attack",), "no_attack", None, False, None, False, "storetrue"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "mitigate-stream": [
        (("--seed",), "seed", "int", 7, None, False, "store"),
        (("--scale",), "scale", "float", 0.5, None, False, "store"),
        (("--monitors",), "monitors", "positive_int", 100, None, False, "store"),
        (("--updates",), "updates", "int", 8000, None, False, "store"),
        (("--prefixes",), "prefixes", "int", 4, None, False, "store"),
        (("--padding",), "padding", "positive_int", 3, None, False, "store"),
        (("--strategy",), "strategy", None, "stepdown", ("none", "stepdown", "reset"), False, "store"),
        (("--step",), "step", "int", 1, None, False, "store"),
        (("--floor",), "floor", "int", 1, None, False, "store"),
        (("--reaction",), "reaction", "int", 64, None, False, "store"),
        (("--feeds",), "feeds", "int", 4, None, False, "store"),
        (("--batch",), "batch", "int", 64, None, False, "store"),
        (("--backpressure",), "backpressure", None, "block", ("block", "drop", "park"), False, "store"),
        (("--capacity",), "capacity", "int", 256, None, False, "store"),
        (("--fault-rate",), "fault_rate", "float", 0.0, None, False, "store"),
        (("--fault-seed",), "fault_seed", "int", None, None, False, "store"),
        (("--unrecoverable",), "unrecoverable", None, False, None, False, "storetrue"),
        (("--slo-alarm-latency",), "slo_alarm_latency", "float", 2000.0, None, False, "store"),
        (("--slo-feed-staleness",), "slo_feed_staleness", "float", 512.0, None, False, "store"),
        (("--slo-recovery-rounds",), "slo_recovery_rounds", "float", 12.0, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "query": [
        ((), "experiment", None, None, EXPERIMENTS, True, "store"),
        (("--store",), "store", "str", None, None, True, "store"),
        (("--seed",), "seed", "int", None, None, False, "store"),
        (("--scale",), "scale", "float", None, None, False, "store"),
        (("--pairs",), "pairs", "positive_int", None, None, False, "store"),
        (("--instances",), "instances", "int", None, None, False, "store"),
        (("--workers",), "workers", "int", None, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "store": [
        (("--store",), "store", "str", None, None, True, "store"),
        (("--compact",), "compact", None, False, None, False, "storetrue"),
        (("--import-journal",), "import_journals", "str", [], None, False, "append"),
    ],
}


class TestCommandTable:
    """The table builds the same surface the inline parsers had, and
    ``main`` builds only the part of it the command line names."""

    @staticmethod
    def _flags(parser):
        return {
            action.dest: (
                tuple(action.option_strings),
                action.dest,
                action.type.__name__ if action.type is not None else None,
                action.default,
                tuple(action.choices) if action.choices is not None else None,
                action.required,
                type(action).__name__.strip("_").removesuffix("Action").lower(),
            )
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        }

    def test_subcommands_are_the_recorded_ones_in_order(self):
        assert list(COMMANDS) == list(SURFACE)

    @pytest.mark.parametrize("name", SURFACE)
    def test_surface_is_unchanged(self, name):
        parser = argparse.ArgumentParser()
        COMMANDS[name].configure(parser)
        assert self._flags(parser) == {row[1]: row for row in SURFACE[name]}

    @pytest.mark.parametrize("name", SURFACE)
    def test_help_exits_zero(self, name, capsys):
        with pytest.raises(SystemExit) as done:
            main([name, "--help"])
        assert done.value.code == 0
        assert f"usage: repro-aspp {name}" in capsys.readouterr().out

    @pytest.fixture()
    def built(self, monkeypatch):
        """Counts of the parser-construction calls ``main`` makes."""
        calls = {"add_parser": 0, "add_argument": 0}

        def counting(owner, name):
            plain = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return plain(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(argparse._SubParsersAction, "add_parser")
        counting(argparse._ActionsContainer, "add_argument")
        return calls

    def test_a_known_command_builds_only_its_own_parser(self, built, capsys):
        assert main(["list"]) == 0
        assert built["add_parser"] == 1
        built.update(add_parser=0, add_argument=0)
        with pytest.raises(SystemExit):
            main(["query", "--help"])
        assert built["add_parser"] == 1
        # 128 when every subparser was declared on every call
        assert built["add_argument"] <= 16

    @pytest.mark.parametrize("argv", [["--help"], [], ["frobnicate"]])
    def test_anything_else_lists_every_subcommand(self, built, capsys, argv):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == (0 if argv == ["--help"] else 2)
        assert built["add_parser"] == len(COMMANDS) == 11
        captured = capsys.readouterr()
        listing = "{" + ",".join(COMMANDS) + "}"
        assert listing in (captured.out if argv == ["--help"] else captured.err)


class TestErrors:
    """Bad run flags are usage errors before anything is built; library
    errors are one line on stderr, not a traceback."""

    @pytest.fixture()
    def no_world(self, monkeypatch):
        from repro.core import InterceptionStudy

        def built(*args, **kwargs):
            raise AssertionError("the world was built before the flags were checked")

        monkeypatch.setattr(InterceptionStudy, "__init__", built)
        monkeypatch.setattr(InterceptionStudy, "generate", built)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "-1"],
            ["--padding", "0"],
            ["--topology", "caida:/no/such/as-rel2.txt"],
            ["--topology", "synth:many"],
            ["--metrics-out", "m.jsonl"],
        ],
        ids=lambda flags: flags[0].lstrip("-"),
    )
    @pytest.mark.parametrize("command", ["campaign", "grid", "secpol-sweep"])
    def test_bad_flag_is_a_usage_error(self, command, flags, no_world, capsys, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as usage:
            main([command, "--scale", "0.15", "--store", str(store), *flags])
        assert usage.value.code == 2
        error = capsys.readouterr().err
        assert f"repro-aspp {command}: error: " in error.splitlines()[-1]
        assert "Traceback" not in error
        assert not store.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            *(("campaign", flag) for flag in ("--padding", "--pairs", "--monitors")),
            *(
                (command, flag)
                for command in ("detect-stream", "mitigate-stream")
                for flag in ("--padding", "--monitors")
            ),
        ],
    )
    def test_attack_sizes_below_one_are_a_usage_error(self, command, flag, no_world, capsys):
        """Found before a world is built, not after (the stream commands
        synthesise theirs in the handler)."""
        with pytest.raises(SystemExit) as usage:
            main([command, "--scale", "0.15", flag, "0"])
        assert usage.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"repro-aspp {command}: error: argument {flag}: must be at least 1, got 0"

    @pytest.mark.parametrize(
        "flag", ["--retries 2", "--task-deadline 30"], ids=["retries", "task-deadline"]
    )
    @pytest.mark.parametrize("command", ["campaign", "grid", "secpol-sweep"])
    def test_the_removed_retry_flags_are_a_usage_error(self, command, flag, no_world, capsys):
        """A failed cell fails the run and a rerun on its store finishes
        it: nothing is retried, so there is nothing to tune."""
        with pytest.raises(SystemExit) as usage:
            main([command, "--scale", "0.15", *flag.split()])
        assert usage.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"repro-aspp: error: unrecognized arguments: {flag}"

    @pytest.mark.parametrize("command", ["campaign", "grid", "secpol-sweep"])
    def test_the_removed_engine_mode_flag_is_a_usage_error(
        self, command, no_world, capsys
    ):
        with pytest.raises(SystemExit) as usage:
            main([command, "--scale", "0.15", "--engine-mode", "delta"])
        assert usage.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == "repro-aspp: error: unrecognized arguments: --engine-mode delta"

    @pytest.mark.parametrize("command", ["campaign", "grid", "secpol-sweep"])
    def test_the_removed_shards_flag_is_a_usage_error(self, command, no_world, capsys):
        with pytest.raises(SystemExit) as usage:
            main([command, "--scale", "0.15", "--shards", "2"])
        assert usage.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == "repro-aspp: error: unrecognized arguments: --shards 2"

    @pytest.mark.parametrize("command", ["campaign", "grid", "secpol-sweep"])
    def test_the_removed_backend_flag_is_a_usage_error(self, command, no_world, capsys):
        with pytest.raises(SystemExit) as usage:
            main([command, "--scale", "0.15", "--backend", "vectorized"])
        assert usage.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == "repro-aspp: error: unrecognized arguments: --backend vectorized"

    @pytest.mark.parametrize("flag", ["--store", "--resume"])
    @pytest.mark.parametrize("command", ["campaign", "grid", "secpol-sweep"])
    def test_a_path_no_store_can_open_at_is_a_usage_error(
        self, command, flag, no_world, capsys, tmp_path
    ):
        (tmp_path / "file").write_text("")
        with pytest.raises(SystemExit) as usage:
            main([command, "--scale", "0.15", flag, str(tmp_path / "file" / "under")])
        assert usage.value.code == 2
        error = capsys.readouterr().err
        assert f"repro-aspp {command}: error: no result store" in error.splitlines()[-1]
        assert "Traceback" not in error

    @pytest.mark.parametrize("command", ["campaign", "grid", "secpol-sweep"])
    def test_resume_and_store_together_are_a_usage_error(
        self, command, no_world, capsys, tmp_path
    ):
        """A run has one store: ``store --import-journal`` moves a
        ``--resume`` file's records into a ``--store`` directory."""
        resume, store = str(tmp_path / "r.jsonl"), str(tmp_path / "store")
        with pytest.raises(SystemExit) as usage:
            main([command, "--scale", "0.15", "--resume", resume, "--store", store])
        assert usage.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == (
            f"repro-aspp {command}: error: argument --store: not allowed with argument --resume"
        )
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--attackers", "--victims"])
    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_grid_pools_below_one_are_a_usage_error(self, flag, limit, no_world, capsys):
        """Not every AS but the smallest-cone one (-1, through
        ``pool[:-1]``), not a world built to exit 1 on (0)."""
        with pytest.raises(SystemExit) as usage:
            main(["grid", "--scale", "0.15", f"{flag}={limit}"])
        assert usage.value.code == 2
        error = capsys.readouterr().err
        last = error.splitlines()[-1]
        assert last == f"repro-aspp grid: error: argument {flag}: must be at least 1, got {limit}"
        assert "Traceback" not in error

    def test_either_flag_opens_what_is_at_the_path(self, capsys, tmp_path):
        """``--store`` on a ``--resume`` file and ``--resume`` on a
        ``--store`` directory both replay it: one type, two shapes."""
        grid = ["grid", "--scale", "0.15", "--attackers", "2", "--victims", "3"]
        as_file, as_dir = str(tmp_path / "r.jsonl"), str(tmp_path / "store")
        assert main(grid) == 0
        plain = capsys.readouterr().out
        assert main(grid + ["--resume", as_file]) == 0
        assert main(grid + ["--store", as_dir]) == 0
        assert capsys.readouterr().out == plain * 2
        for flags in (["--store", as_file], ["--resume", as_dir]):
            assert main(grid + flags + ["--metrics", "summary"]) == 0
            out = capsys.readouterr().out
            assert out.startswith(plain)
            assert "scheduler.store_hits  counter  4" in out
            assert "scheduler.executed" not in out
        assert (tmp_path / "r.jsonl").is_file() and (tmp_path / "store").is_dir()

    def test_library_error_is_one_line_and_status_one(self, capsys):
        assert main(["secpol-sweep", "--scale", "0.15", "--victim", "999999"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "repro-aspp: error: AS999999 is not present in the topology\n"
        assert captured.out == ""
        assert main(["run", "fig09", "--scale", "0.15", "--workers", "-1"]) == 1
        assert capsys.readouterr().err.startswith("repro-aspp: error: worker count")

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_fig07_needs_a_pair(self, capsys, instances):
        """No instances is an error like fig08's, not a division by zero
        (0) or every pair but one (-1, through ``pairs[:-1]``)."""
        assert main(["run", "fig07", "--scale", "0.15", f"--instances={instances}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "repro-aspp: error: at least one attacker/victim pair is required\n"
        assert captured.out == ""
