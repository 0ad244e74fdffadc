"""Tests for the ``repro-aspp`` command-line driver."""

from __future__ import annotations

import argparse
import hashlib
import importlib
import re

import pytest

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


@pytest.mark.slow
def test_all_stdout_is_a_function_of_its_arguments(capsys, real_pool):
    """Every artefact's stdout, serial and pooled, byte for byte: no
    wall-clock reaches a result, so there is nothing to normalise.
    (Below scale 0.15 fig11 finds no Tier-3 AS for its sibling chain.)"""
    assert main(["all", "--scale", "0.15"]) == 0
    serial = capsys.readouterr().out
    assert main(["all", "--scale", "0.15", "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


def _generated(name, argv, digests):
    return [
        pytest.param([*argv, "--scale", "0.15", "--seed", str(seed)], digest, id=f"{name}-{seed}")
        for seed, digest in zip((7, 23), digests)
    ]


#: sha256 of each batch command's stdout, recorded while ``campaign``,
#: ``grid`` and ``secpol-sweep`` still ran on a study façade of their own
_BATCH_GOLDEN = [
    *_generated(
        "campaign-top-degree",
        ["campaign", "--monitors", "20"],
        (
            "864984bc2418c51354b107f7ae13f1ffc1f2969bbd7ac1c4a9f0245934e801d0",
            "7663d94f2f8930abdb40568237d17a4ef70ff471806eb0a4fb571b919f1b579d",
        ),
    ),
    *_generated(
        "campaign-greedy-cover",
        ["campaign", "--monitors", "20", "--placement", "greedy-cover"],
        (
            "a9ebe32e5c0029ae935f832dc425bb9570eba549bb3f6f9a441d00ce8ed4aab1",
            "1511c5693ae125917a4b256f401361549a3406674aba4bc0cfbd435632419439",
        ),
    ),
    *_generated(
        "grid",
        ["grid", "--attackers", "8", "--victims", "40"],
        (
            "8ec0b0b052a58ebc101ce9626ebf396b45b4c0a0afefd13449d246ce430109a8",
            "1dca9b428cd10e029f6fdc0ea6fa3d2898b4f2158c012c66e4e5cddaf07ec605",
        ),
    ),
    *_generated(
        "secpol-sweep",
        ["secpol-sweep"],
        (
            "75836227398d0cb126352a00219c4c58c0b8145e3c9c72b7ea278ab89d30e795",
            "66cf1711ccac1b4172ea36156735cf4e9224c349677dca166e78cb4d7b8eeb94",
        ),
    ),
    pytest.param(
        ["grid", "--topology", "synth:2000", "--attackers", "4", "--victims", "30"],
        "d1e8f0c403a07a09b758fa2ef86efa08137630b3482acf9f6b48c9766bf518a9",
        id="grid-synth2000",
    ),
]


def _loaded(name, argv, digests):
    """``argv`` on each as-rel file of ``loaded_files``, seeds 7 and 23."""
    return [
        pytest.param(
            [*argv, "--topology", f"caida:{{{file}}}", "--seed", str(seed)],
            digest,
            id=f"{name}-{file}-{seed}",
        )
        for file, pair in zip(("world", "powerlaw"), digests)
        for seed, digest in zip((7, 23), pair)
    ]


#: the same commands on loaded files, recorded while the loader still
#: built every adjacency set
_BATCH_GOLDEN += [
    *_loaded(
        "grid",
        ["grid", "--attackers", "6", "--victims", "20"],
        (
            (
                "1668f8a1e86656c0d236d0aea63ee3c9937ed2b4f2cc27de28c1bd0c4189a256",
                "1668f8a1e86656c0d236d0aea63ee3c9937ed2b4f2cc27de28c1bd0c4189a256",
            ),
            (
                "4acb5d6e0f1303822f2281ab1029b902aced971bbdef3f391c9038b733a34e28",
                "4acb5d6e0f1303822f2281ab1029b902aced971bbdef3f391c9038b733a34e28",
            ),
        ),
    ),
    *_loaded(
        "campaign",
        ["campaign", "--pairs", "12", "--monitors", "20"],
        (
            (
                "58e29409b32869eb2d6a15ae5404833ec044dcc810430220dd770848561ddf02",
                "885563ccc08c402d2223b3c2188f05cdd4736ed95c018b6b5e6af080f059ae30",
            ),
            (
                "d97e26ec4cf579896b17205950023586dc0c8569b7c28fbedb9ad43c9b671d62",
                "44517280dd15d0df91f9b67baafe7e187b33e21d20407bf49aca9491a6258659",
            ),
        ),
    ),
    *_loaded(
        "secpol-sweep",
        ["secpol-sweep"],
        (
            (
                "504416b24bb799b631de0f81a796d11e6f8f59d05b2704ab8d1919218110a381",
                "504416b24bb799b631de0f81a796d11e6f8f59d05b2704ab8d1919218110a381",
            ),
            (
                "1221c2d319c2bb04c5b018cf65dc88f14e2252d90a34404dd5afa4acf105960a",
                "1221c2d319c2bb04c5b018cf65dc88f14e2252d90a34404dd5afa4acf105960a",
            ),
        ),
    ),
]


@pytest.fixture(scope="session")
def loaded_files(tmp_path_factory) -> dict[str, str]:
    """Two as-rel files: ``world --seed 7 --scale 0.3 --save`` and a
    600-AS power-law dump."""
    import contextlib
    import io

    from repro.topology.generators import generate_powerlaw_topology
    from repro.topology.serialization import save_caida

    root = tmp_path_factory.mktemp("loaded")
    files = {"world": str(root / "world.txt"), "powerlaw": str(root / "powerlaw.txt")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["world", "--seed", "7", "--scale", "0.3", "--save", files["world"]]) == 0
    save_caida(generate_powerlaw_topology(600, seed=7).graph, files["powerlaw"])
    return files


@pytest.mark.parametrize("argv, digest", _BATCH_GOLDEN)
def test_batch_stdout_is_pinned(argv, digest, capsys, real_pool, tmp_path, loaded_files):
    """Serial, pooled into a cold store, and replayed from the warm
    store: the same bytes, and the recorded ones."""
    argv = [arg.format(**loaded_files) for arg in argv]
    store = ["--store", str(tmp_path / "store")]
    for run in ([], ["--workers", "2", *store], store):
        assert main([*argv, *run]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (run, out)


@pytest.mark.parametrize("victims", [2, 4, 5])  # fewer, as many and more than the 4 transit ASes
def test_grid_victims_are_the_largest_cones(victims, monkeypatch, capsys, tmp_path):
    """``grid --victims N`` takes the N largest customer cones over every
    AS (ties to the lower ASN), whether or not stubs make the cut."""
    import repro.experiments.sweeps as sweeps
    from repro.topology.serialization import loads_asrel2
    from repro.topology.tiers import customer_cone

    # cones: AS1 6, AS3 3, AS2 and AS7 2, the stubs 4, 5, 6 and 8 one each
    text = "1|2|-1\n1|3|-1\n3|4|-1\n3|5|-1\n2|6|-1\n1|7|0\n7|8|-1\n"
    topology = tmp_path / "t.as-rel2.txt"
    topology.write_text(text)
    graph = loads_asrel2(text)
    expected = sorted(graph, key=lambda asn: (-len(customer_cone(graph, asn)), asn))
    picked = {}

    def grid(engine, *, attackers, victims, origin_padding, run):
        picked.update(attackers=attackers, victims=victims)
        return [type("Cell", (), {"before_fraction": 0.0, "after_fraction": 0.5})()]

    monkeypatch.setattr(sweeps, "exhaustive_grid", grid)
    argv = ["grid", "--topology", f"caida:{topology}", "--attackers", "2"]
    assert main([*argv, "--victims", str(victims)]) == 0
    assert picked["victims"] == expected[:victims]
    assert picked["victims"][:2] == picked["attackers"] == [1, 3]
    capsys.readouterr()


#: what a λ-sweep point counts as: an impact-kernel cell
CELL_COUNTER = "engine.impact.cells"


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

    def test_an_ablation_records_its_experiment_timer(self, capsys, tmp_path):
        """Every artefact is instrumented, the ablations included."""
        from repro.telemetry import read_jsonl

        path = tmp_path / "metrics.jsonl"
        argv = ["run", "ablation-monitors", "--scale", "0.15", "--pairs", "6"]
        assert main([*argv, "--metrics", "jsonl", "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        restored = read_jsonl(path)
        assert restored.timers["experiment.ablation-monitors_seconds"].count == 1
        assert "topology.generate_seconds" in restored.timers

    def test_fig05_metrics_cover_the_measurement_world(self, capsys):
        """fig05's world is built and propagated on the run's registry."""
        assert main(["run", "fig05", "--scale", "0.3", "--metrics", "summary"]) == 0
        out = capsys.readouterr().out
        assert "experiment.fig05_seconds" in out
        assert "topology.generate_seconds" in out
        assert re.search(r"^engine\.\S+\s+counter\s+[1-9]", out, re.MULTILINE)

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

    @pytest.mark.parametrize(
        "argv",
        [["campaign"], ["grid", "--attackers", "3", "--victims", "10"], ["secpol-sweep"]],
        ids=["campaign", "grid", "secpol-sweep"],
    )
    def test_a_batch_command_times_its_generated_world(self, capsys, argv):
        """As ``run figNN`` does: a batch command's generated world is
        the figures' ``build_world``, timed once."""
        import json

        assert main([*argv, "--scale", "0.15", "--metrics", "jsonl"]) == 0
        events = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        (generate,) = (e for e in events if e["name"] == "topology.generate_seconds")
        assert generate["event"] == "timer"
        assert generate["count"] == 1

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
    """The run's one store, ``--store DIR``, is how a failed or killed
    run is finished."""

    ARGS = ["campaign", "--scale", "0.15", "--pairs", "4", "--monitors", "20"]

    def test_invalid_retries_rejected(self, capsys):
        """Nothing is retried, so ``--retries`` is no flag at all."""
        with pytest.raises(SystemExit) as usage:
            main(self.ARGS + ["--retries", "0"])
        assert usage.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == "repro-aspp: error: unrecognized arguments: --retries 0"

    def test_resume_writes_journal_and_replays_it(self, capsys, tmp_path):
        """One row-sized record per pair, replayed by the rerun."""
        store = tmp_path / "store"
        summary = ["--store", str(store), "--metrics", "summary"]
        assert main(self.ARGS + summary) == 0
        cold = capsys.readouterr().out
        lines = (store / "records.jsonl").read_bytes().splitlines()
        assert len(lines) == 4
        assert max(map(len, lines)) < 1024
        assert re.search(r"^store\.puts +counter +4 ", cold, re.M)

        # Second run replays every recorded instance; same summary.
        assert main(self.ARGS + summary) == 0
        warm = capsys.readouterr().out
        assert warm.splitlines()[:4] == cold.splitlines()[:4]
        assert re.search(r"^scheduler\.store_hits +counter +4 ", warm, re.M)
        assert "scheduler.executed" not in warm
        assert (store / "records.jsonl").read_bytes().splitlines() == lines

    def test_resume_after_truncation_completes_the_campaign(self, capsys, tmp_path):
        store = tmp_path / "store"
        log = store / "records.jsonl"
        main(self.ARGS + ["--store", str(store)])
        reference = capsys.readouterr().out
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:2]) + "\n")

        assert main(self.ARGS + ["--store", str(store)]) == 0
        assert capsys.readouterr().out == reference
        assert len(log.read_text().splitlines()) == len(lines)


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
        log = tmp_path / "store" / "records.jsonl"
        args = self.ARGS + ["--policy", "aspa", "--store", str(log.parent)]
        assert main(args) == 0
        first = capsys.readouterr().out
        lines = log.read_text().splitlines()
        assert len(lines) == 2

        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert log.read_text().splitlines() == lines

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
        """Stdout is counts, alarms and the verdict; the wall-clock
        throughput and latency live in ``--metrics`` only."""
        assert main(self.ARGS + ["--feeds", "3", "--batch", "32"]) == 0
        out = capsys.readouterr().out
        assert "updates/sec" not in out
        assert "latency" not in out
        assert "backpressure:" in out
        assert "attack:" in out
        assert main(self.ARGS + ["--feeds", "3", "--batch", "32", "--metrics", "summary"]) == 0
        summary = capsys.readouterr().out
        assert "detection.pipeline.run_seconds" in summary
        assert "detection.pipeline.update_latency_us" in summary
        assert summary.startswith(out)

    def test_no_attack_omits_verdict(self, capsys):
        assert main(self.ARGS + ["--no-attack"]) == 0
        out = capsys.readouterr().out
        assert "attack:" not in out
        assert "alarms:" in out

    @pytest.mark.parametrize("flags", [[], ["--metrics", "summary"]])
    def test_clock_is_read_only_under_metrics(self, capsys, monkeypatch, flags):
        """Without ``--metrics`` the stream reads no clock; with it, one
        read per update plus one per batch."""
        from repro.detection import streaming

        reads = []

        def counted():
            reads.append(None)
            return float(len(reads))

        monkeypatch.setattr(streaming, "perf_counter", counted)
        assert main(self.ARGS + ["--feeds", "2", "--batch", "16"] + flags) == 0
        out = capsys.readouterr().out
        if not flags:
            assert reads == []
            return
        counts = dict(
            re.findall(r"^(detection\.pipeline\.(?:updates|batches))\s+counter\s+(\d+)", out, re.M)
        )
        assert len(counts) == 2
        assert len(reads) == int(counts["detection.pipeline.updates"]) + int(
            counts["detection.pipeline.batches"]
        )

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
        assert capsys.readouterr().out == first
        other_seed = [arg if arg != "5" else "6" for arg in self.ARGS]
        assert main(other_seed) == 0
        assert capsys.readouterr().out != first


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

    @pytest.mark.parametrize("threshold", ["0", "nan"])
    def test_jsonl_output_is_strict_json(self, capsys, threshold):
        """Whatever threshold is typed, no ``NaN`` reaches the event log:
        a threshold the SLO cannot hold is refused at the flag."""
        import json

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        argv = self.ARGS + ["--slo-alarm-latency", threshold, "--metrics", "jsonl"]
        if threshold == "nan":
            with pytest.raises(SystemExit) as usage:
                main(argv)
            assert usage.value.code == 2
            return
        assert main(argv) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
        events = [json.loads(line, parse_constant=refuse) for line in lines]
        assert any(event.get("event") == "slo-breach" for event in events)

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
        (("--scale",), "scale", "positive_float", None, None, False, "store"),
        (("--pairs",), "pairs", "positive_int", None, None, False, "store"),
        (("--instances",), "instances", "positive_int", None, None, False, "store"),
        (("--workers",), "workers", "non_negative_int", None, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "all": [
        (("--seed",), "seed", "int", None, None, False, "store"),
        (("--scale",), "scale", "positive_float", None, None, False, "store"),
        (("--workers",), "workers", "non_negative_int", None, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "world": [
        (("--seed",), "seed", "int", 7, None, False, "store"),
        (("--scale",), "scale", "positive_float", 1.0, None, False, "store"),
        (("--save",), "save", "str", None, None, False, "store"),
    ],
    "campaign": [
        (("--seed",), "seed", "int", 7, None, False, "store"),
        (("--scale",), "scale", "positive_float", 1.0, None, False, "store"),
        (("--pairs",), "pairs", "positive_int", 50, None, False, "store"),
        (("--padding",), "padding", "positive_int", 3, None, False, "store"),
        (("--monitors",), "monitors", "positive_int", 150, None, False, "store"),
        (("--placement",), "placement", None, "top-degree", ("top-degree", "greedy-cover"), False, "store"),
        (("--workers",), "workers", "non_negative_int", None, None, False, "store"),
        (("--topology",), "topology", "topology_spec", None, None, False, "store"),
        (("--store",), "store", "str", None, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "grid": [
        (("--seed",), "seed", "int", 7, None, False, "store"),
        (("--scale",), "scale", "positive_float", 1.0, None, False, "store"),
        (("--padding",), "padding", "positive_int", 3, None, False, "store"),
        (("--attackers",), "attackers", "positive_int", None, None, False, "store"),
        (("--victims",), "victims", "positive_int", None, None, False, "store"),
        (("--workers",), "workers", "non_negative_int", None, None, False, "store"),
        (("--topology",), "topology", "topology_spec", None, None, False, "store"),
        (("--store",), "store", "str", None, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "secpol-sweep": [
        (("--policy",), "policy", None, "prependguard", ("none", "rov", "aspa", "prependguard"), False, "store"),
        (("--strategy",), "strategy", None, "top-degree-first", ("random", "top-degree-first", "tier1-only", "victim-cone"), False, "store"),
        (("--fractions",), "fractions", "deployment_fractions", "0.0,0.1,0.2,0.4,0.6,0.8,1.0", None, False, "store"),
        (("--seed",), "seed", "int", 7, None, False, "store"),
        (("--scale",), "scale", "positive_float", 1.0, None, False, "store"),
        (("--padding",), "padding", "positive_int", 3, None, False, "store"),
        (("--victim",), "victim", "int", None, None, False, "store"),
        (("--attacker",), "attacker", "int", None, None, False, "store"),
        (("--valley-free",), "valley_free", None, False, None, False, "storetrue"),
        (("--workers",), "workers", "non_negative_int", None, None, False, "store"),
        (("--topology",), "topology", "topology_spec", None, None, False, "store"),
        (("--store",), "store", "str", None, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "detect-stream": [
        (("--seed",), "seed", "int", 7, None, False, "store"),
        (("--scale",), "scale", "positive_float", 0.5, None, False, "store"),
        (("--monitors",), "monitors", "positive_int", 100, None, False, "store"),
        (("--updates",), "updates", "non_negative_int", 20000, None, False, "store"),
        (("--prefixes",), "prefixes", "positive_int", 4, None, False, "store"),
        (("--feeds",), "feeds", "positive_int", 4, None, False, "store"),
        (("--batch",), "batch", "positive_int", 64, None, False, "store"),
        (("--backpressure",), "backpressure", None, "block", ("block", "drop", "park"), False, "store"),
        (("--capacity",), "capacity", "positive_int", 256, None, False, "store"),
        (("--padding",), "padding", "positive_int", 3, None, False, "store"),
        (("--no-attack",), "no_attack", None, False, None, False, "storetrue"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "mitigate-stream": [
        (("--seed",), "seed", "int", 7, None, False, "store"),
        (("--scale",), "scale", "positive_float", 0.5, None, False, "store"),
        (("--monitors",), "monitors", "positive_int", 100, None, False, "store"),
        (("--updates",), "updates", "non_negative_int", 8000, None, False, "store"),
        (("--prefixes",), "prefixes", "positive_int", 4, None, False, "store"),
        (("--padding",), "padding", "positive_int", 3, None, False, "store"),
        (("--strategy",), "strategy", None, "stepdown", ("none", "stepdown", "reset"), False, "store"),
        (("--step",), "step", "positive_int", 1, None, False, "store"),
        (("--floor",), "floor", "positive_int", 1, None, False, "store"),
        (("--reaction",), "reaction", "non_negative_int", 64, None, False, "store"),
        (("--feeds",), "feeds", "positive_int", 4, None, False, "store"),
        (("--batch",), "batch", "positive_int", 64, None, False, "store"),
        (("--backpressure",), "backpressure", None, "block", ("block", "drop", "park"), False, "store"),
        (("--capacity",), "capacity", "positive_int", 256, None, False, "store"),
        (("--fault-rate",), "fault_rate", "unit_fraction", 0.0, None, False, "store"),
        (("--fault-seed",), "fault_seed", "int", None, None, False, "store"),
        (("--unrecoverable",), "unrecoverable", None, False, None, False, "storetrue"),
        (("--slo-alarm-latency",), "slo_alarm_latency", "non_negative_float", 2000.0, None, False, "store"),
        (("--slo-feed-staleness",), "slo_feed_staleness", "non_negative_float", 512.0, None, False, "store"),
        (("--slo-recovery-rounds",), "slo_recovery_rounds", "non_negative_float", 12.0, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "query": [
        ((), "experiment", None, None, EXPERIMENTS, True, "store"),
        (("--store",), "store", "str", None, None, True, "store"),
        (("--seed",), "seed", "int", None, None, False, "store"),
        (("--scale",), "scale", "positive_float", None, None, False, "store"),
        (("--pairs",), "pairs", "positive_int", None, None, False, "store"),
        (("--instances",), "instances", "positive_int", None, None, False, "store"),
        (("--workers",), "workers", "non_negative_int", None, None, False, "store"),
        (("--metrics",), "metrics", None, "off", ("off", "summary", "jsonl"), False, "store"),
        (("--metrics-out",), "metrics_out", "str", None, None, False, "store"),
    ],
    "store": [
        (("--store",), "store", "str", None, None, True, "store"),
        (("--compact",), "compact", None, False, None, False, "storetrue"),
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


#: bad run flags every batch command takes
_BAD_RUN_FLAGS = [
    ["--workers", "-1"],
    ["--padding", "0"],
    ["--topology", "caida:/no/such/as-rel2.txt"],
    ["--topology", "synth:many"],
    ["--topology", "synth:3"],
    ["--topology", "synth:8"],
    ["--metrics-out", "m.jsonl"],
]
#: and the deployment fractions only secpol-sweep takes
_BAD_FRACTIONS = [["--fractions", value] for value in ("1.5", "nan", "-0.1", "0.2,x", ",")]

_BAD_FLAGS = [
    (command, flags)
    for command in ("campaign", "grid", "secpol-sweep")
    for flags in _BAD_RUN_FLAGS + (_BAD_FRACTIONS if command == "secpol-sweep" else [])
]


class TestErrors:
    """Bad run flags are usage errors before anything is built; library
    errors are one line on stderr, not a traceback."""

    @pytest.fixture()
    def no_world(self, monkeypatch):
        import repro.cli as cli
        import repro.experiments.base as base

        def built(*args, **kwargs):
            raise AssertionError("the world was built before the flags were checked")

        monkeypatch.setattr(base, "generate_world", built)
        monkeypatch.setattr(cli, "_load_world", built)

    @pytest.mark.parametrize(
        "command, flags",
        _BAD_FLAGS,
        ids=[f"{command}-{flags[0].lstrip('-')}" for command, flags in _BAD_FLAGS],
    )
    def test_bad_flag_is_a_usage_error(self, command, flags, no_world, capsys, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as usage:
            main([command, "--scale", "0.15", "--store", str(store), *flags])
        assert usage.value.code == 2
        error = capsys.readouterr().err
        last = error.splitlines()[-1]
        assert f"repro-aspp {command}: error: " in last
        if flags[0] in ("--topology", "--fractions"):
            assert last.startswith(f"repro-aspp {command}: error: argument {flags[0]}: ")
        assert "Traceback" not in error
        assert not store.exists()

    @pytest.mark.parametrize(
        "argv",
        [["run", "fig09"], ["query", "fig09", "--store", "store"], ["all"]],
        ids=["run", "query", "all"],
    )
    def test_a_negative_worker_count_is_a_usage_error(
        self, argv, no_world, capsys, tmp_path, monkeypatch
    ):
        """As in the batch commands: before any figure is computed, not
        after the first ones are printed."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as usage:
            main([*argv, "--scale", "0.15", "--workers", "-1"])
        assert usage.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"repro-aspp {argv[0]}: error: argument --workers: must be at least 0, got -1"
        )
        assert not (tmp_path / "store").exists()

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

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "command", ["run fig13", "world", "grid", "campaign", "detect-stream"]
    )
    def test_a_scale_that_is_not_a_finite_positive_number_is_a_usage_error(
        self, command, scale, no_world, monkeypatch, capsys
    ):
        """Not a ``ValueError`` / ``OverflowError`` traceback (nan, inf)
        or a world-building exit 1 (0, -1)."""
        from repro.experiments import base

        def built(*args, **kwargs):
            raise AssertionError("the world was built before the flags were checked")

        monkeypatch.setattr(base, "build_world", built)
        with pytest.raises(SystemExit) as usage:
            main([*command.split(), f"--scale={scale}"])
        assert usage.value.code == 2
        error = capsys.readouterr().err
        assert error.splitlines()[-1] == (
            f"repro-aspp {command.split()[0]}: error: argument --scale: "
            f"must be a finite number above 0, got {scale}"
        )
        assert "Traceback" not in error

    @pytest.mark.parametrize(
        "flags",
        ["--unrecoverable", "--fault-seed 3", "--fault-rate 0 --unrecoverable"],
        ids=["unrecoverable", "fault-seed", "zero-rate"],
    )
    def test_fault_flags_without_a_fault_rate_are_a_usage_error(self, flags, monkeypatch, capsys):
        """With no positive ``--fault-rate`` no plan is drawn, so these
        flags would do nothing: refused before any stream is built, not
        a run that exits 0 with no faults."""
        from repro import cli

        def built(*args, **kwargs):
            raise AssertionError("the stream was built before the flags were checked")

        monkeypatch.setattr(cli, "_churn_stream", built)
        with pytest.raises(SystemExit) as usage:
            main(["mitigate-stream", "--scale", "0.15", *flags.split()])
        assert usage.value.code == 2
        flag = "--fault-seed" if "--fault-seed" in flags else "--unrecoverable"
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == (
            f"repro-aspp mitigate-stream: error: argument {flag}: needs --fault-rate above 0"
        )

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

    @pytest.mark.parametrize("flag", ["--store"])
    @pytest.mark.parametrize(
        "command", ["campaign", "grid", "secpol-sweep", "query", "store"]
    )
    def test_a_path_no_store_can_open_at_is_a_usage_error(
        self, command, flag, no_world, capsys, tmp_path
    ):
        """A path under a file, and a file itself: a store is a
        directory, on every command that opens one."""
        argv = {"query": ["query", "fig09"], "store": ["store"]}.get(
            command, [command, "--scale", "0.15"]
        )
        (tmp_path / "file").write_text("")
        for path in (tmp_path / "file" / "under", tmp_path / "file"):
            with pytest.raises(SystemExit) as usage:
                main([*argv, flag, str(path)])
            assert usage.value.code == 2
            error = capsys.readouterr().err
            assert f"repro-aspp {command}: error: no result store" in error.splitlines()[-1]
            assert sum("error:" in line for line in error.splitlines()) == 1
            assert "Traceback" not in error

    @pytest.mark.parametrize("command", ["campaign", "grid", "secpol-sweep"])
    def test_resume_and_store_together_are_a_usage_error(
        self, command, no_world, capsys, tmp_path
    ):
        """A run has one store, ``--store DIR``: ``--resume`` is no flag."""
        resume, store = str(tmp_path / "r.jsonl"), str(tmp_path / "store")
        with pytest.raises(SystemExit) as usage:
            main([command, "--scale", "0.15", "--resume", resume, "--store", store])
        assert usage.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"repro-aspp: error: unrecognized arguments: --resume {resume}"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--resume", "r.jsonl"],
            ["grid", "--resume", "r.jsonl"],
            ["secpol-sweep", "--resume", "r.jsonl"],
            ["store", "--store", "s", "--import-journal", "j"],
        ],
        ids=["campaign", "grid", "secpol-sweep", "store"],
    )
    def test_the_removed_resume_flags_are_a_usage_error(self, argv, no_world, capsys):
        """A store is one shape, a directory: there is no single-file
        store to open or to import from."""
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"repro-aspp: error: unrecognized arguments: {' '.join(argv[-2:])}"

    @pytest.mark.parametrize(
        "command, flag, value, least",
        [
            *(
                (command, flag, "0", 1)
                for command in ("detect-stream", "mitigate-stream")
                for flag in ("--prefixes", "--feeds", "--batch", "--capacity")
            ),
            ("detect-stream", "--updates", "-1", 0),
            ("mitigate-stream", "--updates", "-1", 0),
            ("mitigate-stream", "--step", "0", 1),
            ("mitigate-stream", "--floor", "0", 1),
            ("mitigate-stream", "--reaction", "-1", 0),
            ("run fig08", "--instances", "0", 1),
            ("query fig07", "--instances", "0", 1),
        ],
    )
    def test_stream_and_instance_counts_out_of_range_are_a_usage_error(
        self, command, flag, value, least, monkeypatch, capsys, tmp_path
    ):
        """Refused by the flag's type, before a churn stream or a world
        is built."""
        from repro.experiments import base
        from repro.measurement import churn

        def built(*args, **kwargs):
            raise AssertionError("the world was built before the flags were checked")

        monkeypatch.setattr(base, "build_world", built)
        monkeypatch.setattr(churn, "build_world", built)
        store = ["--store", str(tmp_path / "s")] if command.startswith("query") else []
        with pytest.raises(SystemExit) as usage:
            main([*command.split(), "--scale", "0.15", *store, f"{flag}={value}"])
        assert usage.value.code == 2
        error = capsys.readouterr().err
        assert error.splitlines()[-1] == (
            f"repro-aspp {command.split()[0]}: error: argument {flag}: "
            f"must be at least {least}, got {value}"
        )
        assert "Traceback" not in error

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "flag", ["--slo-alarm-latency", "--slo-feed-staleness", "--slo-recovery-rounds"]
    )
    def test_an_slo_threshold_must_be_finite_and_non_negative(
        self, flag, value, monkeypatch, capsys
    ):
        """``nan`` would print ``"threshold": NaN`` (not JSON) into the
        event log, and a negative threshold breaches on the first
        observation."""
        from repro.measurement import churn

        def built(*args, **kwargs):
            raise AssertionError("the stream was built before the flags were checked")

        monkeypatch.setattr(churn, "build_world", built)
        with pytest.raises(SystemExit) as usage:
            main(["mitigate-stream", "--scale", "0.15", f"{flag}={value}"])
        assert usage.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"repro-aspp mitigate-stream: error: argument {flag}: "
            f"must be a finite number of at least 0, got {value}"
        )

    @pytest.mark.parametrize("value", ["1.5", "nan"])
    def test_a_fault_rate_outside_0_1_is_a_usage_error(self, value, monkeypatch, capsys):
        """Refused by the flag's type, in every range error's wording,
        before any stream is built."""
        from repro import cli

        def built(*args, **kwargs):
            raise AssertionError("the stream was built before the flags were checked")

        monkeypatch.setattr(cli, "_churn_stream", built)
        with pytest.raises(SystemExit) as usage:
            main(["mitigate-stream", "--scale", "0.2", "--fault-rate", value])
        assert usage.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "repro-aspp mitigate-stream: error: argument --fault-rate: "
            f"must be in [0, 1], got {value}"
        )

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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "fig09", "--metrics", "jsonl", "--metrics-out"], "--metrics-out"),
            (["campaign", "--metrics", "jsonl", "--metrics-out"], "--metrics-out"),
            (["world", "--save"], "--save"),
        ],
        ids=["run", "campaign", "world"],
    )
    @pytest.mark.parametrize("where", ["missing-parent", "a-directory"])
    def test_an_output_path_that_cannot_be_written_is_a_usage_error(
        self, argv, flag, where, no_world, monkeypatch, capsys, tmp_path
    ):
        """Found before a world is built, not after the whole run."""
        from repro.experiments import base

        def built(*args, **kwargs):
            raise AssertionError("the world was built before the flags were checked")

        monkeypatch.setattr(base, "build_world", built)
        path = tmp_path / "no" / "out" if where == "missing-parent" else tmp_path
        with pytest.raises(SystemExit) as usage:
            main([*argv, str(path), "--scale", "0.15"])
        assert usage.value.code == 2
        error = capsys.readouterr().err
        assert f"error: argument {flag}: cannot write {path}: " in error.splitlines()[-1]
        assert "Traceback" not in error

    @pytest.mark.parametrize(
        "argv, module, writer",
        [
            (
                ["run", "fig01", "--metrics", "jsonl", "--metrics-out"],
                "repro.telemetry.report",
                "write_jsonl",
            ),
            (
                ["world", "--scale", "0.15", "--save"],
                "repro.topology.serialization",
                "save_caida",
            ),
        ],
        ids=["metrics-out", "save"],
    )
    def test_a_write_that_fails_is_one_error_line(
        self, argv, module, writer, monkeypatch, capsys, tmp_path
    ):
        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(importlib.import_module(module), writer, full)
        assert main([*argv, str(tmp_path / "out")]) == 1
        error = capsys.readouterr().err
        assert error == "repro-aspp: error: [Errno 28] No space left on device\n"

    def test_library_error_is_one_line_and_status_one(self, capsys):
        assert main(["secpol-sweep", "--scale", "0.15", "--victim", "999999"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "repro-aspp: error: AS999999 is not present in the topology\n"
        assert captured.out == ""

    def test_a_run_outside_the_packed_key_is_one_line(self, monkeypatch, capsys):
        """A cell the impact kernel's key cannot hold is a library error
        naming the key's limits, not a traceback and not a detour."""
        from repro.bgp import vectorized

        monkeypatch.setattr(vectorized, "_MAX_LEN", 2)
        assert main(["grid", "--scale", "0.2", "--attackers", "2", "--victims", "3"]) == 1
        error = capsys.readouterr().err
        assert len(error.splitlines()) == 1
        assert error.startswith("repro-aspp: error: ")
        assert "packed decision key" in error and "below 2" in error

    def test_an_asn_past_64_bits_is_one_line_naming_it(self, capsys, tmp_path):
        topology = tmp_path / "big.as-rel2.txt"
        topology.write_text("1|2|-1\n1|3|-1\n3|9223372036854775808|-1\n")
        assert main(["grid", "--topology", f"caida:{topology}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "repro-aspp: error: line 3: AS numbers are 32-bit (at most 4294967295), "
            "got 9223372036854775808\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["", "# banner only\n\n"], ids=["empty", "comments"])
    def test_a_file_without_relationships_is_one_line_naming_it(self, text, capsys, tmp_path):
        topology = tmp_path / "none.as-rel2.txt"
        topology.write_text(text)
        assert main(["grid", "--topology", f"caida:{topology}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"repro-aspp: error: {topology} holds no AS relationships\n"
        assert captured.out == ""

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_fig07_needs_a_pair(self, capsys, instances):
        """No instances is a usage error, not a division by zero (0) or
        every pair but one (-1, through ``pairs[:-1]``)."""
        with pytest.raises(SystemExit) as usage:
            main(["run", "fig07", "--scale", "0.15", f"--instances={instances}"])
        assert usage.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            f"repro-aspp run: error: argument --instances: must be at least 1, got {instances}"
        )
        assert captured.out == ""


def test_fig05_compiles_its_topology_once(capsys, monkeypatch):
    """Every churn event fails a link with import filters on the world's
    own engine: one compiled topology, no graph copies."""
    from repro.bgp.compiled import CompiledTopology
    from repro.topology.asgraph import ASGraph

    compiles, copies = [], []
    compile_fn = CompiledTopology.from_graph.__func__
    copy_fn = ASGraph.copy

    def counted_compile(cls, *args, **kwargs):
        compiles.append(1)
        return compile_fn(cls, *args, **kwargs)

    def counted_copy(self, *args, **kwargs):
        copies.append(1)
        return copy_fn(self, *args, **kwargs)

    monkeypatch.setattr(CompiledTopology, "from_graph", classmethod(counted_compile))
    monkeypatch.setattr(ASGraph, "copy", counted_copy)
    assert main(["run", "fig05", "--scale", "0.3"]) == 0
    assert "fig05" in capsys.readouterr().out
    assert (len(compiles), len(copies)) == (1, 0)
