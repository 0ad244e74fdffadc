"""Pinned golden snapshots for the detection experiments.

:mod:`tests.experiments.test_seed_determinism` pins the propagation
side (fig09); this suite pins the detection side — fig13's accuracy
curve and fig14's pollution-before-detection CDF — at a fixed seed and
scale.  A refactor of the detector, the streaming reconstruction, the
collector, or the timing logic that shifts a single detection verdict
fails here with the exact row that moved.

The rows double as the telemetry differential for these experiments:
a metrics-carrying run must reproduce them bit-for-bit.
"""

from __future__ import annotations

from repro.experiments.fig13_detection_accuracy import Fig13Config
from repro.experiments.fig13_detection_accuracy import run as run_fig13
from repro.experiments.fig14_pollution_before_detection import Fig14Config
from repro.experiments.fig14_pollution_before_detection import run as run_fig14
from repro.telemetry import RunMetrics

FIG13_CONFIG = Fig13Config(seed=7, scale=0.25, pairs=40)
FIG14_CONFIG = Fig14Config(seed=7, scale=0.25, pairs=40, monitors=50)

#: fig13 at seed=7, scale=0.25, pairs=40 — (monitors, detected,
#: batch %, streaming %).  The 400-monitor point exceeds the scaled
#: topology and is skipped by the experiment.  Regenerate with
#: ``repro-aspp run fig13 --scale 0.25 --pairs 40`` after a deliberate
#: semantic change.
GOLDEN_FIG13_ROWS = [
    (10, 2, 5.4, 5.4),
    (30, 12, 32.4, 32.4),
    (50, 18, 48.6, 48.6),
    (70, 22, 59.5, 59.5),
    (100, 32, 86.5, 86.5),
    (150, 36, 97.3, 97.3),
    (200, 36, 97.3, 97.3),
    (250, 36, 97.3, 97.3),
    (300, 36, 97.3, 97.3),
]

#: fig14 at seed=7, scale=0.25, pairs=40, monitors=50 — (fraction,
#: CDF, stealthy-attacker CDF).  Undetected attacks count as fraction
#: 1.0, hence both CDFs close at exactly 1.0.
GOLDEN_FIG14_ROWS = [
    (0.0, 0.395, 0.0),
    (0.05, 0.395, 0.158),
    (0.1, 0.395, 0.237),
    (0.2, 0.395, 0.237),
    (0.3, 0.395, 0.237),
    (0.37, 0.395, 0.237),
    (0.5, 0.395, 0.237),
    (0.7, 0.395, 0.237),
    (0.9, 0.395, 0.237),
    (1.0, 1.0, 1.0),
]


class TestFig13Golden:
    def test_matches_golden_snapshot(self):
        result = run_fig13(FIG13_CONFIG)
        assert result.rows == GOLDEN_FIG13_ROWS
        assert result.summary["effective_attacks"] == 37.0
        # Streaming detection dominates batch detection on every row.
        for _, _, batch_pct, streaming_pct in result.rows:
            assert streaming_pct >= batch_pct

    def test_rerun_is_bit_identical(self):
        first = run_fig13(FIG13_CONFIG)
        second = run_fig13(FIG13_CONFIG)
        assert first.rows == second.rows
        assert first.summary == second.summary
        assert first.to_text() == second.to_text()

    def test_metrics_run_reproduces_golden_rows(self):
        metrics = RunMetrics()
        result = run_fig13(FIG13_CONFIG, metrics=metrics)
        assert result.rows == GOLDEN_FIG13_ROWS
        assert result.metrics is metrics
        assert metrics.counter_value("detection.timings") > 0
        assert metrics.counter_value("detection.pipeline.updates") > 0


class TestFig14Golden:
    def test_matches_golden_snapshot(self):
        result = run_fig14(FIG14_CONFIG)
        assert result.rows == GOLDEN_FIG14_ROWS
        assert result.summary["effective_attacks"] == 38.0
        assert result.summary["detected_attacks"] == 15.0
        # The CDF is monotone and closes at 1.0 for both series.
        cdf = [row[1] for row in result.rows]
        stealthy = [row[2] for row in result.rows]
        assert cdf == sorted(cdf) and cdf[-1] == 1.0
        assert stealthy == sorted(stealthy) and stealthy[-1] == 1.0
        # A stealthy attacker (not feeding the collector) is never
        # caught earlier than an announcing one.
        for _, caught, caught_stealthy in result.rows:
            assert caught_stealthy <= caught

    def test_rerun_is_bit_identical(self):
        first = run_fig14(FIG14_CONFIG)
        second = run_fig14(FIG14_CONFIG)
        assert first.rows == second.rows
        assert first.summary == second.summary
        assert first.to_text() == second.to_text()

    def test_metrics_run_reproduces_golden_rows(self):
        metrics = RunMetrics()
        result = run_fig14(FIG14_CONFIG, metrics=metrics)
        assert result.rows == GOLDEN_FIG14_ROWS
        assert result.metrics is metrics
        assert "detection.polluted_before_fraction" in metrics.histograms
