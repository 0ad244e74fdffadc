"""Tests for topology statistics."""

from __future__ import annotations

import math

from repro.topology.asgraph import ASGraph
from repro.topology.stats import powerlaw_exponent, summarize


def test_powerlaw_exponent_empty_graph_nan():
    assert math.isnan(powerlaw_exponent(ASGraph()))


def test_summarize_counts(small_world):
    summary = summarize(small_world.graph)
    assert summary.num_ases == len(small_world.graph)
    assert summary.num_edges == small_world.graph.num_edges
    assert summary.num_p2c + summary.num_p2p + summary.num_s2s == summary.num_edges
    assert summary.tier_counts[1] == len(small_world.tier1)
    assert summary.num_stubs > 0
    assert 1.2 < summary.powerlaw_exponent < 3.5
    assert summary.max_degree >= summary.mean_degree


def test_summary_rows_render(small_world):
    rows = summarize(small_world.graph).as_rows()
    keys = [k for k, _ in rows]
    assert "ASes" in keys and "links" in keys
    assert any(k.startswith("tier-1") for k in keys)

