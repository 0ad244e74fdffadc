"""Tests for the data-plane traceroute simulation (Table I)."""

from __future__ import annotations

import pytest

from repro.casestudy.traceroute import TracerouteSimulator


@pytest.fixture()
def tracer() -> TracerouteSimulator:
    return TracerouteSimulator(
        regions={1: "us", 2: "us", 3: "cn", 4: "kr", 5: "us"}
    )


class TestTrace:
    def test_hops_follow_as_sequence(self, tracer):
        hops = tracer.trace(1, (2, 5))
        asns = [hop.asn for hop in hops]
        # First the gateway inside AS1, then 1, 2, 5 in order.
        assert asns[0] == 1
        order = [asn for i, asn in enumerate(asns) if i == 0 or asns[i - 1] != asn]
        assert order == [1, 2, 5]

    def test_rtts_monotone(self, tracer):
        hops = tracer.trace(1, (2, 3, 4, 5))
        rtts = [hop.rtt_ms for hop in hops]
        assert all(a <= b for a, b in zip(rtts, rtts[1:]))

    def test_cross_ocean_inflation(self, tracer):
        """The Table-I signature: the path through China/Korea is far
        slower than the domestic path."""
        domestic = tracer.end_to_end_rtt(1, (2, 5))
        detour = tracer.end_to_end_rtt(1, (2, 3, 4, 5))
        assert detour > 3 * domestic

    def test_prepending_does_not_add_hops(self, tracer):
        plain = tracer.trace(1, (2, 5))
        padded = tracer.trace(1, (2, 5, 5, 5))
        assert [h.asn for h in plain] == [h.asn for h in padded]
        assert plain[-1].rtt_ms == padded[-1].rtt_ms

    def test_deterministic(self, tracer):
        assert tracer.trace(1, (2, 3)) == tracer.trace(1, (2, 3))

    def test_empty_path_traces_source_only(self, tracer):
        hops = tracer.trace(1, ())
        assert hops[0].ip == "192.168.1.1"
        assert all(hop.asn == 1 for hop in hops)

    def test_rows_format(self, tracer):
        row = tracer.trace(1, (2,))[0].as_row()
        assert row[0] == 1
        assert row[1].endswith("ms")
        assert row[3].startswith("AS")

    def test_unknown_region_uses_default(self):
        tracer = TracerouteSimulator(regions={})
        hops = tracer.trace(1, (2,))
        assert hops[-1].rtt_ms > 0
