"""Tests for the CAIDA as-rel2 loader (strict serial-2 style parsing).

The fixtures under ``tests/topology/fixtures/`` are hand-written
miniatures of a published ``YYYYMMDD.as-rel2.txt`` snapshot: comment
banner, optional fourth inference-source field, blank lines, and (in
the mangled one) the duplicate edge a real snapshot never contains.
"""

from __future__ import annotations

import bz2
from pathlib import Path

import pytest

from repro.exceptions import SerializationError
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship
from repro.topology.serialization import dumps_caida, load_asrel2, loads_asrel2
from tests.topology.load_oracle import loads_asrel2_oracle

FIXTURES = Path(__file__).parent / "fixtures"
MINI = FIXTURES / "mini.as-rel2.txt"
MANGLED = FIXTURES / "mangled.as-rel2.txt"


@pytest.fixture()
def graph() -> ASGraph:
    g = ASGraph()
    g.add_p2c(1, 2)
    g.add_p2p(2, 3)
    g.add_s2s(3, 4)
    return g


def test_mini_snapshot_parses(tmp_path):
    g = load_asrel2(MINI)
    assert len(g) == 6
    assert g.relationship(174, 3356) is Relationship.PEER
    assert g.relationship(3356, 64512) is Relationship.CUSTOMER
    assert 64512 in g.customers_of(3356)
    assert 64515 in g.siblings_of(64514)


def test_source_field_is_optional_and_ignored():
    with_source = loads_asrel2("1|2|-1|bgp\n2|3|0|mlp\n")
    without = loads_asrel2("1|2|-1\n2|3|0\n")
    assert list(with_source.edges()) == list(without.edges())


def test_round_trip_through_serial1_writer(graph):
    restored = loads_asrel2(dumps_caida(graph, header="as-rel2 round trip"))
    assert list(restored.edges()) == list(graph.edges())


def test_comments_and_blank_lines_skipped():
    g = loads_asrel2("# banner\n\n# clique: 1\n1|2|-1\n\n")
    assert g.relationship(1, 2) is Relationship.CUSTOMER


def test_bz2_snapshot_loads(tmp_path):
    path = tmp_path / "20240101.as-rel2.txt.bz2"
    path.write_bytes(bz2.compress(MINI.read_bytes()))
    assert list(load_asrel2(path).edges()) == list(load_asrel2(MINI).edges())


@pytest.mark.parametrize(
    ("bad", "line"),
    [
        ("1|2", 1),  # too few fields
        ("1|2|-1\n1|2|-1|bgp|extra", 2),  # five fields: stricter than serial-1
        ("a|b|-1", 1),  # non-integer ASN
        ("1|2|x", 1),  # non-integer code
        ("1|2|7|bgp", 1),  # unknown relationship code
        ("1|1|-1", 1),  # self-loop
        ("# ok\n1|2|-1\n1|2|0|bgp", 3),  # duplicate edge, conflicting role
        ("1|2|-1\n2|1|-1", 2),  # duplicate edge, reversed
        # a refused edge before a malformed line, and after one
        ("1|2|-1\n2|1|0\n1|2", 2),  # repeat, then too few fields
        ("1|1|-1\n1|2|x", 1),  # self-loop, then a non-integer field
        ("0|1|-1\n1|2|9", 1),  # bad ASN, then an unknown code
        ("1|2|-1\n1|3|0\n3|1|2|bgp|extra", 3),  # clean edges, then five fields
        ("1|2\n1|1|-1", 1),  # too few fields, then a self-loop
        ("1|2|-1\n3|18446744073709551616|0\n1|2|0", 2),  # past 64 bits, then a repeat
        ("1|2|-1\n2|1|-1\n2|18446744073709551616|0", 2),  # repeat, then past 64 bits
    ],
)
def test_malformed_snapshots_carry_line_numbers(bad, line):
    """The per-edge parser's exact message, naming the earliest bad line."""
    with pytest.raises(SerializationError, match=f"line {line}: ") as raised:
        loads_asrel2(bad)
    with pytest.raises(SerializationError) as expected:
        loads_asrel2_oracle(bad)
    assert str(raised.value) == str(expected.value)


def test_mangled_fixture_names_the_duplicate_line():
    with pytest.raises(SerializationError, match="line 4"):
        load_asrel2(MANGLED)


def test_extra_fields_still_fine_for_lenient_serial1():
    # serial-1 stays lenient; the strictness is an as-rel2 property.
    from repro.topology.serialization import loads_caida

    g = loads_caida("1|2|-1|bgp|extra|fields")
    assert g.relationship(1, 2) is Relationship.CUSTOMER


def test_parsed_snapshot_drops_into_the_engine():
    from repro.bgp.engine import PropagationEngine

    g = load_asrel2(MINI)
    engine = PropagationEngine(g)
    outcome = engine.propagate(64515)
    assert outcome.best[174] is not None


@pytest.mark.parametrize("asn", [2**63, 2**32])
def test_an_asn_past_32_bits_is_refused_with_its_line(asn):
    with pytest.raises(SerializationError, match="line 3: AS numbers are 32-bit"):
        loads_asrel2(f"1|2|-1\n1|3|-1\n3|{asn}|-1\n")


def test_the_largest_32_bit_asn_loads():
    g = loads_asrel2("1|2|-1\n2|4294967295|0\n")
    assert g.relationship(2, 4294967295) is Relationship.PEER
