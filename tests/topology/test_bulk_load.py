"""The bulk loader against the per-edge one, and one store per graph.

Five contracts:

* **Load.**  ``loads_asrel2`` / ``loads_caida`` fill three edge columns
  and build the graph with :meth:`ASGraph.from_edge_columns`.  The graph
  must equal what the per-edge parser (:mod:`tests.topology.load_oracle`)
  builds — the same ASes in the same order, the same edge rows, every
  per-AS query answering as the adjacency-set oracle
  (:mod:`tests.topology.adjacency_oracle`) — and a malformed file must fail
  with the oracle's exact message, the earliest bad line winning whether
  its fault is the line's shape or the edge it names (the hand-picked
  cases are ``test_asrel2.py``'s).
* **Compile.**  :meth:`CompiledTopology.from_graph` is one NumPy pass
  over the graph's edge columns, loaded or inserted; either way its nine
  CSR columns equal the per-slot oracle's
  (:mod:`tests.bgp.compile_oracle`).
* **Memo.**  The columns are the graph: they outlive its compile,
  follow every mutation, and travel with a copy or a pickle; the
  compiled form and the per-AS maps never do.
* **Deferred maps.**  A per-AS query builds only the map it reads (a
  role map, the degree counts or the pair map), on first read; an edge
  insert or removal builds the pair map and keeps it current; a grid
  on a loaded file builds the customer map alone.  The plain NumPy
  pass of the loader reads what the per-line loop would, or leaves the
  text to it.
* **One representation.**  Inserts, removals, ``from_edge_columns``,
  copies and pickles agree on every read of the same edges, and every
  per-AS query answers as the adjacency sets the same edits kept
  current.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.compiled import CompiledTopology
from repro.exceptions import DuplicateEdgeError, SerializationError, TopologyError
from repro.experiments.base import generate_world
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship
from repro.topology.generators import PowerLawConfig, generate_powerlaw_topology
from repro.topology.serialization import (
    _line_columns,
    _plain_columns,
    dumps_caida,
    loads_asrel2,
    loads_caida,
)
from tests.bgp.compile_oracle import columns, compile_oracle
from tests.topology.adjacency_oracle import AdjacencyOracle, assert_queries_match
from tests.topology.load_oracle import loads_asrel2_oracle, loads_caida_oracle

FIXTURES = Path(__file__).parent / "fixtures"

#: the end-to-end benchmark's 10k-AS power-law shape
SCALE_10K = PowerLawConfig(
    num_ases=10_000,
    tier1_size=20,
    transit_fraction=0.30,
    transit_providers=(2, 4),
    stub_providers=(1, 3),
    transit_peering_degree=(4, 24),
)


ROLES = (Relationship.CUSTOMER, Relationship.PROVIDER, Relationship.PEER, Relationship.SIBLING)


def assert_same_graph(graph: ASGraph, oracle: ASGraph) -> None:
    """Same ASes in the same order, the same edge rows, and every
    per-AS query answering as the adjacency sets of ``oracle``'s rows."""
    assert list(graph) == list(oracle)
    for ours, theirs in zip(graph.edge_columns(), oracle.edge_columns()):
        assert ours.tolist() == theirs.tolist()
    assert_queries_match(graph, AdjacencyOracle(oracle))
    assert graph.num_edges == oracle.num_edges
    assert list(graph.edges()) == list(oracle.edges())


def outcome(load, text: str):
    """``load(text)``, or the message of the error it raised."""
    try:
        return load(text)
    except SerializationError as exc:
        return str(exc)


def assert_loads_alike(text: str) -> None:
    for load, oracle in ((loads_asrel2, loads_asrel2_oracle), (loads_caida, loads_caida_oracle)):
        ours, theirs = outcome(load, text), outcome(oracle, text)
        if isinstance(theirs, str):
            assert ours == theirs
        else:
            assert not isinstance(ours, str), ours
            assert_same_graph(ours, theirs)


@st.composite
def clean_snapshots(draw, *, padded: bool = True) -> str:
    """An as-rel2 text of unique links of every kind, with source
    fields, comments and blank lines between them, and unless not
    ``padded`` whitespace around lines and on blank ones."""
    asns = draw(st.lists(st.integers(1, 2**32 - 1), min_size=2, max_size=16, unique=True))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(asns), st.sampled_from(asns)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            unique_by=frozenset,
            max_size=40,
        )
    )
    lines = []
    for a, b in pairs:
        code = draw(st.sampled_from(["-1", "0", "2"]))
        source = draw(st.sampled_from(["", "|bgp", "|mlp"]))
        pad = draw(st.sampled_from(["", " ", "\t"] if padded else [""]))
        lines.append(f"{pad}{a}|{b}|{code}{source}{pad}")
        extra = ["", "# clique", "   "] if padded else ["", "# clique"]
        lines += draw(st.lists(st.sampled_from(extra), max_size=2))
    return "\n".join(lines)


def mangled_snapshots():
    """Any mix of bad shapes, bad fields, bad ASNs, self-loops and
    repeats, as an as-rel2 text."""
    return st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(["1", "2", "3", "0", "-4", "4294967295", "4294967296",
                                 str(2**63), str(-(2**63) - 1), "x"]),
                st.sampled_from(["1", "2", "3", "4294967295", str(2**64)]),
                st.sampled_from(["-1", "0", "2", "1", "7", "y"]),
                st.sampled_from(["", "|bgp", "|bgp|extra"]),
            ).map(lambda parts: "|".join(parts[:3]) + parts[3]),
            st.sampled_from(["", "# note", "1|2", "1"]),
        ),
        max_size=12,
    ).map("\n".join)


@pytest.fixture(scope="module")
def dump_10k() -> str:
    return dumps_caida(generate_powerlaw_topology(SCALE_10K, seed=7).graph)


@pytest.fixture(scope="module")
def dump_scale4() -> str:
    return dumps_caida(generate_world(seed=7, scale=4.0).graph, header="seed 7, scale 4.0")


class TestLoadMatchesOracle:
    def test_mini_snapshot(self):
        assert_loads_alike((FIXTURES / "mini.as-rel2.txt").read_text())

    def test_mangled_snapshot(self):
        assert_loads_alike((FIXTURES / "mangled.as-rel2.txt").read_text())

    def test_seed7_world_at_scale_4(self, dump_scale4):
        assert_loads_alike(dump_scale4)

    def test_10k_powerlaw_dump(self, dump_10k):
        assert_same_graph(loads_asrel2(dump_10k), loads_asrel2_oracle(dump_10k))

    @settings(max_examples=150, deadline=None)
    @given(text=clean_snapshots())
    def test_arbitrary_clean_snapshots(self, text):
        """Unique links of every kind, with source fields, comments,
        blank lines and padding between them."""
        assert_loads_alike(text)

    @settings(max_examples=200, deadline=None)
    @given(text=mangled_snapshots())
    def test_arbitrary_mangled_snapshots(self, text):
        """Any mix of bad shapes, bad fields, bad ASNs, self-loops and
        repeats: the same graph or the same message."""
        assert_loads_alike(text)


class TestFromEdgeColumns:
    def test_the_first_refused_row_raises_its_insert_error(self):
        with pytest.raises(DuplicateEdgeError) as raised:
            ASGraph.from_edge_columns([1, 2, 3, 2], [2, 3, 4, 1], [-1, 0, 2, 2])
        assert raised.value.row == 3
        assert str(raised.value) == "edge AS2-AS1 already exists with relationship provider"

    @pytest.mark.parametrize(
        ("a", "b", "code", "message"),
        [
            (9, 9, 0, "self-loop on AS9 is not allowed"),
            (0, 9, 0, "AS numbers must be positive integers, got 0"),
            (9, 2**32, 0, "AS numbers are 32-bit (at most 4294967295), got 4294967296"),
            (1, 9, 1, "unknown relationship code 1"),
        ],
    )
    def test_a_refused_row_says_why(self, a, b, code, message):
        with pytest.raises(TopologyError) as raised:
            ASGraph.from_edge_columns([1, a], [2, b], [-1, code])
        assert raised.value.row == 1
        assert str(raised.value) == message

    def test_no_rows_is_an_empty_graph(self):
        graph = ASGraph.from_edge_columns([], [], [])
        assert len(graph) == 0 and graph.num_edges == 0


class TestCompileMatchesOracle:
    def test_loaded_graphs(self, dump_scale4, dump_10k):
        for text in ((FIXTURES / "mini.as-rel2.txt").read_text(), dump_scale4, dump_10k):
            graph = loads_asrel2(text)
            assert columns(CompiledTopology.of(graph)) == columns(compile_oracle(graph))

    def test_generated_graphs(self, small_world):
        for graph in (small_world.graph, generate_powerlaw_topology(SCALE_10K, seed=23).graph):
            assert columns(CompiledTopology.of(graph)) == columns(compile_oracle(graph))

    def test_isolated_ases_and_no_edges(self):
        graph = ASGraph()
        for asn in (30, 4294967295, 7):
            graph.add_as(asn)
        topo = CompiledTopology.of(graph)
        assert columns(topo) == columns(compile_oracle(graph))
        assert list(topo.asn) == [7, 30, 4294967295]
        assert list(topo.iter_order) == [1, 2, 0]


MUTATIONS = {
    "add_as": lambda g: g.add_as(77),
    "add_p2c": lambda g: g.add_p2c(64515, 77),
    "add_p2p": lambda g: g.add_p2p(174, 64515),
    "add_s2s": lambda g: g.add_s2s(64512, 64513),
    "remove_edge": lambda g: g.remove_edge(174, 3356),
}


class TestColumnMemo:
    @staticmethod
    def loaded() -> ASGraph:
        return loads_asrel2((FIXTURES / "mini.as-rel2.txt").read_text())

    def test_compiling_keeps_the_columns(self):
        graph = self.loaded()
        rows = graph.edge_columns()
        topo = CompiledTopology.of(graph)
        assert all(ours is theirs for ours, theirs in zip(graph.edge_columns(), rows))
        assert CompiledTopology.of(graph) is topo

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_a_mutation_after_load_is_compiled(self, name):
        """The mutation reaches the columns as the same mutation of the
        per-edge parser's graph does, and the next compile reads it."""
        text = (FIXTURES / "mini.as-rel2.txt").read_text()
        graph, oracle = loads_asrel2(text), loads_asrel2_oracle(text)
        before = columns(CompiledTopology.of(graph))
        MUTATIONS[name](graph)
        MUTATIONS[name](oracle)
        assert_same_graph(graph, oracle)
        topo = CompiledTopology.of(graph)
        assert columns(topo) == columns(compile_oracle(graph))
        assert columns(topo) != before

    def test_copy_and_pickle_carry_the_columns_and_no_memo(self):
        graph = self.loaded()
        expected = columns(CompiledTopology.of(graph))
        graph.degree(174), graph.peers_of(174), graph.has_edge(174, 3356)  # build the maps too
        for clone in (graph.copy(), pickle.loads(pickle.dumps(graph))):
            assert clone._compiled is None and unbuilt(clone)
            assert_same_graph(clone, graph)
            assert columns(CompiledTopology.of(clone)) == expected


#: texts the per-line loop accepts or refuses that a naive split would
#: read otherwise: line breaks ``str.splitlines`` knows, whitespace
#: ``str.strip`` and ``int`` drop, what ``int`` parses, field counts and
#: ASNs at the 32- and 64-bit edges
ODD_TEXTS = {
    "crlf": "1|2|-1\r\n2|3|0\r\n",
    "lone-cr": "1|2|-1\r2|3|0\n",
    "form-feed": "1|2|-1\x0c2|3|0\n",
    "form-feed-line": "1|2|-1\n\x0c\n2|3|0",
    "plus": "+1|2|-1\n2|+3|+2",
    "underscore": "1_000|2|-1\n2|3_0|0",
    "arabic-digits": "\u0661|\u0662|-1",
    "non-ascii-comment": "# caf\u00e9\n1|2|-1",
    "non-ascii-source": "1|2|-1|b\u00e9p\n2|3|0",
    "fourth-field": "1|2|-1|bgp\n2|3|0|mlp\n3|4|2|",
    "fifth-field": "1|2|-1|bgp\n2|3|0|bgp|extra",
    "blank-and-comments": "\n\n# banner | with | pipes | here\n1|2|-1\n\n# x\n2|3|0\n",
    "indented-comment": "  # note\n1|2|-1",
    "whitespace-line": "1|2|-1\n   \n2|3|0",
    "padding": " 1|2|-1\n2 |3|0\n3|4| 2 ",
    "tab": "1|2|-1\t\n2|3|0",
    "no-final-newline": "1|2|-1\n2|3|0",
    "leading-zeros": "001|02|-1\n2|030|0",
    "padded-codes": "1|2|00\n2|3|-01",
    "minus-zero": "1|2|-0",
    "empty-fields": "1||0\n|2|0\n1|2|",
    "negative-asn": "-5|1|-1",
    "zero-asn": "0|1|-1",
    "past-32-bits": "1|4294967296|-1",
    "largest-32-bit": "4294967295|1|0",
    "18-digits": "1|999999999999999999|0",
    "past-63-bits": "1|9223372036854775808|0",
    "past-64-bits": "1|2|-1\n1|18446744073709551616|-1",
    "bad-code": "1|2|1\n2|3|-2",
    "text-code": "1|2|x",
    "repeat": "1|2|-1\n2|1|0",
    "self-loop": "7|7|0",
    "too-few": "1|2\n2|3|0",
    "empty": "",
    "newline-only": "\n",
}


class TestPlainPass:
    @pytest.mark.parametrize("name", sorted(ODD_TEXTS))
    def test_odd_text_loads_as_the_oracle_loads_it(self, name):
        """The same graph or the same ``line N:`` message; and where the
        NumPy pass vouches for the text, the loop's columns."""
        text = ODD_TEXTS[name]
        assert_loads_alike(text)
        for max_fields in (4, None):
            plain = _plain_columns(text, max_fields)
            if plain is not None:
                columns, problem = _line_columns(text, max_fields)
                assert problem is None
                for ours, theirs in zip(plain, columns):
                    assert ours.tolist() == list(theirs)

    @pytest.mark.parametrize(
        "name", ["fourth-field", "blank-and-comments", "no-final-newline", "leading-zeros",
                 "past-32-bits", "18-digits", "repeat", "empty"]
    )
    def test_plain_odd_texts_take_the_plain_pass(self, name):
        assert _plain_columns(ODD_TEXTS[name], 4) is not None

    @pytest.mark.parametrize(
        "name", ["crlf", "form-feed", "plus", "underscore", "arabic-digits", "fifth-field",
                 "padding", "padded-codes", "past-63-bits", "bad-code", "too-few"]
    )
    def test_other_odd_texts_are_left_to_the_loop(self, name):
        assert _plain_columns(ODD_TEXTS[name], 4) is None

    def test_published_shapes_take_the_plain_pass(self, dump_scale4, dump_10k):
        for text in ((FIXTURES / "mini.as-rel2.txt").read_text(), dump_scale4, dump_10k):
            plain = _plain_columns(text, 4)
            columns, problem = _line_columns(text, 4)
            assert plain is not None and problem is None
            for ours, theirs in zip(plain, columns):
                assert ours.tolist() == list(theirs)

    @settings(max_examples=100, deadline=None)
    @given(text=clean_snapshots(padded=False))
    def test_unpadded_snapshots_take_the_plain_pass(self, text):
        assert _plain_columns(text, 4) is not None
        assert_loads_alike(text)


def unbuilt(graph: ASGraph) -> bool:
    """Whether ``graph`` has built no per-AS map: no role map, no
    degree count and no pair map."""
    return not graph._relatives and graph._degrees is None and graph._pairs is None


def built(graph: ASGraph) -> set:
    """The per-AS maps ``graph`` holds: its roles with a kept
    ``relatives`` map, and ``"degree"`` / ``"pairs"``."""
    maps = set(graph._relatives or ())
    if graph._degrees is not None:
        maps.add("degree")
    if graph._pairs is not None:
        maps.add("pairs")
    return maps


#: the maps each per-AS query builds on a graph that holds none
QUERY_BUILDS = {
    "customers_of": {Relationship.CUSTOMER},
    "peers_of": {Relationship.PEER},
    "degree": {"degree"},
    "transit_degree": {Relationship.CUSTOMER},
}


class TestDeferredSets:
    @pytest.fixture(scope="class")
    def world_dump(self) -> str:
        return dumps_caida(generate_world(seed=7, scale=0.3).graph)

    def test_a_loaded_grid_never_builds_the_sets(self, world_dump, tmp_path, monkeypatch):
        """``_load_world``, the grid's cone ranking and its cells read
        the edge columns, the customer map and the CSR: no pair map,
        no degree count, no other role map.  The queries asked
        afterwards answer as the per-edge parser's graph."""
        import contextlib
        import io

        import repro.cli as cli

        path = tmp_path / "world.as-rel2.txt"
        path.write_text(world_dump)
        loaded = []
        load_world = cli._load_world

        def spy(args):
            loaded.append(load_world(args))
            return loaded[-1]

        monkeypatch.setattr(cli, "_load_world", spy)
        argv = ["grid", "--topology", f"caida:{path}", "--attackers", "3", "--victims", "5"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        (world,) = loaded
        graph = world.graph
        assert built(graph) == {Relationship.CUSTOMER}
        assert graph._compiled is not None  # the cells propagated on the CSR
        oracle = loads_asrel2_oracle(world_dump)
        first = next(iter(oracle))
        assert graph.providers_of(first) == oracle.providers_of(first)
        assert built(graph) == {Relationship.CUSTOMER, Relationship.PROVIDER}
        assert_same_graph(graph, oracle)

    def test_the_as_order_answers_without_the_sets(self, world_dump):
        graph, oracle = loads_asrel2(world_dump), loads_asrel2_oracle(world_dump)
        assert list(graph) == list(oracle)
        assert len(graph) == len(oracle) and graph.ases == oracle.ases
        assert all(asn in graph for asn in oracle) and 0 not in graph
        assert columns(CompiledTopology.of(graph)) == columns(compile_oracle(oracle))
        assert graph.edge_columns() is not None
        assert unbuilt(graph)

    @pytest.mark.parametrize("query", ["customers_of", "peers_of", "degree", "transit_degree"])
    def test_a_set_query_builds_the_sets(self, world_dump, query):
        """A per-AS query builds the one map it reads."""
        graph, oracle = loads_asrel2(world_dump), loads_asrel2_oracle(world_dump)
        asn = graph.ases[0]
        assert getattr(graph, query)(asn) == getattr(AdjacencyOracle(oracle), query)(asn)
        assert built(graph) == QUERY_BUILDS[query]
        assert_same_graph(graph, oracle)

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_a_mutation_builds_the_sets_first(self, name):
        """An edge insert or removal builds the pair map it checks and
        keeps it current; ``add_as`` builds nothing."""
        text = (FIXTURES / "mini.as-rel2.txt").read_text()
        graph, oracle = loads_asrel2(text), loads_asrel2_oracle(text)
        MUTATIONS[name](graph)
        assert built(graph) == (set() if name == "add_as" else {"pairs"})
        MUTATIONS[name](oracle)
        assert_same_graph(graph, oracle)
        assert columns(CompiledTopology.of(graph)) == columns(compile_oracle(oracle))

    def test_copy_and_pickle_stay_deferred(self, world_dump):
        graph, oracle = loads_asrel2(world_dump), loads_asrel2_oracle(world_dump)
        for clone in (graph.copy(), pickle.loads(pickle.dumps(graph))):
            assert unbuilt(clone)
            assert_same_graph(clone, oracle)
        assert unbuilt(graph)
        clone = graph.copy()
        clone.add_p2c(1, 999_999)
        assert 999_999 not in graph and unbuilt(graph)
        assert built(clone) == {"pairs"}


def replayed(graph: ASGraph) -> ASGraph:
    """``graph``'s ASes and edge rows inserted one by one, in order."""
    oracle = ASGraph()
    for asn in graph:
        oracle.add_as(asn)
    insert = {-1: oracle.add_p2c, 0: oracle.add_p2p, 2: oracle.add_s2s}
    for a, b, code in zip(*(column.tolist() for column in graph.edge_columns())):
        insert[code](a, b)
    return oracle


class TestOneRepresentation:
    @settings(max_examples=100, deadline=None)
    @given(text=clean_snapshots(), data=st.data())
    def test_inserts_removals_and_columns_agree(self, text, data):
        """A snapshot inserted edge by edge, then random ``add_as`` /
        ``add_*`` / ``remove_edge`` calls: every per-AS query answers
        as the adjacency sets the same calls kept current, and a copy,
        a pickle and the graph ``from_edge_columns`` builds from the
        columns read the same."""
        graph = loads_asrel2_oracle(text)
        sets = AdjacencyOracle(graph)
        pool = [*graph, *data.draw(st.lists(st.integers(1, 2**32 - 1), min_size=1, max_size=4))]
        asns = st.sampled_from(pool)
        edits = st.lists(
            st.tuples(st.sampled_from(["add_p2c", "add_p2p", "add_s2s", "remove_edge"]), asns, asns)
            | st.tuples(st.just("add_as"), asns),
            max_size=12,
        )
        for name, *args in data.draw(edits):
            try:
                getattr(graph, name)(*args)
            except TopologyError:  # a self-loop, a second edge or a missing one
                for asn in args:  # an insert adds its ends before it refuses
                    if asn in graph:
                        sets.add_as(asn)
            else:
                getattr(sets, name)(*args)
            assert_queries_match(graph, sets)  # every map, read after every edit
        # The same AS order: the graph equals its rows re-inserted.
        oracle = replayed(graph)
        for clone in (graph.copy(), pickle.loads(pickle.dumps(graph))):
            assert_same_graph(clone, oracle)
        # The bulk-built graph knows only the linked ASes, in the order
        # the rows name them first.
        rebuilt = ASGraph.from_edge_columns(*graph.edge_columns())
        assert sorted(rebuilt) == sorted(asn for asn in graph if graph.degree(asn))
        assert list(rebuilt.edges()) == list(graph.edges()) == list(oracle.edges())
        for role in ROLES:
            ours, theirs = rebuilt.relatives(role), graph.relatives(role)
            assert {k: set(v) for k, v in ours.items()} == {k: set(v) for k, v in theirs.items()}
        for g in (graph, rebuilt):
            assert columns(CompiledTopology.of(g)) == columns(compile_oracle(g))
