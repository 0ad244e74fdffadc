"""The topology build and its once-per-graph memo.

Two contracts:

* **Build.**  :meth:`CompiledTopology.from_graph` reads the graph's
  edge columns in one NumPy pass; its nine CSR columns must equal those of the
  per-slot ``relationship()`` builder it replaced
  (:mod:`tests.bgp.compile_oracle`) on arbitrary graphs — all four
  relationship kinds, isolated ASes, non-contiguous ASNs, insertion
  order unrelated to ASN order.
* **Memo.**  :meth:`CompiledTopology.of` builds at most once per graph
  shape: stable while the graph is, dropped by every mutation, never
  shared with a copy and never pickled.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings

from repro.bgp.compiled import CompiledTopology
from repro.bgp.engine import PropagationEngine
from tests.bgp.compile_oracle import columns, compile_oracle
from tests.conftest import make_diamond_graph
from tests.strategies import graphs

class TestBuildMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(graph=graphs())
    def test_columns_and_slot_index_equal(self, graph):
        topo = CompiledTopology.from_graph(graph)
        oracle = compile_oracle(graph)
        assert columns(topo) == columns(oracle)
        assert topo._slot_index is None  # the build leaves it to the property
        assert topo.slot_index == oracle.slot_index

    def test_generated_world(self, small_world):
        graph = small_world.graph
        assert columns(CompiledTopology.from_graph(graph)) == columns(
            compile_oracle(graph)
        )


MUTATIONS = {
    "add_as": lambda g: g.add_as(77),
    "add_p2c": lambda g: g.add_p2c(5, 77),
    "add_p2p": lambda g: g.add_p2p(3, 4),
    "add_s2s": lambda g: g.add_s2s(5, 77),
    "remove_edge": lambda g: g.remove_edge(1, 2),
}


class TestMemo:
    def test_of_builds_once(self):
        graph = make_diamond_graph()
        topo = CompiledTopology.of(graph)
        assert CompiledTopology.of(graph) is topo
        graph.add_as(5)  # already present: not a mutation
        assert CompiledTopology.of(graph) is topo

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_yields_a_fresh_correct_compile(self, name):
        graph = make_diamond_graph()
        stale = CompiledTopology.of(graph)
        MUTATIONS[name](graph)
        fresh = CompiledTopology.of(graph)
        assert fresh is not stale
        assert columns(fresh) == columns(compile_oracle(graph))
        assert columns(fresh) != columns(stale)

    def test_copy_neither_shares_nor_carries_the_memo(self):
        graph = make_diamond_graph()
        topo = CompiledTopology.of(graph)
        clone = graph.copy()
        assert clone._compiled is None
        clone_topo = CompiledTopology.of(clone)
        assert clone_topo is not topo
        assert columns(clone_topo) == columns(topo)
        clone.remove_edge(1, 2)
        assert CompiledTopology.of(graph) is topo
        assert graph.has_edge(1, 2)

    def test_pickle_does_not_carry_the_memo(self):
        graph = make_diamond_graph()
        topo = CompiledTopology.of(graph)
        restored = pickle.loads(pickle.dumps(graph))
        assert restored._compiled is None
        assert graph._compiled is topo
        assert columns(CompiledTopology.of(restored)) == columns(topo)

    def test_engines_over_one_graph_share_one_topology(self, compile_calls):
        graph = make_diamond_graph()
        first = PropagationEngine(graph)
        second = PropagationEngine(graph)
        assert compile_calls == []  # construction compiles nothing
        one = first.propagate(5).compiled_state.table.topo
        two = second.propagate(5).compiled_state.table.topo
        assert one is two is CompiledTopology.of(graph)
        assert compile_calls == [graph]

    def test_engine_keeps_its_snapshot_across_a_mutation(self):
        graph = make_diamond_graph()
        engine = PropagationEngine(graph)
        before = engine.propagate(5)
        graph.remove_edge(3, 5)
        assert engine.propagate(5).best == before.best
        assert PropagationEngine(graph).propagate(5).best != before.best
