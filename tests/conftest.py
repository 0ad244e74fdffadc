"""Shared fixtures: hand-built micro-topologies and a small generated world.

The micro-topologies make engine behaviour checkable by hand; the
generated world exercises realistic structure at a size where a full
propagation takes a few milliseconds.
"""

from __future__ import annotations

import random

import pytest

import repro.runner.executor as executor
from repro.bgp.compiled import CompiledTopology
from repro.bgp.engine import PropagationEngine
from repro.topology.asgraph import ASGraph
from repro.topology.generators import (
    GeneratedTopology,
    InternetTopologyConfig,
    generate_internet_topology,
)

#: Small config used by most integration-ish tests.
SMALL_CONFIG = InternetTopologyConfig(
    num_tier1=4,
    num_tier2=10,
    num_tier3=30,
    num_tier4=30,
    num_stubs=120,
    num_content=4,
    sibling_pairs=3,
)


def make_chain_graph() -> ASGraph:
    """1 <- 2 <- 3 <- 4: a pure provider chain (1 is the top provider)."""
    graph = ASGraph()
    graph.add_p2c(1, 2)
    graph.add_p2c(2, 3)
    graph.add_p2c(3, 4)
    return graph


def make_diamond_graph() -> ASGraph:
    """Tier-1 pair {1, 2} peering, each providing transit to {3, 4},
    and stub 5 dual-homed to 3 and 4.

            1 ===peer=== 2
           /  \\        /  \\
          3    \\      /    4
           \\    x----x    /
            5 (customer of 3 and 4)
    """
    graph = ASGraph()
    graph.add_p2p(1, 2)
    graph.add_p2c(1, 3)
    graph.add_p2c(2, 4)
    graph.add_p2c(1, 4)
    graph.add_p2c(2, 3)
    graph.add_p2c(3, 5)
    graph.add_p2c(4, 5)
    return graph


def make_figure3_graph() -> ASGraph:
    """The paper's Figure 3 detection example.

    Victim V(100) multi-homes to A(1) and C(3); E(5) and M(6) sit above
    A; B(2) above M; D(4) above C.  The monitor peers with E and B in
    the paper; tests use {E, B, D} as monitor ASes.
    """
    graph = ASGraph()
    graph.add_p2c(1, 100)   # A provides transit to V
    graph.add_p2c(3, 100)   # C provides transit to V
    graph.add_p2c(5, 1)     # E above A
    graph.add_p2c(6, 1)     # M above A  (M is the attacker)
    graph.add_p2c(2, 6)     # B above M
    graph.add_p2c(4, 3)     # D above C
    # A top clique so every AS has a route in both directions.
    graph.add_p2p(5, 2)
    graph.add_p2p(2, 4)
    graph.add_p2p(5, 4)
    graph.add_p2c(5, 3)     # E also provides transit to C
    return graph


@pytest.fixture(scope="session")
def small_world() -> GeneratedTopology:
    """A ~200-AS generated world shared by read-only tests."""
    return generate_internet_topology(SMALL_CONFIG, random.Random(42))


@pytest.fixture(scope="session")
def small_engine(small_world: GeneratedTopology) -> PropagationEngine:
    return PropagationEngine(small_world.graph)


@pytest.fixture()
def compile_calls(monkeypatch) -> list[ASGraph]:
    """The graphs passed to ``CompiledTopology.from_graph`` in this
    process during the test, in call order (forked pool workers inherit
    the parent's compiled topology and never build)."""
    calls: list[ASGraph] = []
    build = CompiledTopology.from_graph.__func__

    def counted(cls, graph):
        calls.append(graph)
        return build(cls, graph)

    monkeypatch.setattr(CompiledTopology, "from_graph", classmethod(counted))
    return calls


@pytest.fixture()
def real_pool(monkeypatch) -> None:
    """Pools of up to four real worker processes even on a one-CPU
    host: the runner clamps ``workers`` to ``available_cpus()``, which
    it reads at call time."""
    monkeypatch.setattr(executor, "available_cpus", lambda: 4)


@pytest.fixture()
def chain_graph() -> ASGraph:
    return make_chain_graph()


@pytest.fixture()
def diamond_graph() -> ASGraph:
    return make_diamond_graph()


@pytest.fixture()
def figure3_graph() -> ASGraph:
    return make_figure3_graph()
