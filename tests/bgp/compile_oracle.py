"""The per-slot ``relationship()`` topology builder, kept as an oracle.

This is how :meth:`CompiledTopology.from_graph` built its arrays before
it read the per-role adjacency sets directly: one
``graph.relationship(a, b)`` lookup per directed edge slot, every
column appended slot by slot, and ``rev_slot`` resolved through an
eagerly built ``slot_index``.  It only uses the graph's public queries,
so it is the independent statement of what the fast builder must
produce: :func:`columns` of the two must be equal
(``test_compiled_topology.py``), and ``benchmarks/
test_bench_engine_perf.py`` times the fast builder against it.
"""

from __future__ import annotations

from array import array

from repro.bgp.compiled import CompiledTopology
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import PrefClass, Relationship

#: The nine CSR arrays a :class:`CompiledTopology` is made of.
COLUMNS = (
    "asn",
    "iter_order",
    "indptr",
    "nbr",
    "rev_slot",
    "inv_pref",
    "always_export",
    "is_sibling",
    "role_code",
)


def columns(topo: CompiledTopology) -> tuple:
    """``topo``'s nine CSR arrays, for comparing two topologies."""
    return tuple(getattr(topo, name) for name in COLUMNS)


REL_CODE = {
    Relationship.CUSTOMER: 0,
    Relationship.PROVIDER: 1,
    Relationship.PEER: 2,
    Relationship.SIBLING: 3,
}


def compile_oracle(graph: ASGraph) -> CompiledTopology:
    """Compile ``graph`` slot by slot; ``slot_index`` comes back eager."""
    asns = graph.ases  # sorted
    index = {a: i for i, a in enumerate(asns)}
    indptr = array("i", [0])
    nbr = array("i")
    inv_pref = array("b")
    always_export = array("b")
    is_sibling = array("b")
    role_code = array("b")
    for a in asns:
        for b in sorted(graph.neighbors_of(a)):
            role = graph.relationship(a, b)
            nbr.append(index[b])
            inv_pref.append(int(PrefClass.for_relationship(role.inverse())))
            always_export.append(
                1 if role in (Relationship.CUSTOMER, Relationship.SIBLING) else 0
            )
            is_sibling.append(1 if role is Relationship.SIBLING else 0)
            role_code.append(REL_CODE[role])
        indptr.append(len(nbr))
    n = len(asns)
    slot_index: list[dict[int, int]] = [
        {nbr[k]: k for k in range(indptr[i], indptr[i + 1])} for i in range(n)
    ]
    rev_slot = array(
        "i",
        (
            slot_index[nbr[k]][i]
            for i in range(n)
            for k in range(indptr[i], indptr[i + 1])
        ),
    )
    topo = CompiledTopology(
        asn=array("q", asns),
        iter_order=array("i", (index[a] for a in graph)),
        indptr=indptr,
        nbr=nbr,
        inv_pref=inv_pref,
        always_export=always_export,
        is_sibling=is_sibling,
        role_code=role_code,
        rev_slot=rev_slot,
    )
    topo._slot_index = slot_index
    return topo
