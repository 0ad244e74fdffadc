"""Gao-phase structure of the vectorized wave fixpoint.

The vectorized core does not run three explicit Gao-Rexford phases
(customer, then peer, then provider routes) the way the reference
interpreter does — the phases *emerge* from finalizing packed
``(class, length, sender)`` keys in class-major order.  This suite pins
the structural guarantees that make the emergent order equivalent:

* each wave finalizes exactly one ``(class, length)`` level per column,
  so ``waves == len(levels)`` and the per-column level sequence is
  strictly increasing with non-decreasing classes — customer routes
  (class ≤ 1) always converge before peer routes (3) before provider
  routes (4), which is the Gao phase ordering;
* class 2 (``SIBLING``) is never a finalized level class: sibling hops
  are transparent and inherit the sender's class, so the stock classes
  {ORIGIN, CUSTOMER, PEER, PROVIDER} are the only ones a key can carry;
* the wave count equals the number of distinct finite levels reachable
  nodes settle at, and stays under the ``5·(n·λmax + 2)`` monotonicity
  budget;
* every emitted Adj-RIB-in row respects valley-free export: an offer
  crosses a peer/provider edge only when the sender's best class is
  customer-or-better, and every best path is valley-free end to end;
* a batched fixpoint's columns are bit-identical to the per-source
  single-column runs it replaces;
* a wave builds only the offers export allows: the slots a sender's
  route is announced on are exactly what the filter over its whole
  block used to keep, and the emitter's presence candidates are the
  filter's mask over every routed sender.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgp.compiled import CompiledTopology
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.vectorized import _sent_slots, _views, vectorized_fixpoint
from repro.topology.generators import generate_powerlaw_topology
from repro.topology.relationships import PrefClass
from tests.strategies import (
    TINY_WITH_SIBLINGS,
    graphs,
    paddings,
    scale_configs,
    seeds,
    tiny_world,
    vectorized_pair,
)
from tests.topology.adjacency_oracle import is_path_valley_free

PHASE_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: INF packs class 5; real levels only ever carry these stock classes.
STOCK_CLASSES = {
    PrefClass.ORIGIN.value,
    PrefClass.CUSTOMER.value,
    PrefClass.PEER.value,
    PrefClass.PROVIDER.value,
}

_CLS_SHIFT = 53
_LEN_SHIFT = 21
_LEN_MASK = (1 << 32) - 1


def _column_levels(levels, col):
    """The (class, length) sequence column ``col`` finalized, in order."""
    out = []
    for wave in levels:
        entry = wave[col]
        if entry is not None:
            out.append(entry)
    return out


def _finite_levels(keys_col):
    """Distinct (class, length) pairs reachable nodes settled at."""
    finite = keys_col[keys_col < (np.int64(5) << _CLS_SHIFT)]
    return {
        (int(k >> _CLS_SHIFT), int((k >> _LEN_SHIFT) & _LEN_MASK)) for k in finite
    }


class TestPhaseOrdering:
    @given(seed=seeds, pad=paddings(1, 4))
    @PHASE_SETTINGS
    def test_levels_strictly_increase_class_major(self, seed, pad):
        """One level per wave; levels strictly increase with
        non-decreasing stock classes — the emergent Gao ordering."""
        world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
        origin = rng.choice(world.graph.ases)
        topo = CompiledTopology.from_graph(world.graph)
        prep = PrependingPolicy.uniform_origin(origin, pad)
        keys, waves, levels = vectorized_fixpoint(topo, [origin], prepending=prep)
        assert waves == len(levels)
        seq = _column_levels(levels, 0)
        assert len(seq) == waves  # a single column is active every wave
        for cur, nxt in zip(seq, seq[1:]):
            assert nxt > cur, "wave levels must strictly increase"
        classes = [c for c, _ in seq]
        assert classes == sorted(classes), "classes must be non-decreasing"
        assert set(classes) <= STOCK_CLASSES, "sibling class never finalizes"

    @given(seed=seeds)
    @PHASE_SETTINGS
    def test_wave_count_is_distinct_level_count(self, seed):
        """Each wave finalizes exactly one level, so the wave count is
        the number of distinct finite levels — and trivially within the
        monotonicity budget the core enforces."""
        world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
        origin = rng.choice(world.graph.ases)
        topo = CompiledTopology.from_graph(world.graph)
        keys, waves, levels = vectorized_fixpoint(topo, [origin])
        assert waves == len(_finite_levels(keys[:, 0]))
        assert waves <= 5 * (topo.n + 2)

    @given(config=scale_configs(), seed=seeds)
    @PHASE_SETTINGS
    def test_phase_structure_holds_at_scale_shapes(self, config, seed):
        """The same per-column invariants across drawn power-law shapes,
        with several origins sharing one batched walk."""
        world = generate_powerlaw_topology(config, seed=seed)
        topo = CompiledTopology.from_graph(world.graph)
        origins = world.graph.ases[:: max(1, len(world.graph.ases) // 3)][:3]
        keys, waves, levels = vectorized_fixpoint(topo, origins)
        assert waves == len(levels)
        for col in range(len(origins)):
            seq = _column_levels(levels, col)
            for cur, nxt in zip(seq, seq[1:]):
                assert nxt > cur
            assert [c for c, _ in seq] == sorted(c for c, _ in seq)
            assert {c for c, _ in seq} <= STOCK_CLASSES
            assert len(seq) == len(_finite_levels(keys[:, col]))


class TestValleyFreeEmission:
    @given(seed=seeds, pad=paddings(1, 3))
    @PHASE_SETTINGS
    def test_emitted_rows_respect_export_policy(self, seed, pad):
        """Every present Adj-RIB-in offer crossed an edge Gao-Rexford
        export allows: customer/sibling receivers always, peer/provider
        receivers only when the sender's best class is ≤ SIBLING."""
        world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
        origin = rng.choice(world.graph.ases)
        _, eng_v = vectorized_pair(world)
        prep = PrependingPolicy.uniform_origin(origin, pad)
        outcome = eng_v.propagate(origin, prepending=prep)
        graph = world.graph
        for receiver, offers in outcome.adj_rib_in.items():
            for sender, offer in offers.items():
                if offer is None:
                    continue
                to_customer_or_sibling = receiver in graph.customers_of(
                    sender
                ) or receiver in graph.siblings_of(sender)
                if not to_customer_or_sibling:
                    sender_class = (
                        0
                        if sender == origin
                        else outcome.best_keys[sender][0]
                    )
                    assert sender_class <= PrefClass.SIBLING.value, (
                        f"{sender} exported a class-{sender_class} route "
                        f"to non-customer {receiver}"
                    )

    @given(seed=seeds, pad=paddings(1, 3))
    @PHASE_SETTINGS
    def test_best_paths_are_valley_free(self, seed, pad):
        world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
        origin = rng.choice(world.graph.ases)
        _, eng_v = vectorized_pair(world)
        prep = PrependingPolicy.uniform_origin(origin, pad)
        outcome = eng_v.propagate(origin, prepending=prep)
        for asn, route in outcome.best.items():
            if route is None or asn == origin:
                continue
            assert is_path_valley_free(world.graph, (asn,) + route.path), (
                f"valley at {asn}: {route}"
            )


class TestBatchedColumns:
    @given(seed=seeds)
    @PHASE_SETTINGS
    def test_batched_fixpoint_columns_equal_single_runs(self, seed):
        world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
        topo = CompiledTopology.from_graph(world.graph)
        origins = rng.sample(world.graph.ases, 4)
        keys_b, _, _ = vectorized_fixpoint(topo, origins)
        for col, origin in enumerate(origins):
            keys_s, _, _ = vectorized_fixpoint(topo, [origin])
            assert np.array_equal(keys_b[:, col], keys_s[:, 0]), (
                f"column {col} (origin {origin}) diverges from its "
                "single-source run"
            )


class TestExportBlocks:
    """The fixpoint expands a newly final sender's full block for an
    origin, customer or sibling route and its export block otherwise;
    the filter it replaces kept ``always_export[k] or class <= 2`` of
    the full block."""

    @staticmethod
    def _filtered(topo, sender, cls):
        lo, hi = topo.indptr[sender], topo.indptr[sender + 1]
        return [k for k in range(lo, hi) if topo.always_export[k] or cls <= 2]

    @given(graph=graphs())
    @PHASE_SETTINGS
    def test_sent_slots_are_the_filtered_block(self, graph):
        topo = CompiledTopology.from_graph(graph)
        ev = _views(topo)
        pairs = [(s, c) for s in range(topo.n) for c in range(5)]
        expected = [self._filtered(topo, s, c) for s, c in pairs]
        for (s, c), want in zip(pairs, expected):
            slots, lens = _sent_slots(ev, np.array([s]), np.array([c]))
            assert slots.tolist() == want, f"sender {s}, class {c}"
            assert lens.tolist() == [len(want)]
        # one call over every pair: the blocks concatenated in call order
        senders, classes = np.array(pairs).T
        slots, lens = _sent_slots(ev, senders, classes)
        assert lens.tolist() == [len(want) for want in expected]
        assert slots.tolist() == [k for want in expected for k in want]

    @given(graph=graphs(), data=st.data())
    @PHASE_SETTINGS
    def test_presence_candidates_are_the_filter_mask(self, graph, data):
        """What ``_emit_column`` walks for loops: every routed sender's
        slots in sender order, equal to the mask it used to build over
        all slots."""
        topo = CompiledTopology.from_graph(graph)
        ev = _views(topo)
        origin = data.draw(st.sampled_from(graph.ases))
        keys, _, _ = vectorized_fixpoint(topo, [origin])
        column = keys[:, 0]
        routed = column < (np.int64(5) << _CLS_SHIFT)
        cls = column >> _CLS_SHIFT
        always = np.asarray(topo.always_export, dtype=bool)
        owner = np.repeat(np.arange(topo.n), np.diff(topo.indptr))
        mask = routed[owner] & (always | (cls[owner] <= 2))
        senders = np.flatnonzero(routed)
        cand, lens = _sent_slots(ev, senders, cls[senders])
        assert cand.tolist() == np.nonzero(mask)[0].tolist()
        assert np.repeat(senders, lens).tolist() == owner[cand].tolist()
