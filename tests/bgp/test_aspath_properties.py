"""Property-based round-trips for the AS-path algebra and interning.

The attacker's transformation (strip the origin's padding), the
measurement module's inverse (count it) and the compiled engine's
canonical run-merged chains must all agree on the same algebra; these
properties pin the identities everything else assumes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.aspath import (
    collapse_prepending,
    padding_of_origin,
    prepending_runs,
    split_origin_padding,
    strip_origin_padding,
)
from repro.bgp.compiled import CompiledTopology, InternTable
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology

asns = st.integers(1, 9)
paths = st.lists(asns, min_size=1, max_size=10).map(tuple)
#: heads whose last hop differs from the origin we will append, so the
#: origin's trailing run length is exactly the padding we constructed.
padded_cases = st.tuples(
    st.lists(asns, min_size=0, max_size=8).map(tuple), asns, st.integers(1, 6)
).filter(lambda case: not case[0] or case[0][-1] != case[1])


class TestPaddingAlgebra:
    @settings(max_examples=200)
    @given(case=padded_cases)
    def test_split_inverts_construction(self, case):
        head, origin, padding = case
        path = head + (origin,) * padding
        assert split_origin_padding(path) == (head, origin, padding)
        assert padding_of_origin(path) == padding

    @settings(max_examples=200)
    @given(case=padded_cases, keep=st.integers(1, 6))
    def test_strip_keeps_exactly_keep_copies(self, case, keep):
        head, origin, padding = case
        path = head + (origin,) * padding
        stripped = strip_origin_padding(path, keep=keep)
        # ``keep`` clamps to the available padding: stripping never pads.
        assert stripped == head + (origin,) * min(keep, padding)

    @settings(max_examples=200)
    @given(path=paths, asn=asns, count=st.integers(1, 5))
    def test_prepend_then_collapse_is_collapse_of_single_copy(self, path, asn, count):
        assert collapse_prepending((asn,) * count + path) == collapse_prepending(
            (asn,) + path
        )

    @settings(max_examples=200)
    @given(path=paths)
    def test_collapse_is_idempotent_and_run_free(self, path):
        collapsed = collapse_prepending(path)
        assert collapse_prepending(collapsed) == collapsed
        assert all(length == 1 for _, length in prepending_runs(collapsed))

    @settings(max_examples=200)
    @given(path=paths)
    def test_runs_reassemble_the_path(self, path):
        rebuilt = tuple(
            asn for asn, length in prepending_runs(path) for _ in range(length)
        )
        assert rebuilt == path


class TestInternCanonicalForm:
    @pytest.fixture(scope="class")
    def table(self):
        world = generate_internet_topology(
            InternetTopologyConfig(
                num_tier1=3,
                num_tier2=5,
                num_tier3=10,
                num_tier4=8,
                num_stubs=25,
                num_content=2,
                sibling_pairs=2,
            ),
            random.Random(3),
        )
        return InternTable(CompiledTopology.from_graph(world.graph))

    @settings(max_examples=150, deadline=None)
    @given(path=st.lists(asns, min_size=0, max_size=12).map(tuple))
    def test_intern_reify_intern_is_idempotent(self, table, path):
        pid = table.intern_tuple(path)
        assert table.intern_tuple(table.reify(pid)) == pid

    @settings(max_examples=150, deadline=None)
    @given(case=padded_cases)
    def test_hop_by_hop_equals_bulk_intern(self, table, case):
        """Canonical run-merge: extending one hop at a time lands on the
        same chain node as interning the whole tuple — the property that
        lets the engine compare paths by id."""
        head, origin, padding = case
        path = head + (origin,) * padding
        pid = 0
        for asn in reversed(path):
            pid = table.extend(pid, table.index_of(asn), 1)
        assert pid == table.intern_tuple(path)
        assert table.length[pid] == len(path)

    @settings(max_examples=150, deadline=None)
    @given(case=padded_cases)
    def test_strip_in_pid_space_matches_tuple_space(self, table, case):
        """The attacker's strip applied to a reified chain equals
        stripping in tuple space — the compiled attack path hinges on it."""
        head, origin, padding = case
        path = head + (origin,) * padding
        pid = table.intern_tuple(path)
        stripped = strip_origin_padding(table.reify(pid))
        assert stripped == strip_origin_padding(path)
        assert table.reify(table.intern_tuple(stripped)) == stripped
