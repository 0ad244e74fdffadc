"""Unit and property tests for AS-PATH algebra (prepending primitives)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.aspath import (
    collapse_prepending,
    has_prepending,
    max_prepending_run,
    origin_of,
    padding_of_origin,
    prepending_runs,
    split_origin_padding,
    strip_origin_padding,
)
from repro.exceptions import PolicyError

paths = st.lists(st.integers(1, 30), min_size=1, max_size=12).map(tuple)
paddings = st.integers(1, 6)


class TestPrimitives:
    def test_origin(self):
        assert origin_of((1, 2, 3)) == 3
        with pytest.raises(PolicyError):
            origin_of(())

    def test_padding_of_origin(self):
        assert padding_of_origin((1, 2, 2)) == 2
        assert padding_of_origin((2, 1, 2, 2, 2)) == 3
        assert padding_of_origin((5,)) == 1

    def test_split(self):
        assert split_origin_padding((1, 2, 3, 3, 3)) == ((1, 2), 3, 3)
        assert split_origin_padding((3, 3)) == ((), 3, 2)

    def test_strip_origin_padding(self):
        assert strip_origin_padding((1, 2, 3, 3, 3)) == (1, 2, 3)
        assert strip_origin_padding((1, 3, 3, 3), keep=2) == (1, 3, 3)
        # keep larger than padding is capped, never extends the path
        assert strip_origin_padding((1, 3), keep=5) == (1, 3)

    def test_strip_requires_keep(self):
        with pytest.raises(PolicyError):
            strip_origin_padding((1, 2), keep=0)

    def test_collapse(self):
        assert collapse_prepending((1, 1, 2, 3, 3, 1)) == (1, 2, 3, 1)
        assert collapse_prepending(()) == ()

    def test_runs(self):
        assert list(prepending_runs((1, 1, 2, 3, 3, 3))) == [(1, 2), (2, 1), (3, 3)]
        assert list(prepending_runs(())) == []

    def test_has_prepending_and_max_run(self):
        assert not has_prepending((1, 2, 3))
        assert has_prepending((1, 2, 2))
        assert max_prepending_run((1, 2, 2, 2, 3, 3)) == 3
        assert max_prepending_run(()) == 0


class TestProperties:
    @given(paths, st.integers(1, 30), paddings)
    def test_prepend_then_padding_roundtrip(self, path, asn, count):
        new = (asn,) * count + path
        if path[0] != asn:
            runs = list(prepending_runs(new))
            assert runs[0] == (asn, count)

    @given(paths)
    def test_collapse_idempotent(self, path):
        once = collapse_prepending(path)
        assert collapse_prepending(once) == once
        assert not has_prepending(once)

    @given(paths)
    def test_strip_preserves_origin_and_head_structure(self, path):
        stripped = strip_origin_padding(path)
        assert origin_of(stripped) == origin_of(path)
        assert padding_of_origin(stripped) == 1
        head, origin, _ = split_origin_padding(path)
        assert stripped == head + (origin,)

    @given(paths, paddings)
    def test_origin_padding_measures_prepending(self, path, count):
        origin = path[-1]
        padded = path + (origin,) * count
        assert padding_of_origin(padded) == padding_of_origin(path) + count

    @given(paths)
    def test_split_reassembles(self, path):
        head, origin, padding = split_origin_padding(path)
        assert head + (origin,) * padding == path
        assert padding >= 1

