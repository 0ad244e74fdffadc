"""Tests for seeded-randomness plumbing."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils.rand import derive_rng, make_rng, shuffle


def test_make_rng_is_deterministic():
    assert make_rng(7).random() == make_rng(7).random()


def test_different_seeds_diverge():
    assert make_rng(1).random() != make_rng(2).random()


def test_derive_rng_depends_on_label():
    base1, base2 = make_rng(7), make_rng(7)
    a = derive_rng(base1, "alpha").random()
    b = derive_rng(base2, "beta").random()
    assert a != b


def test_derive_rng_reproducible():
    a = derive_rng(make_rng(7), "workload").random()
    b = derive_rng(make_rng(7), "workload").random()
    assert a == b


def test_derived_streams_independent_of_sibling_draws():
    # Drawing from one derived stream must not shift another derived
    # from the same label on a fresh base generator.
    base = make_rng(9)
    first = derive_rng(base, "one")
    _ = first.random()
    base2 = make_rng(9)
    again = derive_rng(base2, "one")
    assert again.random() == derive_rng(make_rng(9), "one").random()


# Every short length, and each side of every power-of-two boundary the
# helper's per-block ``k`` crosses up to 2,048.
_FORCED_LENGTHS = sorted({*range(6), *(2**k + d for k in range(1, 12) for d in (-2, -1, 0, 1))})


def _with_forced_lengths(test):
    for n in _FORCED_LENGTHS:
        test = example(n=n, seed=7)(test)
    return test


class _RecordingRandom(random.Random):
    """Logs every ``getrandbits`` width; still draws through it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


class _RandomOnly(random.Random):
    """Brings ``random()`` without ``getrandbits()``: ``Random`` binds
    ``_randbelow_without_getrandbits`` for it, a different algorithm."""

    def random(self):
        return super().random()


class TestShuffle:
    """``shuffle(rng, x)`` is ``rng.shuffle(x)``: same list, same RNG
    state after and, on the ``getrandbits`` path, the same calls in the
    same order — for the stock generator, a subclass that only watches
    ``getrandbits``, and a ``random()``-only subclass, which the helper
    must hand to ``rng.shuffle``."""

    @pytest.mark.parametrize("cls", [random.Random, _RecordingRandom, _RandomOnly])
    @settings(max_examples=100, deadline=None)
    @_with_forced_lengths
    @given(n=st.integers(0, 2100), seed=st.integers(0, 2**32))
    def test_matches_rng_shuffle(self, cls, n, seed):
        stock, helper = cls(seed), cls(seed)
        expected, got = list(range(n)), list(range(n))
        stock.shuffle(expected)
        shuffle(helper, got)
        assert got == expected
        assert helper.getstate() == stock.getstate()
        assert getattr(helper, "widths", None) == getattr(stock, "widths", None)

    def test_the_random_only_branch_draws_differently(self):
        # what the delegation guards: Fisher–Yates over getrandbits would
        # have drawn another permutation for this rng
        stock, fast = list(range(50)), list(range(50))
        _RandomOnly(7).shuffle(stock)
        random.Random(7).shuffle(fast)
        assert stock != fast

    def test_an_overridden_shuffle_is_called(self):
        class Reversing(random.Random):
            def shuffle(self, x):
                x.reverse()

        x = [1, 2, 3]
        shuffle(Reversing(7), x)
        assert x == [3, 2, 1]
