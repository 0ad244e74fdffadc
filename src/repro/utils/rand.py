"""Seeded randomness plumbing.

Every stochastic component in the library takes an explicit
:class:`random.Random` instance (never the module-level global), so a
single integer seed reproduces an entire experiment bit-for-bit.  These
helpers create and derive such instances.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["make_rng", "derive_rng", "shuffle"]

# A fixed, arbitrary large odd constant used to decorrelate derived streams.
_DERIVE_MIX = 0x9E3779B97F4A7C15

# The stock shuffle and the int draw it makes through ``_randbelow``,
# which ``Random.__init_subclass__`` rebinds to
# ``_randbelow_without_getrandbits`` for a subclass that brings
# ``random()`` without ``getrandbits()``.
_STOCK_SHUFFLE = random.Random.shuffle
_STOCK_RANDBELOW = random.Random._randbelow_with_getrandbits


def _stable_label_hash(label: str) -> int:
    """A process-independent 64-bit hash of ``label``.

    Python's built-in ``hash`` of strings is salted per process
    (PYTHONHASHSEED), which would make derived streams — and therefore
    every experiment — unreproducible across runs.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int | None) -> random.Random:
    """Return a fresh :class:`random.Random` seeded with ``seed``.

    ``None`` produces an OS-seeded generator (non-reproducible); every
    experiment entry point defaults to a concrete integer seed instead.
    """
    return random.Random(seed)


def derive_rng(rng: random.Random, label: str) -> random.Random:
    """Derive an independent child generator from ``rng`` and a label.

    Deriving by label (rather than drawing raw integers in sequence)
    keeps sub-streams stable when unrelated components add or remove
    random draws: the topology stream does not shift when the workload
    stream changes.
    """
    base = rng.getrandbits(64)
    mixed = (base ^ _stable_label_hash(label)) * _DERIVE_MIX
    return random.Random(mixed & 0xFFFFFFFFFFFFFFFF)


def shuffle(rng: random.Random, x: list) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` does.

    Same result, and the same ``rng.getrandbits(k)`` calls in the same
    order: Fisher–Yates from the last index down to 1, each ``j`` drawn
    as ``k = (i + 1).bit_length()`` bits and redrawn while ``j > i`` —
    ``Random.shuffle`` over ``_randbelow_with_getrandbits``, whose source
    is the same on CPython 3.10 to 3.13.  The stock method pays two
    Python calls per element; here ``k`` is computed once per
    power-of-two block of ``i`` and the only call is ``getrandbits``.

    An ``rng`` whose class overrides ``shuffle`` or draws ints some other
    way (a ``random()``-only subclass binds ``_randbelow_without_getrandbits``)
    is handed to ``rng.shuffle`` itself, so the two never differ.
    """
    cls = type(rng)
    if cls.shuffle is not _STOCK_SHUFFLE or cls._randbelow is not _STOCK_RANDBELOW:
        rng.shuffle(x)
        return
    getrandbits = rng.getrandbits
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        bottom = (1 << (k - 1)) - 1  # the least i with (i + 1).bit_length() == k
        for i in range(top, bottom - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = bottom - 1
