"""Deterministic attacker/victim pair sampling with bounded retries.

The seed implementation of both the CLI's ``campaign`` and
``experiments.base.sample_attack_pairs`` drew ``(attacker, victim)``
pairs in an unbounded loop, retrying whenever the two draws collided —
which spins forever when the pools only ever produce ``attacker ==
victim`` (e.g. identical single-AS pools).  This module keeps the exact
draw sequence (so seeded experiments reproduce bit-for-bit) but bounds
the retries and fails with a diagnosable :class:`ExperimentError`.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.exceptions import ExperimentError

__all__ = ["sample_attack_pairs"]

#: draw budget before a starved sampler gives up:
#: ``BASE_ATTEMPTS + ATTEMPTS_PER_PAIR * count``.  Read per call, so a
#: test may patch them.
BASE_ATTEMPTS = 1000
ATTEMPTS_PER_PAIR = 100


def sample_attack_pairs(
    attackers: Sequence[int],
    victims: Sequence[int],
    count: int,
    rng: random.Random,
) -> list[tuple[int, int]]:
    """Sample ``count`` pairs with ``attacker != victim``.

    Draws ``rng.choice(attackers)`` then ``rng.choice(victims)`` per
    attempt — the same consumption pattern (and therefore the same
    pairs for a given seed) as the original unbounded loops.  Raises
    :class:`ExperimentError` immediately when no distinct pair can ever
    be drawn, and after the draw budget when collisions starve the
    sampler.
    """
    if count < 1:
        raise ExperimentError("at least one attacker/victim pair is required")
    if not attackers or not victims:
        raise ExperimentError("attack-pair pools are too small")
    if set(attackers) == set(victims) and len(set(attackers)) == 1:
        only = next(iter(set(attackers)))
        raise ExperimentError(
            f"cannot sample attacker/victim pairs: both pools contain only "
            f"AS{only}, so every draw yields attacker == victim"
        )
    max_attempts = BASE_ATTEMPTS + ATTEMPTS_PER_PAIR * count
    pairs: list[tuple[int, int]] = []
    attempts = 0
    while len(pairs) < count:
        attempts += 1
        if attempts > max_attempts:
            raise ExperimentError(
                f"gave up sampling attacker/victim pairs after {max_attempts} "
                f"draws ({len(pairs)}/{count} found); the pools overlap so "
                f"heavily that distinct pairs are vanishingly rare"
            )
        attacker = rng.choice(attackers)
        victim = rng.choice(victims)
        if attacker != victim:
            pairs.append((attacker, victim))
    return pairs
