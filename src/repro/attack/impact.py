"""Pollution metrics: how much of the Internet the attacker captured.

The paper quantifies attack impact as "the fraction of ASes adopting
the malicious route, meaning that their traffic to victim V will
traverse attacker M", and plots it against the no-attack baseline
("Before hijack") in Figures 7-12.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.engine import PropagationOutcome

__all__ = ["PollutionReport", "pollution_report"]


def _eligible_ases(outcome: PropagationOutcome, attacker: int, victim: int) -> list[int]:
    """The population over which pollution is measured.

    The attacker and the victim themselves are excluded: the victim
    always reaches itself, and the attacker trivially traverses itself.
    """
    return [asn for asn in outcome.best if asn not in (attacker, victim)]


@dataclass(frozen=True)
class PollutionReport:
    """Before/after impact of one attack instance."""

    attacker: int
    victim: int
    num_ases: int
    #: ASes whose path traversed the attacker before the attack
    before: frozenset[int]
    #: ASes whose path traverses the attacker under the attack
    after: frozenset[int]
    #: ASes newly captured by the attack (after - before)
    newly_polluted: frozenset[int]

    @property
    def before_fraction(self) -> float:
        """Paper's "Before hijack" series."""
        return len(self.before) / self.num_ases if self.num_ases else 0.0

    @property
    def after_fraction(self) -> float:
        """Paper's "After hijack" series (% of paths traversing attacker)."""
        return len(self.after) / self.num_ases if self.num_ases else 0.0

    @property
    def gain(self) -> float:
        """Increase in traversal fraction caused by the attack."""
        return self.after_fraction - self.before_fraction


def _member_indices(state, attacker_idx: int, bit: int) -> frozenset[int]:
    """Indices whose selected path traverses the attacker, memoised on
    the (immutable, converged) compiled state per attacker.

    A deployment sweep reports against one baseline at every fraction
    and a campaign revisits a victim's baseline once per attacker, so
    the memo turns the report's baseline half into a dict hit.
    """
    cache = state._trav
    if cache is None:
        cache = state._trav = {}
    members = cache.get(attacker_idx)
    if members is None:
        mask = state.table.mask
        best_pref = state.best_pref
        best_pid = state.best_pid
        members = frozenset(
            i
            for i in range(state.table.topo.n)
            if best_pref[i] >= 0 and mask[best_pid[i]] & bit
        )
        cache[attacker_idx] = members
    return members


def _compiled_traversal_sets(
    baseline: PropagationOutcome,
    attacked: PropagationOutcome,
    attacker: int,
    victim: int,
) -> tuple[int, set[int], set[int]] | None:
    """``(population size, before, after)`` computed on the outcomes'
    attached compiled states, or ``None`` when they are unavailable.

    When both outcomes carry :class:`~repro.bgp.compiled.CompiledState`
    over the same intern table — the invariable case for runner tasks,
    where the attack warm-starts from the cached baseline — "does this
    AS's path traverse the attacker?" is one mask AND per AS instead of
    a tuple scan, and the result is exactly the membership test on the
    reified path.

    An attack warm-started from this very baseline gets a further cut:
    its arrays began as a copy of the baseline's and were rewritten
    only where the run stamped an adoption round, so the after-set is
    the memoised baseline membership patched over those rows —
    O(affected cone) instead of O(topology).
    """
    base_state = baseline.compiled_state
    attack_state = attacked.compiled_state
    if (
        base_state is None
        or attack_state is None
        or base_state.table is not attack_state.table
    ):
        return None
    topo = base_state.table.topo
    attacker_idx = topo.index.get(attacker)
    if attacker_idx is None:
        return None
    victim_idx = topo.index.get(victim)
    bit = 1 << attacker_idx
    mask = base_state.table.mask
    asn_of = topo.asn
    n = topo.n
    before_idx = _member_indices(base_state, attacker_idx, bit)
    attack_pref = attack_state.best_pref
    attack_pid = attack_state.best_pid
    if attack_state.warm_base is base_state:
        # O(touched): every other row still holds its baseline value,
        # so only the rewritten rows can flip membership.
        after_set = set(before_idx)
        index = topo.index
        for asn in attacked.adoption_round:
            i = index[asn]
            if attack_pref[i] >= 0 and mask[attack_pid[i]] & bit:
                after_set.add(i)
            else:
                after_set.discard(i)
    else:
        after_set = {
            i
            for i in range(n)
            if attack_pref[i] >= 0 and mask[attack_pid[i]] & bit
        }
    excluded = {attacker_idx} if victim_idx is None else {attacker_idx, victim_idx}
    num_ases = n - len(excluded)
    before = {asn_of[i] for i in before_idx if i not in excluded}
    after = {asn_of[i] for i in after_set if i not in excluded}
    return num_ases, before, after


def pollution_report(
    *,
    baseline: PropagationOutcome,
    attacked: PropagationOutcome,
    attacker: int,
    victim: int,
) -> PollutionReport:
    """Compare baseline and attacked outcomes into a :class:`PollutionReport`."""
    compiled = _compiled_traversal_sets(baseline, attacked, attacker, victim)
    if compiled is not None:
        num_ases, before, after = compiled
        return PollutionReport(
            attacker=attacker,
            victim=victim,
            num_ases=num_ases,
            before=frozenset(before),
            after=frozenset(after),
            newly_polluted=frozenset(after - before),
        )
    population = _eligible_ases(baseline, attacker, victim)
    before = set()
    after = set()
    for asn in population:
        base_route = baseline.best.get(asn)
        if base_route is not None and attacker in base_route.path:
            before.add(asn)
        attack_route = attacked.best.get(asn)
        if attack_route is not None and attacker in attack_route.path:
            after.add(asn)
    return PollutionReport(
        attacker=attacker,
        victim=victim,
        num_ases=len(population),
        before=frozenset(before),
        after=frozenset(after),
        newly_polluted=frozenset(after - before),
    )
