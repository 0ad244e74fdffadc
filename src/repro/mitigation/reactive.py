"""Reactive mitigation as one step: re-originate with less padding.

The ASPP interception attack's entire advantage is the ``λ-1`` hops of
padding it can strip.  Once the victim learns of the attack (via the
detector or its own self-check), the cheapest unilateral mitigation is
to re-originate with reduced padding: with ``λ' = 1`` the attacker has
nothing left to remove and every AS re-converges onto legitimate
shortest routes.  The trade-off is losing the traffic engineering the
padding implemented — quantified here as the shift in inbound entry
points.  :class:`~repro.mitigation.MitigationController` runs the same
re-announce inside the closed detect → mitigate loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.impact import PollutionReport, pollution_report
from repro.attack.interception import InterceptionResult
from repro.bgp.engine import PropagationEngine, PropagationOutcome
from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import SimulationError

__all__ = ["MitigationOutcome", "reactive_padding_reduction"]


@dataclass
class MitigationOutcome:
    """Routing state after the victim's padding reduction."""

    #: padding the victim re-originated with
    new_padding: int
    #: converged state with the attacker still active
    mitigated: PropagationOutcome
    #: pollution relative to the honest re-originated (λ') world — the
    #: attacker's remaining advantage after mitigation
    report: PollutionReport
    #: fraction of ASes whose first hop into the victim changed vs the
    #: original (padded, pre-attack) state — the TE cost of mitigating
    traffic_engineering_shift: float


def _entry_points(outcome: PropagationOutcome, victim: int) -> dict[int, int]:
    """Map each AS to the victim-adjacent AS its path enters through."""
    entries: dict[int, int] = {}
    for asn, route in outcome.best.items():
        if asn == victim or route is None or not route.path:
            continue
        head = [hop for hop in route.path if hop != victim]
        entries[asn] = head[-1] if head else asn
    return entries


def reactive_padding_reduction(
    engine: PropagationEngine,
    result: InterceptionResult,
    *,
    new_padding: int = 1,
) -> MitigationOutcome:
    """Re-originate with ``new_padding`` while the attacker stays active.

    Returns the converged post-mitigation state; with ``new_padding=1``
    the attack's pollution gain provably collapses to zero (there is no
    padding to strip), which the defence tests assert.
    """
    victim = result.attack.victim
    attacker = result.attack.attacker
    if new_padding < 1:
        raise SimulationError("padding must be >= 1")
    prepending = PrependingPolicy.uniform_origin(victim, new_padding)
    # The honest world under the reduced padding: routing shifts
    # legitimately (that is the TE cost), so the attacker's *remaining
    # advantage* is measured against this re-originated baseline, not
    # the old padded one.
    honest = engine.propagate(
        victim, prefix=result.baseline.prefix, prepending=prepending
    )
    mitigated = engine.propagate(
        victim,
        prefix=result.baseline.prefix,
        prepending=prepending,
        modifiers={attacker: result.attack.modifier()},
        warm_start=honest,
    )
    report = pollution_report(
        baseline=honest,
        attacked=mitigated,
        attacker=attacker,
        victim=victim,
    )
    before_entries = _entry_points(result.baseline, victim)
    after_entries = _entry_points(mitigated, victim)
    shared = set(before_entries) & set(after_entries)
    shifted = sum(1 for asn in shared if before_entries[asn] != after_entries[asn])
    shift = shifted / len(shared) if shared else 0.0
    return MitigationOutcome(
        new_padding=new_padding,
        mitigated=mitigated,
        report=report,
        traffic_engineering_shift=shift,
    )
