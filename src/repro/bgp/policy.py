"""Valley-free export policy (the Gao-Rexford export rule).

An AS exports:

* **to customers and siblings** — every route it uses (customers pay
  for full reachability; siblings are the same organisation);
* **to peers and providers** — only routes it originates itself or
  learned from customers/siblings (no free transit between two
  providers or two peers).

The paper's Figures 11-12 also examine an attacker that *violates*
this rule and re-exports provider/peer routes everywhere; the policy
object supports a per-AS violation set for exactly that experiment.
"""

from __future__ import annotations

from repro.topology.relationships import PrefClass, Relationship

__all__ = ["ExportPolicy", "ImportPolicy"]

#: Preference classes that may be exported to peers/providers.
_EXPORTABLE_UPWARD = frozenset(
    {PrefClass.ORIGIN, PrefClass.CUSTOMER, PrefClass.SIBLING}
)


class ExportPolicy:
    """Decides whether an AS announces its best route to a neighbour.

    ``violators`` is the set of ASes that ignore the valley-free export
    rule (they export every route to every neighbour) — the attacker
    configuration of the paper's Figures 11 and 12.
    """

    def __init__(self, violators: frozenset[int] | set[int] = frozenset()) -> None:
        self._violators = frozenset(violators)

    @property
    def violators(self) -> frozenset[int]:
        return self._violators

    def allows_export(
        self,
        sender: int,
        neighbor_role: Relationship,
        route_pref: PrefClass,
    ) -> bool:
        """True when ``sender`` may announce a ``route_pref`` route to a
        neighbour whose role (relative to the sender) is ``neighbor_role``.
        """
        if neighbor_role is Relationship.NONE:
            return False
        if sender in self._violators:
            return True
        if neighbor_role in (Relationship.CUSTOMER, Relationship.SIBLING):
            return True
        return route_pref in _EXPORTABLE_UPWARD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExportPolicy(violators={sorted(self._violators)})"


class ImportPolicy:
    """Receiver-side admission contract for security policies.

    Where :class:`ExportPolicy` governs what a *sender* announces, an
    import policy is evaluated by the *receiver* on every offer in its
    Adj-RIB-in before the decision process ranks it:
    ``check(receiver, sender, path)`` returning False drops the offer
    as if it were never announced.  Unlike the ad-hoc per-AS
    ``import_filters`` callables (which only see ``(sender, path)``),
    an import policy knows who is evaluating it — ASPA-style validation
    needs the receiver's own relationship with the sender for the final
    hop.  The deployment layer (:mod:`repro.secpol`) decides *which*
    ASes evaluate the policy; the engines only ever see the combination
    through a :class:`repro.secpol.SecurityDeployment`.

    Admission order is fixed: security policy first, then any user
    import filter.
    """

    name = "abstract"

    def check(self, receiver: int, sender: int, path: tuple[int, ...]) -> bool:
        raise NotImplementedError
