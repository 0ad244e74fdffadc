"""Receiver-side BGP security policies and their compiled checkers.

Three policies, spanning the spectrum the paper's threat model implies:

* :class:`RovPolicy` — RPKI origin validation.  Accepts any route whose
  origin AS is the legitimate prefix holder.  ASPP interception never
  forges the origin (the attacker *strips padding* from a route that
  genuinely ends at the victim), so ROV is the **negative control**: a
  network fully deployed with ROV is exactly as polluted as an
  undefended one.  The deployment-sweep experiments assert this as an
  equality, not a tendency.

* :class:`AspaPolicy` — ASPA-style path-plausibility verification.  The
  receiver walks the (collapsed) AS-level path from the origin outward
  and checks every hop against the provider/customer/peer/sibling
  relationships it knows, enforcing the valley-free shape: once a route
  has travelled down (provider→customer) or across a peering link, it
  may never travel up again.  The canonical ASPP interception announces
  the attacker's *real, valley-free* route with padding stripped, so
  ASPA is blind to it too — but it catches the policy-violating
  attacker variant (the paper's Figures 11-12), whose leaked routes
  embed a valley at or downstream of the leak.

* :class:`PrependGuardPolicy` — the paper-specific padding-consistency
  filter, PGBGP-style cautious adoption specialised to the ASPP
  signature.  A deployer remembers, per first-hop neighbour of the
  protected origin, the origin padding observed in the honest baseline
  (:func:`padding_registry`), and rejects any offer whose padding for a
  known first hop *shrank* — precisely the attacker's transformation.
  :func:`repro.secpol.simulate_cautious_deployment` measures it at a
  random deployment fraction.

Every policy exposes two equivalent evaluation surfaces:

* ``check(receiver, sender, path)`` — the tuple-space statement of the
  policy, which the reference interpreter (the test-side oracle)
  evaluates in its decision scan;
* ``compiled_checker(table)`` — a ``(receiver_idx, sender_idx,
  path_id) -> bool`` closure over a
  :class:`~repro.bgp.compiled.InternTable`, used by the engine.
  Verdicts are memoised per interned path id by walking the run-length
  chain directly, so a path is judged once per table no matter how many
  receivers evaluate it, and no tuple is ever materialised.

The differential suites pin the two surfaces bit-identical for every
policy.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any

from repro.bgp.aspath import split_origin_padding
from repro.bgp.compiled import InternTable
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship

__all__ = [
    "SecurityPolicy",
    "RovPolicy",
    "AspaPolicy",
    "PrependGuardPolicy",
    "padding_registry",
]

#: pid-space admission test: (receiver index, sender index, intern id).
CompiledChecker = Callable[[int, int, int], bool]

#: phase codes for the ASPA valley-free walk.
_UP = 0
_DOWN = 1

_UNSET = object()


class SecurityPolicy:
    """Base class: one receiver-side security policy, evaluable in both
    path spaces.

    The *receiver* evaluates it on every offer in its Adj-RIB-in before
    the decision process ranks it: ``check(receiver, sender, path)``
    returning False drops the offer as if it were never announced.  It
    knows who evaluates it, because ASPA-style validation needs the
    receiver's own relationship with the sender for the final hop.  The
    deployment layer (:mod:`repro.secpol.deployment`) decides *which*
    ASes evaluate it; the engine only ever sees the combination through
    a :class:`repro.secpol.SecurityDeployment`.

    Subclasses implement :meth:`check` (tuple space) and
    :meth:`_build_compiled_checker` (pid space); the base memoises the
    compiled closure per intern table, so an engine asking for the
    checker on every propagation keeps hitting the same memo dicts.
    """

    name = "abstract"

    def __init__(self) -> None:
        self._checker_cache: tuple[InternTable, CompiledChecker] | None = None

    def check(self, receiver: int, sender: int, path: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def compiled_checker(self, table: InternTable) -> CompiledChecker:
        cached = self._checker_cache
        if cached is not None and cached[0] is table:
            return cached[1]
        checker = self._build_compiled_checker(table)
        self._checker_cache = (table, checker)
        return checker

    def _build_compiled_checker(self, table: InternTable) -> CompiledChecker:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class RovPolicy(SecurityPolicy):
    """Origin validation: accept iff the path originates at the holder.

    The single-prefix simulation has exactly one legitimate origin, so
    a ROA for it reduces to an origin-ASN equality test.
    """

    name = "rov"

    def __init__(self, origin: int) -> None:
        super().__init__()
        self.origin = origin

    def check(self, receiver: int, sender: int, path: tuple[int, ...]) -> bool:
        return bool(path) and path[-1] == self.origin

    def _build_compiled_checker(self, table: InternTable) -> CompiledChecker:
        parent = table.parent
        head = table.head
        origin_idx = table.index_of(self.origin)
        memo: dict[int, bool] = {0: False}

        def check(recv: int, snd: int, pid: int) -> bool:
            verdict = memo.get(pid)
            if verdict is None:
                node = pid
                while parent[node] != 0:
                    node = parent[node]
                verdict = head[node] == origin_idx
                memo[pid] = verdict
            return verdict

        return check


class AspaPolicy(SecurityPolicy):
    """ASPA-like provider-authorization path verification.

    The receiver validates the announced path against the relationship
    database: walking the collapsed AS-level path from the origin
    towards the sender, every step must be a plausible export —

    * origin-side AS is the far side's **customer**: an up-step, only
      legal while the route has never gone down or across;
    * **sibling**: one organisation, phase unchanged;
    * **peer**: legal only at the top of the climb, and the route is
      descending afterwards;
    * origin-side AS is the far side's **provider**: a down-step.

    A hop between non-adjacent (or unknown) ASes is rejected outright —
    that is a fabricated link.  Finally the last hop, sender→receiver,
    is checked the same way using the receiver's own relationship with
    the sender.  This is the valley-free shape check an ASPA validator
    can perform from signed provider authorizations; it accepts every
    honest route and every *canonical* ASPP interception (whose path is
    the attacker's real valley-free route), but rejects the leaked
    routes of the policy-violating attacker at, and downstream of, the
    leak point.
    """

    name = "aspa"

    def __init__(self, graph: ASGraph) -> None:
        super().__init__()
        self._graph = graph

    @staticmethod
    def _step(rel: Relationship, phase: int) -> int:
        """Next phase after a step whose origin-side AS has ``rel``
        relative to the far side; ``-1`` = implausible."""
        if rel is Relationship.CUSTOMER:
            return _UP if phase == _UP else -1
        if rel is Relationship.SIBLING:
            return phase
        if rel is Relationship.PEER:
            return _DOWN if phase == _UP else -1
        if rel is Relationship.PROVIDER:
            return _DOWN
        return -1

    def check(self, receiver: int, sender: int, path: tuple[int, ...]) -> bool:
        if not path:
            return False
        graph = self._graph
        hops: list[int] = [path[0]]
        for asn in path[1:]:
            if asn != hops[-1]:
                hops.append(asn)
        phase = _UP
        # hops[-1] is the origin; walk towards hops[0] (the sender side).
        for pos in range(len(hops) - 1, 0, -1):
            near, far = hops[pos], hops[pos - 1]
            if near not in graph or far not in graph:
                return False
            phase = self._step(graph.relationship(far, near), phase)
            if phase < 0:
                return False
        if sender not in graph or receiver not in graph:
            return False
        final = self._step(graph.relationship(receiver, sender), phase)
        return final >= 0

    def _build_compiled_checker(self, table: InternTable) -> CompiledChecker:
        topo = table.topo
        parent = table.parent
        head = table.head
        n = topo.n
        role_code = topo.role_code
        slot_index = topo.slot_index
        # pid -> phase of the path segment the chain node heads
        # (walked from the origin at the bottom), or -1 = implausible.
        phase_memo: dict[int, int] = {}

        def phase_of(pid: int) -> int:
            verdict = phase_memo.get(pid)
            if verdict is not None:
                return verdict
            chain: list[int] = []
            node = pid
            while node and node not in phase_memo:
                chain.append(node)
                node = parent[node]
            for node in reversed(chain):
                above = parent[node]
                if above == 0:
                    verdict = _UP  # the origin's own trailing run
                else:
                    base = phase_memo[above]
                    near, far = head[above], head[node]
                    if base < 0 or near >= n or far >= n:
                        verdict = -1
                    else:
                        slot = slot_index[far].get(near)
                        if slot is None:
                            verdict = -1  # fabricated link
                        else:
                            code = role_code[slot]
                            if code == 0:  # near is far's customer: up
                                verdict = _UP if base == _UP else -1
                            elif code == 1:  # near is far's provider: down
                                verdict = _DOWN
                            elif code == 2:  # peer step
                                verdict = _DOWN if base == _UP else -1
                            else:  # sibling
                                verdict = base
                phase_memo[node] = verdict
            return phase_memo[pid]

        def check(recv: int, snd: int, pid: int) -> bool:
            if pid == 0:
                return False
            phase = phase_of(pid)
            if phase < 0:
                return False
            slot = slot_index[recv].get(snd)
            if slot is None:
                return False
            code = role_code[slot]
            if code == 0 or code == 2:  # sender is receiver's customer/peer
                return phase == _UP
            return True

        return check


def _first_hop_padding(
    path: tuple[int, ...], origin: int, holder: int
) -> tuple[int, int]:
    """``(first hop, origin padding)`` of a path ending at ``origin``.

    The first hop is the origin's neighbour the route entered through:
    the last non-origin AS on the path, or ``holder`` (the AS that heard
    the route straight from the origin) when there is none.
    """
    head, _, padding = split_origin_padding(path)
    stripped_head = [hop for hop in head if hop != origin]
    return (stripped_head[-1] if stripped_head else holder), padding


class PrependGuardPolicy(SecurityPolicy):
    """Padding-consistency filter: reject offers whose origin padding
    shrank below the history for the same first hop.

    Pretty Good BGP (Karlin et al., cited by the paper) delays adopting
    *novel* routes; this policy specialises the idea to the ASPP attack.
    The registry maps each first-hop neighbour of the protected origin
    to the padding observed on honest routes through it
    (:func:`padding_registry`).  An offer for the origin's prefix whose
    padding undercuts that history is exactly what an ASPP interceptor
    produces; offers through unknown first hops, and routes for other
    origins, are accepted (no history, no judgement).  The registry is
    a snapshot of one honest baseline: a legitimate traffic-engineering
    change by the origin is a new baseline and a new policy.
    """

    name = "prependguard"

    def __init__(self, origin: int, registry: Mapping[int, int]) -> None:
        super().__init__()
        self.origin = origin
        self.registry = dict(registry)

    def check(self, receiver: int, sender: int, path: tuple[int, ...]) -> bool:
        if not path or path[-1] != self.origin:
            return True
        first_hop, padding = _first_hop_padding(path, self.origin, sender)
        known = self.registry.get(first_hop)
        return known is None or padding >= known

    def _build_compiled_checker(self, table: InternTable) -> CompiledChecker:
        parent = table.parent
        head = table.head
        run = table.run
        origin_idx = table.index_of(self.origin)
        known_of = {table.index_of(a): lam for a, lam in self.registry.items()}
        # pid -> True/False, or (padding,) when the first hop is the
        # sender itself (a pure origin-run path) and the verdict is
        # per-sender.
        memo: dict[int, Any] = {0: True}

        def check(recv: int, snd: int, pid: int) -> bool:
            verdict = memo.get(pid, _UNSET)
            if verdict is _UNSET:
                bottom = pid
                above = -1
                while parent[bottom] != 0:
                    above = bottom
                    bottom = parent[bottom]
                if head[bottom] != origin_idx:
                    verdict = True  # a route for some other origin
                elif above >= 0:
                    # Canonical run-merge guarantees the node above the
                    # trailing origin run has a different head, so it is
                    # the last non-origin hop — the guarded first hop.
                    known = known_of.get(head[above])
                    verdict = known is None or run[bottom] >= known
                else:
                    verdict = (run[bottom],)
                memo[pid] = verdict
            if type(verdict) is tuple:
                known = known_of.get(snd)
                return known is None or verdict[0] >= known
            return verdict

        return check


def padding_registry(baseline: Any, origin: int) -> dict[int, int]:
    """Per-first-hop minimum origin padding over ``baseline``'s best routes.

    Maps each first-hop neighbour of ``origin`` to the origin padding
    observed on routes entering through it; in a converged honest world
    every route through one first hop carries the same padding, so the
    registry is well-defined.  Reads the outcome's attached
    :class:`~repro.bgp.compiled.CompiledState` — walking each *distinct*
    interned path chain once instead of reifying a tuple per AS, which
    preserves the sweep pipeline's no-materialisation property — and
    walks the tuple routes of an outcome that has none (unpickled or
    eagerly built).
    """
    registry: dict[int, int] = {}
    state = getattr(baseline, "compiled_state", None)
    if state is None:
        for asn, route in baseline.best.items():
            if asn == origin or route is None or not route.path:
                continue
            if route.path[-1] != origin:
                continue
            first_hop, padding = _first_hop_padding(route.path, origin, asn)
            known = registry.get(first_hop)
            registry[first_hop] = padding if known is None else min(known, padding)
        return registry

    table = state.table
    topo = table.topo
    parent = table.parent
    head = table.head
    run = table.run
    origin_asn_idx = table.index_of(origin)
    best_pref = state.best_pref
    best_pid = state.best_pid
    # (padding, first-hop index) per distinct pid; None = other origin.
    per_pid: dict[int, tuple[int, int] | None] = {}
    for i in range(topo.n):
        if best_pref[i] < 0:
            continue
        pid = best_pid[i]
        if pid == 0:
            continue  # the origin's own empty path
        info = per_pid.get(pid, _UNSET)
        if info is _UNSET:
            bottom = pid
            above = -1
            while parent[bottom] != 0:
                above = bottom
                bottom = parent[bottom]
            info = (
                (run[bottom], head[above] if above >= 0 else -1)
                if head[bottom] == origin_asn_idx
                else None
            )
            per_pid[pid] = info
        if info is None:
            continue
        padding, first_hop_idx = info
        first_hop = table.asn_of(first_hop_idx) if first_hop_idx >= 0 else topo.asn[i]
        known = registry.get(first_hop)
        registry[first_hop] = padding if known is None else min(known, padding)
    return registry
