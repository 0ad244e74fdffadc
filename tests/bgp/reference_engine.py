"""The reference interpreter, kept as the engine's oracle.

This is how :class:`repro.bgp.engine.PropagationEngine` propagated
before its compiled cores: an asynchronous (Gauss-Seidel) worklist over
an adjacency built from the graph's public queries, one Adj-RIB-in dict
of ``(path, class)`` tuples per AS, and the decision process as a scan
over tuple preference keys.  No artefact runs it.  It stays here, next
to ``loop_oracle.py``, as the independent statement of the semantics
the compiled loop and the wave kernel must reproduce bit for bit
(``test_compiled_differential.py``, ``test_row_read.py``,
``test_baseline_cache.py``, ``test_impact_route.py``, the secpol
suites).

It shares no core with what it checks: it imports nothing from
``repro.bgp.compiled`` or ``repro.bgp.vectorized``, and only the outcome
type from ``repro.bgp.engine`` (``test_engine.py`` pins both).  Its
outcomes are eager and carry no compiled state, so row reads, pollution
reports, padding registries and warm starts taken from them exercise
the consumers' tuple branches.

Besides the engine's own ``propagate`` arguments it takes the worklist
disciplines the loop-discipline suites compare (``activation`` =
``"fifo"``/``"lifo"``/``"random"`` with ``activation_rng``),
``incremental=False``, which reruns the full Adj-RIB-in scan on every
rib change instead of the O(1) per-offer fast path, and per-AS
``import_filters`` in place of the engine's ``failed_links``: a failed
link is the two filters of :func:`link_down_filters`, called on the
offered path.

Export is the Gao-Rexford rule, :func:`allows_export`, with the
violators of the paper's Figures 11-12 exporting everything.

The decision process (the paper's profit-driven model):

1. highest local preference — customer routes beat sibling routes beat
   peer routes beat provider routes;
2. shortest AS-PATH (where prepending, and the attack, act);
3. the lowest announcing neighbour ASN, so runs are reproducible.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable, Iterable, Mapping

from repro.bgp.engine import PropagationOutcome
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import DEFAULT_PREFIX, Route
from repro.exceptions import ConvergenceError, SimulationError, UnknownASError
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import PrefClass, Relationship

__all__ = [
    "ReferenceEngine",
    "admit_offer",
    "allows_export",
    "best_route",
    "clone_outcome",
    "link_down_filters",
    "preference_key",
    "sorted_neighbors",
]

Offer = tuple[tuple[int, ...], PrefClass]
ImportFilter = Callable[[int, tuple[int, ...]], bool]


def allows_export(
    neighbor_role: Relationship, route_pref: PrefClass, violator: bool = False
) -> bool:
    """Valley-free export: may an AS announce a ``route_pref`` route to a
    neighbour whose role (relative to the AS) is ``neighbor_role``?

    Every route goes to customers and siblings (customers pay for full
    reachability; siblings are the same organisation); to peers and
    providers only routes the AS originates or learned from customers
    or siblings (no free transit between two providers or two peers).
    A ``violator`` exports every route to every neighbour.
    """
    if neighbor_role is Relationship.NONE:
        return False
    if violator or neighbor_role in (Relationship.CUSTOMER, Relationship.SIBLING):
        return True
    return route_pref <= PrefClass.SIBLING


def link_down_filters(links: Iterable[tuple[int, int]]) -> dict[int, ImportFilter]:
    """Import filters under which every ``(a, b)`` link in ``links`` is
    down: neither end admits the other's offer."""
    cut: dict[int, set[int]] = {}
    for a, b in links:
        cut.setdefault(a, set()).add(b)
        cut.setdefault(b, set()).add(a)
    return {
        asn: (lambda sender, path, far=far: sender not in far)
        for asn, far in cut.items()
    }


def sorted_neighbors(graph: ASGraph, asn: int) -> tuple[int, ...]:
    """Every neighbour of ``asn``, ascending: the announcement order."""
    return tuple(sorted(graph.neighbors_of(asn)))


def preference_key(route: Route) -> tuple[int, int, int]:
    """Sort key for route preference: smaller is better."""
    return (
        int(route.pref),
        len(route.path),
        route.learned_from if route.learned_from is not None else -1,
    )


def best_route(candidates: Iterable[Route]) -> Route | None:
    """The most preferred route, or ``None`` if there are none."""
    best: Route | None = None
    best_key: tuple[int, int, int] | None = None
    for route in candidates:
        key = preference_key(route)
        if best_key is None or key < best_key:
            best, best_key = route, key
    return best


def admit_offer(
    receiver: int,
    sender: int,
    path: tuple[int, ...],
    security_check: Callable[[int, int, tuple[int, ...]], bool] | None = None,
    import_filter: ImportFilter | None = None,
    stats: list[int] | None = None,
) -> bool:
    """Receiver-side admission, before an offer is ranked: a deployed
    security policy judges first, then any import filter — the order
    the compiled loop's full scan follows.  ``stats`` is a mutable
    ``[evaluated, filtered]`` pair over the policy's verdicts."""
    if security_check is not None:
        if stats is not None:
            stats[0] += 1
        if not security_check(receiver, sender, path):
            if stats is not None:
                stats[1] += 1
            return False
    return import_filter is None or import_filter(sender, path)


def clone_outcome(outcome: PropagationOutcome) -> PropagationOutcome:
    """Copy ``outcome`` for use as a warm start.

    The outer maps are copied, but the per-AS Adj-RIB-in maps are
    *shared*: :meth:`ReferenceEngine.propagate` copies an inner map the
    first time it writes to it (copy-on-write), so the warm start's own
    maps stay pristine.
    """
    return PropagationOutcome(
        prefix=outcome.prefix,
        origin=outcome.origin,
        best=dict(outcome.best),
        adj_rib_in=dict(outcome.adj_rib_in),
        adoption_round=dict(outcome.adoption_round),
        rounds=outcome.rounds,
        best_keys=dict(outcome.best_keys) if outcome.best_keys is not None else None,
    )


#: activations per AS before :class:`ConvergenceError` — the loop's
#: budget, restated so the oracle imports nothing from the loop
MAX_ACTIVATIONS = 50


class ReferenceEngine:
    """Single-prefix propagation over an :class:`ASGraph`, in tuple space.

    A drop-in for the engine wherever code only calls ``propagate`` and
    reads ``graph`` (``simulate_interception``,
    ``BaselineCache``, ``build_deployment``, the collectors).
    """

    def __init__(self, graph: ASGraph) -> None:
        self.graph = graph
        self._adjacency = self._build_adjacency(graph)

    @staticmethod
    def _build_adjacency(
        graph: ASGraph,
    ) -> dict[int, tuple[tuple[int, Relationship, PrefClass, bool], ...]]:
        """Per AS, one entry per neighbour in announcement order:
        (neighbour, its role relative to the AS, the class the neighbour
        assigns to routes from the AS, sibling bit)."""
        adjacency = {}
        for asn in graph:
            entries = []
            for neighbor in sorted_neighbors(graph, asn):
                role = graph.relationship(asn, neighbor)
                entries.append(
                    (
                        neighbor,
                        role,
                        PrefClass.for_relationship(role.inverse()),
                        role is Relationship.SIBLING,
                    )
                )
            adjacency[asn] = tuple(entries)
        return adjacency

    def propagate(
        self,
        origin: int,
        *,
        prefix: str = DEFAULT_PREFIX,
        prepending: PrependingPolicy | None = None,
        modifiers: Mapping[int, Callable[[tuple[int, ...]], tuple[int, ...]]]
        | None = None,
        violators: Iterable[int] = frozenset(),
        warm_start: PropagationOutcome | None = None,
        import_filters: Mapping[int, ImportFilter] | None = None,
        secpol=None,
        activation: str = "fifo",
        activation_rng: random.Random | None = None,
        incremental: bool = True,
    ) -> PropagationOutcome:
        """The engine's ``propagate``, validated the same way, run on
        dicts of tuples."""
        adjacency = self._adjacency
        if origin not in adjacency:
            raise UnknownASError(origin)
        if activation not in ("fifo", "lifo", "random"):
            raise SimulationError(
                f"activation must be 'fifo', 'lifo' or 'random', got {activation!r}"
            )
        if activation == "random" and activation_rng is None:
            activation_rng = random.Random(0)
        prepending = prepending or PrependingPolicy()
        modifiers = dict(modifiers or {})
        violators = frozenset(violators)
        import_filters = dict(import_filters or {})
        for asn in (*modifiers, *violators):
            if asn not in adjacency:
                raise UnknownASError(asn)

        if warm_start is not None:
            if warm_start.origin != origin or warm_start.prefix != prefix:
                raise SimulationError(
                    "warm start must come from the same origin and prefix"
                )
            seed = set(modifiers) | violators
            if not seed:
                raise SimulationError(
                    "warm start requires seed ASes (modifiers or violators)"
                )
            state = clone_outcome(warm_start)
            best = state.best
            adj_rib_in = state.adj_rib_in
            # Inner Adj-RIB-in maps still shared with the warm start.
            shared_ribs: set[int] | None = set(adj_rib_in)
            adoption: dict[int, int] = {}
            initial = sorted(seed)
        else:
            best = {asn: None for asn in adjacency}
            best[origin] = Route(prefix, (), None, PrefClass.ORIGIN)
            adj_rib_in = {asn: {} for asn in adjacency}
            shared_ribs = None
            adoption = {origin: 0}
            initial = [origin]

        # Preference key of each AS's best route, kept in sync with
        # ``best`` so most offer arrivals decide in O(1).
        if warm_start is not None and warm_start.best_keys is not None:
            best_key: dict[int, tuple[int, int, int] | None] = state.best_keys
        else:
            best_key = {
                asn: (None if route is None else preference_key(route))
                for asn, route in best.items()
            }

        pad_senders = prepending.senders()
        sec_check = secpol.check if secpol is not None else None
        sec_deployed = (
            frozenset(a for a in secpol.deployers if a in adjacency)
            if secpol is not None
            else frozenset()
        )

        # Round stamp of the news each AS would currently announce.
        round_of: dict[int, int] = {asn: 0 for asn in initial}
        queue: deque[int] = deque(initial)
        queued: set[int] = set(initial)
        operations = 0
        budget = MAX_ACTIVATIONS * max(1, len(adjacency))
        max_round = 0
        while queue:
            operations += 1
            if operations > budget:
                raise ConvergenceError(operations)
            if activation == "fifo":
                sender = queue.popleft()
            elif activation == "lifo":
                sender = queue.pop()
            else:
                index = activation_rng.randrange(len(queue))
                queue[index], queue[-1] = queue[-1], queue[index]
                sender = queue.pop()
            queued.discard(sender)
            route = best[sender]
            sender_round = round_of.get(sender, 0)
            if route is not None:
                base = route.path
                modifier = modifiers.get(sender)
                if modifier is not None:
                    base = modifier(base)
                route_pref = route.pref
                sender_violates = sender in violators
                sender_pads = sender in pad_senders
                # One announced path per padding count.
                paths_by_count: dict[int, tuple[int, ...]] = {}
            for neighbor, role, inv_pref, is_sibling in adjacency[sender]:
                if route is None:
                    offer = None
                elif not allows_export(role, route_pref, sender_violates):
                    offer = None
                else:
                    count = prepending.padding(sender, neighbor) if sender_pads else 1
                    path_out = paths_by_count.get(count)
                    if path_out is None:
                        path_out = (sender,) * count + base
                        paths_by_count[count] = path_out
                    # Loop prevention: never accept a path holding
                    # your own ASN.
                    if neighbor in path_out:
                        offer = None
                    elif is_sibling:
                        # A sibling inherits the sender's own class.
                        offer = (path_out, route_pref)
                    else:
                        offer = (path_out, inv_pref)
                rib = adj_rib_in[neighbor]
                if rib.get(sender) == offer:
                    continue
                if shared_ribs is not None and neighbor in shared_ribs:
                    # First write to a warm-start-shared map: copy it.
                    rib = adj_rib_in[neighbor] = dict(rib)
                    shared_ribs.discard(neighbor)
                rib[sender] = offer
                if neighbor == origin:
                    continue  # the owner always keeps its own route
                current = best[neighbor]
                import_filter = import_filters.get(neighbor)
                if import_filter is not None or neighbor in sec_deployed or not incremental:
                    new_best, new_key = self._decide(
                        neighbor,
                        prefix,
                        rib,
                        import_filter,
                        sec_check if neighbor in sec_deployed else None,
                    )
                elif offer is None:
                    if current is None or current.learned_from != sender:
                        continue  # losing a non-best offer changes nothing
                    # The best offer was withdrawn: full re-decision.
                    new_best, new_key = self._decide(neighbor, prefix, rib)
                else:
                    path, pref = offer
                    cand_key = (int(pref), len(path), sender)
                    current_key = best_key[neighbor]
                    if current is None or (
                        cand_key <= current_key
                        if current.learned_from == sender
                        else cand_key < current_key
                    ):
                        # A new best, or the best offer improved (other
                        # offers rank strictly worse than the old best).
                        new_best, new_key = Route(prefix, path, sender, pref), cand_key
                    elif current.learned_from == sender:
                        # The best offer worsened: full re-decision.
                        new_best, new_key = self._decide(neighbor, prefix, rib)
                    else:
                        continue  # a worse-ranked offer cannot displace the best
                if new_best == current:
                    best_key[neighbor] = new_key
                    continue
                best[neighbor] = new_best
                best_key[neighbor] = new_key
                stamp = sender_round + 1
                adoption[neighbor] = stamp
                round_of[neighbor] = stamp
                max_round = max(max_round, stamp)
                if neighbor not in queued:
                    queue.append(neighbor)
                    queued.add(neighbor)

        return PropagationOutcome(
            prefix=prefix,
            origin=origin,
            best=best,
            adj_rib_in=adj_rib_in,
            adoption_round=adoption,
            rounds=max_round,
            best_keys=best_key,
        )

    def _decide(
        self,
        receiver: int,
        prefix: str,
        offers: Mapping[int, Offer | None],
        import_filter: ImportFilter | None = None,
        sec_check: Callable[[int, int, tuple[int, ...]], bool] | None = None,
    ) -> tuple[Route | None, tuple[int, int, int] | None]:
        """The full decision process over ``receiver``'s Adj-RIB-in: the
        selected route and its preference key."""
        best_offer: Offer | None = None
        best_neighbor = -1
        best_key: tuple[int, int, int] | None = None
        filtered = import_filter is not None or sec_check is not None
        for neighbor, *_ in self._adjacency[receiver]:
            offer = offers.get(neighbor)
            if offer is None:
                continue
            path, pref = offer
            if filtered and not admit_offer(
                receiver, neighbor, path, sec_check, import_filter
            ):
                continue
            key = (int(pref), len(path), neighbor)
            if best_key is None or key < best_key:
                best_offer, best_neighbor, best_key = offer, neighbor, key
        if best_offer is None:
            return None, None
        return Route(prefix, best_offer[0], best_neighbor, best_offer[1]), best_key
