"""The ASPP-interception detection algorithm (the paper's Figure 4).

Key observation (§V-A): *following the same AS path, at any given time,
an AS cannot receive two routes with two different padded ASN counts* —
an origin applies one consistent prepending policy per neighbour, so
two monitors observing the same path segment ``[AS_{I-1} ... AS_1]``
towards the origin must see the same padding ``λ``.

The detector therefore watches each monitor for a route change that
*decreases* the padding, and then:

1. **Direct symptom (high confidence)** — searches the current routes
   of *all ASes visible to the monitoring system* for one sharing a
   path segment with the changed route but carrying *more* padding.
   Destination-based routing means each observed path reveals the
   route of every AS along it ("the total ASes n are larger than the
   number of monitors"), so the search space is the set of all
   suffixes of all monitor paths.  When segment ``[AS_{I-1} ... AS_1]``
   is observed once with padding ``λ_l`` and once with ``λ_t < λ_l``,
   the AS announcing the shorter variant (``AS_I``) must have removed
   ``λ_l − λ_t`` padded ASNs.
2. **Hints (low confidence)** — if no shared segment exists, looks for
   a neighbour ``AS'_L`` of ``AS_{I-1}`` that selected a *longer*
   padded route even though, given the inferred business
   relationships, it should have received and preferred the shorter
   one.  Because relationship inference is imperfect these alarms are
   flagged low-confidence.
"""

from __future__ import annotations

from repro.bgp.aspath import collapse_prepending, split_origin_padding
from repro.bgp.collectors import MonitorView
from repro.bgp.route import Route
from repro.detection.alarms import Alarm, Confidence
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship

__all__ = ["ASPPInterceptionDetector"]


def _decompose(
    monitor: int, path: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], int, int, int]:
    """The scan's memo entry for ``monitor`` showing ``path`` (non-empty):
    ``(path, core, padding, last hop, cap)``.

    ``core`` is the monitor followed by its collapsed path above the
    origin's run — the monitor itself is the outermost AS announcing
    the route (the paper's example compares [E A V V V] against
    [M A V], the monitor E included).  ``last hop`` is ``core[-1]``, the
    AS on the origin's edge, and ``cap`` is ``len(core) - 1``, the
    longest segment the observation can vouch for.
    """
    origin = path[-1]
    end = len(path) - 1
    while end and path[end - 1] == origin:
        end -= 1
    head = path[:end]
    if len(set(head)) < end:  # a repeated AS: maybe prepending
        head = collapse_prepending(head)
    core = (monitor,) + head
    return path, core, len(path) - end, core[-1], len(head)


class ASPPInterceptionDetector:
    """Passive detector over collector feeds.

    ``graph`` supplies the (possibly inferred) AS relationships used by
    the low-confidence hint stage; pass the inference output in a real
    deployment, or the ground-truth graph in simulation.

    Both stages read the view through its ``decomposed`` memo: one
    :func:`_decompose` entry per monitor, recomputed only when the
    monitor shows another path object, so a long-lived view holds at
    most one entry per monitor.
    """

    def __init__(self, graph: ASGraph) -> None:
        self._graph = graph

    # ------------------------------------------------------------------
    def inspect_change(
        self,
        monitor: int,
        previous: Route | None,
        current: Route | None,
        view: MonitorView,
    ) -> list[Alarm]:
        """Apply the Figure-4 algorithm to one observed route change.

        ``view`` is read only: its ``routes`` may be any mapping — a
        snapshot's dict, or the streaming detector's read-only proxy
        over its live table — and its ``decomposed`` memo is reused
        across calls on one view.
        """
        change = self._change(previous, current)
        if change is None:
            return []
        origin, core_now, padding_now = change
        alarms = self._direct_symptom(monitor, view, origin, core_now, padding_now)
        if alarms:
            return alarms
        return self._policy_hints(monitor, view, origin, core_now, padding_now)

    def raises_alarm(
        self,
        monitor: int,
        previous: Route | None,
        current: Route | None,
        view: MonitorView,
        *,
        min_confidence: Confidence = Confidence.LOW,
    ) -> bool:
        """Whether :meth:`inspect_change` returns an alarm of at least
        ``min_confidence`` — decided without building one.

        Stage 1's alarms are all HIGH, and it alarms iff another
        monitor's route to the origin carries more padding and shares
        the changed route's last hop (DESIGN decision 16), so its pass
        returns at the first such observation.  Stage 2's hints are all
        LOW; they are asked for only when stage 1 is silent and
        ``min_confidence`` admits them, and that pass returns at the
        first hint.
        """
        change = self._change(previous, current)
        if change is None:
            return False
        origin, core_now, padding_now = change
        if self._heavier(monitor, view, origin, core_now, padding_now, first=True)[1]:
            return True
        return min_confidence is not Confidence.HIGH and bool(
            self._hints(monitor, view, origin, core_now, padding_now, first=True)
        )

    @staticmethod
    def _change(
        previous: Route | None, current: Route | None
    ) -> tuple[int, tuple[int, ...], int] | None:
        """``(origin, core_now, padding_now)`` of a change that can be an
        ASPP symptom, ``None`` for any other change."""
        if previous is None or current is None:
            return None  # fresh announcement or withdrawal: not an ASPP symptom
        if not previous.path or not current.path:
            return None
        if previous.path[-1] != current.path[-1]:
            return None  # origin changed: that is a MOAS event, not ASPP

        _, origin, padding_before = split_origin_padding(previous.path)
        head_now, _, padding_now = split_origin_padding(current.path)
        if padding_now >= padding_before:
            return None  # padding did not decrease: nothing to check

        core_now = collapse_prepending(head_now)
        if not core_now:
            # The monitor is the victim's direct neighbour; there is no
            # intermediate AS that could have modified the route.
            return None
        return origin, core_now, padding_now

    # ------------------------------------------------------------------
    def _heavier(
        self,
        monitor: int,
        view: MonitorView,
        origin: int,
        core_now: tuple[int, ...],
        padding_now: int,
        *,
        first: bool = False,
    ) -> tuple[int, list[tuple[int, int, int]]]:
        """Stage 1's one pass: ``(longest, [(monitor, padding, via)])``.

        Destination-based routing makes every suffix of an observed
        path the route of the AS above it, so two cores sharing their
        last ``k`` ASes share every segment of length ``0..k`` — capped
        one short of either core, whose first AS announces and is not
        part of a segment.  One common-suffix walk per other monitor
        therefore finds the longest segment it shares with the changed
        route; the result is the heavier-padded observations of the
        longest segment anyone shares, in view order.

        An observation alarms iff it is heavier and shares the last hop
        (then it alarms at every level up to its cap), so ``first``
        returns at the first one, unwalked, as its level-0 observation.
        """
        extended_now = (monitor,) + core_now
        reach = len(core_now)
        last = core_now[-1]
        longest = -1
        heavier: list[tuple[int, int, int]] = []
        memo = view.decomposed
        for other, route in view.routes.items():
            if route is None or other == monitor:
                continue
            path = route.path
            entry = memo.get(other)
            if entry is None or entry[0] is not path:
                if not path:
                    continue
                entry = memo[other] = _decompose(other, path)
            _, core, padding, last_hop, cap = entry
            if padding <= padding_now or last_hop != last or path[-1] != origin:
                # Not heavier, or nothing shared.  That covers the empty
                # segment too: there both routes sit directly on the
                # victim's edge, where different first-hop neighbours
                # may legitimately receive different padding (per-
                # neighbour traffic engineering, Figure 3), so only the
                # *same* neighbour showing two paddings is inconsistent.
                continue
            if first:
                return 0, [(other, padding, last_hop)]
            limit = cap if cap < reach else reach
            if limit < longest:
                continue
            shared = 1 if limit else 0
            while shared < limit and core[-1 - shared] == extended_now[-1 - shared]:
                shared += 1
            if shared > longest:
                longest = shared
                heavier = []
            if shared == longest:
                heavier.append((other, padding, core[-1 - shared]))
        return longest, heavier

    def _direct_symptom(
        self,
        monitor: int,
        view: MonitorView,
        origin: int,
        core_now: tuple[int, ...],
        padding_now: int,
    ) -> list[Alarm]:
        """Stage 1: same segment observed elsewhere with more padding.

        The alarms are :meth:`_heavier`'s observations in ascending
        monitor order: the longest shared segment localises the
        modifier, the AS immediately above it being the first point
        where the short and long observations diverge.
        """
        longest, heavier = self._heavier(monitor, view, origin, core_now, padding_now)
        if not heavier:
            return []
        extended_now = (monitor,) + core_now
        via = extended_now[-1 - longest]  # the AS announcing the short variant
        found = f"segment {extended_now[len(extended_now) - longest:]} carries padding "
        here = f" elsewhere but {padding_now} via AS{via} at monitor AS{monitor}"
        return [
            Alarm(
                prefix=view.prefix,
                monitor=monitor,
                confidence=Confidence.HIGH,
                suspect=via,
                removed_pads=padding_other - padding_now,
                evidence=f"{found}{padding_other} via AS{other_via}{here}",
            )
            for _, padding_other, other_via in sorted(heavier)
        ]

    # ------------------------------------------------------------------
    def _hints(
        self,
        monitor: int,
        view: MonitorView,
        origin: int,
        core_now: tuple[int, ...],
        padding_now: int,
        *,
        first: bool = False,
    ) -> list[tuple[int, int, str]]:
        """Stage 2's one pass: ``(monitor, padding, hint)`` per hint, in
        view order; ``first`` returns at the first one.

        ``AS_{I-1}`` is the AS just below the suspect on the shorter
        route.  If another monitor's first-hop AS ``AS'_L`` is a
        neighbour of ``AS_{I-1}`` that holds a *longer* overall route,
        the shorter route must not have been propagated to it; if the
        relationships say it *should* have been, something upstream
        modified the route.

        When the suspect neighbours the victim directly there is no
        ``AS_{I-1}``: the victim applies per-neighbour padding at will,
        so no policy conclusion can be drawn (the paper's "direct
        neighbour of the victim" corner case) and no hint is raised.
        """
        if len(core_now) < 2:
            return []
        as_i_minus_1 = core_now[1]
        length_now = len(core_now) + padding_now
        relationship_of = self._graph.relationship
        hints: list[tuple[int, int, str]] = []
        memo = view.decomposed
        for other, route in view.routes.items():
            if route is None or other == monitor:
                continue
            path = route.path
            entry = memo.get(other)
            if entry is None or entry[0] is not path:
                if not path:
                    continue
                entry = memo[other] = _decompose(other, path)
            _, core, padding, _, cap = entry
            # ``cap`` ASes follow the monitor: ``core[1:]`` is AS'_L's route
            if padding <= padding_now or not cap or cap + padding <= length_now:
                continue
            if path[-1] != origin:
                continue
            as_l = core[1]
            relationship = relationship_of(as_l, as_i_minus_1)
            if relationship is Relationship.CUSTOMER:
                # AS_{I-1} is AS'_L's customer: a customer route to the
                # prefix existed and would have been preferred.
                hint = (
                    f"AS{as_l} uses a longer route although its customer "
                    f"AS{as_i_minus_1} held the shorter one"
                )
            elif relationship is Relationship.PEER and not self._has_peer_link(core_now + (origin,)):
                # AS_{I-1} held an all-customer (uphill) route, which it
                # must export to its peers.
                hint = (
                    f"AS{as_l} peers with AS{as_i_minus_1}, whose shorter "
                    f"route is customer-learned and thus exportable to peers"
                )
            elif (
                relationship is Relationship.PROVIDER
                and cap >= 2
                and relationship_of(as_l, core[2]) is Relationship.PROVIDER
            ):
                # AS'_L already uses a provider route; its provider
                # AS_{I-1} exports everything to customers, so the
                # shorter route should have reached it.
                hint = (
                    f"AS{as_l} uses a provider route although its provider "
                    f"AS{as_i_minus_1} held a shorter one"
                )
            else:
                continue
            hints.append((other, padding, hint))
            if first:
                break
        return hints

    def _policy_hints(
        self,
        monitor: int,
        view: MonitorView,
        origin: int,
        core_now: tuple[int, ...],
        padding_now: int,
    ) -> list[Alarm]:
        """Stage 2: relationship-based hints (lower confidence), in
        ascending monitor order, accusing the first AS on the shorter
        route."""
        return [
            Alarm(
                prefix=view.prefix,
                monitor=monitor,
                confidence=Confidence.LOW,
                suspect=core_now[0],
                removed_pads=padding_other - padding_now,
                evidence=hint,
            )
            for _, padding_other, hint in sorted(
                self._hints(monitor, view, origin, core_now, padding_now)
            )
        ]

    def _has_peer_link(self, core_path: tuple[int, ...]) -> bool:
        """True when any adjacent pair on ``core_path`` is a peering edge."""
        for a, b in zip(core_path, core_path[1:]):
            if self._graph.relationship(a, b) is Relationship.PEER:
                return True
        return False
