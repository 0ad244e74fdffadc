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


class ASPPInterceptionDetector:
    """Passive detector over collector feeds.

    ``graph`` supplies the (possibly inferred) AS relationships used by
    the low-confidence hint stage; pass the inference output in a real
    deployment, or the ground-truth graph in simulation.
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
        if previous is None or current is None:
            return []  # fresh announcement or withdrawal: not an ASPP symptom
        if not previous.path or not current.path:
            return []
        if previous.path[-1] != current.path[-1]:
            return []  # origin changed: that is a MOAS event, not ASPP

        _, origin, padding_before = split_origin_padding(previous.path)
        head_now, _, padding_now = split_origin_padding(current.path)
        if padding_now >= padding_before:
            return []  # padding did not decrease: nothing to check

        core_now = collapse_prepending(head_now)
        if not core_now:
            # The monitor is the victim's direct neighbour; there is no
            # intermediate AS that could have modified the route.
            return []
        suspect = core_now[0]  # AS_I: first AS on the shorter route
        segment_now = core_now[1:]  # [AS_{I-1} ... AS_1]

        alarms = self._direct_symptom(
            monitor, view, origin, core_now, padding_now
        )
        if alarms:
            return alarms
        return self._policy_hints(
            monitor, view, origin, suspect, segment_now, core_now, padding_now
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _observed(
        view: MonitorView, origin: int, exclude_monitor: int
    ) -> list[tuple[int, tuple[int, ...], int]]:
        """``(monitor, core, padding)`` of every other route to ``origin``.

        ``core`` is the monitor followed by its collapsed path above the
        origin's run — the monitor itself is the outermost AS announcing
        the route (the paper's example compares [E A V V V] against
        [M A V], the monitor E included).  The decomposition is memoised
        on the view per monitor and reused while the monitor keeps
        showing the same path object, so a long-lived view holds at most
        one entry per monitor.  Entries come in view order; callers sort
        what they report.
        """
        memo = view.decomposed
        observed = []
        for monitor, route in view.routes.items():
            if monitor == exclude_monitor or route is None:
                continue
            path = route.path
            if not path or path[-1] != origin:
                continue
            known = memo.get(monitor)
            if known is None or known[0] is not path:
                end = len(path) - 1
                while end and path[end - 1] == origin:
                    end -= 1
                head = path[:end]
                if len(set(head)) < end:  # a repeated AS: maybe prepending
                    head = collapse_prepending(head)
                known = memo[monitor] = (path, (monitor,) + head, len(path) - end)
            observed.append((monitor, known[1], known[2]))
        return observed

    def _direct_symptom(
        self,
        monitor: int,
        view: MonitorView,
        origin: int,
        core_now: tuple[int, ...],
        padding_now: int,
    ) -> list[Alarm]:
        """Stage 1: same segment observed elsewhere with more padding.

        Destination-based routing makes every suffix of an observed
        path the route of the AS above it, so two cores sharing their
        last ``k`` ASes share every segment of length ``0..k`` — capped
        one short of either core, whose first AS announces and is not
        part of a segment.  One common-suffix walk per other monitor
        therefore finds the longest segment it shares with the changed
        route, and the alarms are the heavier-padded observations of
        the longest segment anyone shares: that segment localises the
        modifier, the AS immediately above it being the first point
        where the short and long observations diverge.
        """
        extended_now = (monitor,) + core_now
        reach = len(extended_now) - 1
        last = extended_now[-1]
        longest = -1
        heavier: list[tuple[int, int, int]] = []  # (monitor, padding, via)
        for other_monitor, core, padding_other in self._observed(view, origin, monitor):
            if padding_other <= padding_now or core[-1] != last:
                # Not heavier, or nothing shared.  That covers the empty
                # segment too: there both routes sit directly on the
                # victim's edge, where different first-hop neighbours
                # may legitimately receive different padding (per-
                # neighbour traffic engineering, Figure 3), so only the
                # *same* neighbour showing two paddings is inconsistent.
                continue
            limit = min(reach, len(core) - 1)
            if limit < longest:
                continue
            shared = min(1, limit)
            while shared < limit and core[-1 - shared] == extended_now[-1 - shared]:
                shared += 1
            if shared > longest:
                longest = shared
                heavier = []
            if shared == longest:
                heavier.append((other_monitor, padding_other, core[-1 - shared]))
        if not heavier:
            return []
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
    def _policy_hints(
        self,
        monitor: int,
        view: MonitorView,
        origin: int,
        suspect: int,
        segment_now: tuple[int, ...],
        core_now: tuple[int, ...],
        padding_now: int,
    ) -> list[Alarm]:
        """Stage 2: relationship-based hints (lower confidence).

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
        if not segment_now:
            return []
        as_i_minus_1 = segment_now[0]
        length_now = len(core_now) + padding_now
        alarms: list[Alarm] = []
        for _, core, padding_other in sorted(self._observed(view, origin, monitor)):
            core_other = core[1:]
            if padding_now >= padding_other:
                continue
            if not core_other:
                continue
            as_l = core_other[0]
            length_other = len(core_other) + padding_other
            if length_other <= length_now:
                continue
            relationship = self._graph.relationship(as_l, as_i_minus_1)
            hint: str | None = None
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
            elif relationship is Relationship.PROVIDER and self._first_hop_is_provider(
                core_other
            ):
                # AS'_L already uses a provider route; its provider
                # AS_{I-1} exports everything to customers, so the
                # shorter route should have reached it.
                hint = (
                    f"AS{as_l} uses a provider route although its provider "
                    f"AS{as_i_minus_1} held a shorter one"
                )
            if hint is not None:
                alarms.append(
                    Alarm(
                        prefix=view.prefix,
                        monitor=monitor,
                        confidence=Confidence.LOW,
                        suspect=suspect,
                        removed_pads=padding_other - padding_now,
                        evidence=hint,
                    )
                )
        return alarms

    def _has_peer_link(self, core_path: tuple[int, ...]) -> bool:
        """True when any adjacent pair on ``core_path`` is a peering edge."""
        for a, b in zip(core_path, core_path[1:]):
            if self._graph.relationship(a, b) is Relationship.PEER:
                return True
        return False

    def _first_hop_is_provider(self, core_other: tuple[int, ...]) -> bool:
        """True when ``AS'_L`` learned its current route from a provider."""
        if len(core_other) < 2:
            return False
        as_l, as_l_minus_1 = core_other[0], core_other[1]
        return self._graph.relationship(as_l, as_l_minus_1) is Relationship.PROVIDER
