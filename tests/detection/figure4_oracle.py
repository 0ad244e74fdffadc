"""The suffix-index stage 1 and list-based stage 2 of Figure 4, kept
as an oracle.

This is how :class:`ASPPInterceptionDetector` found the direct symptom
before it walked common suffixes: for every inspected change, index
*every* suffix of *every* other monitor's collapsed path, then look the
changed route's own suffixes up in it, longest first.  It states the
search space literally (all segments visible to the monitoring system),
so it is the independent statement of what the scan must return — the
same alarms, in the same order, with the same evidence text
(``test_figure4_scan.py``).  Stage 2 is the hint loop as it ran over a
freshly decomposed list of every other route to the origin, before
both stages read one memo entry per monitor in a single pass.
"""

from __future__ import annotations

from repro.bgp.aspath import collapse_prepending, split_origin_padding
from repro.bgp.collectors import MonitorView
from repro.detection.alarms import Alarm, Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.topology.relationships import Relationship


def segment_paddings(
    view: MonitorView, origin: int, exclude_monitor: int
) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """Index every path segment visible to the monitoring system.

    For each monitor path ``[a_0 ... a_k V^λ]`` (collapsed), every
    suffix ``[a_i ... a_k]`` is the route of AS ``a_{i-1}``'s
    next hop — destination-based routing makes the observation
    valid for all of them.  The index maps each segment
    ``[a_{i+1} ... a_k]`` (the part below the announcing AS
    ``a_i``) to the ``(padding, announcing AS)`` pairs observed.
    """
    index: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for other_monitor, route in sorted(view.routes.items()):
        if other_monitor == exclude_monitor or route is None or not route.path:
            continue
        if route.path[-1] != origin:
            continue
        head, _, padding = split_origin_padding(route.path)
        # The monitor itself is the outermost AS announcing this
        # route (the paper's example compares [E A V V V] against
        # [M A V] — the monitor E included).
        core = (other_monitor,) + collapse_prepending(head)
        for i in range(len(core)):
            index.setdefault(core[i + 1 :], []).append((padding, core[i]))
    return index


def observed(
    view: MonitorView, origin: int, exclude_monitor: int
) -> list[tuple[int, tuple[int, ...], int]]:
    """``(monitor, core, padding)`` of every other route to ``origin``,
    ascending monitor, decomposed afresh."""
    result = []
    for other_monitor, route in sorted(view.routes.items()):
        if other_monitor == exclude_monitor or route is None or not route.path:
            continue
        if route.path[-1] != origin:
            continue
        head, _, padding = split_origin_padding(route.path)
        result.append((other_monitor, (other_monitor,) + collapse_prepending(head), padding))
    return result


class IndexedStage1Detector(ASPPInterceptionDetector):
    """The production detector with the index-based stage 1 and the
    list-based stage 2 swapped in."""

    def _direct_symptom(
        self,
        monitor: int,
        view: MonitorView,
        origin: int,
        core_now: tuple[int, ...],
        padding_now: int,
    ) -> list[Alarm]:
        index = segment_paddings(view, origin, monitor)
        alarms: list[Alarm] = []
        extended_now = (monitor,) + core_now
        for i in range(len(extended_now)):
            segment = extended_now[i + 1 :]
            observations = index.get(segment)
            if not observations:
                continue
            via = extended_now[i]  # the AS announcing the short variant
            for padding_other, other_via in observations:
                if not segment and other_via != via:
                    # An empty segment means both routes sit directly on
                    # the victim's edge: different first-hop neighbours
                    # may legitimately receive different padding (per-
                    # neighbour traffic engineering, Figure 3), so only
                    # the *same* neighbour showing two paddings is
                    # inconsistent.
                    continue
                if padding_other > padding_now:
                    alarms.append(
                        Alarm(
                            prefix=view.prefix,
                            monitor=monitor,
                            confidence=Confidence.HIGH,
                            suspect=via,
                            removed_pads=padding_other - padding_now,
                            evidence=(
                                f"segment {segment} carries padding "
                                f"{padding_other} via AS{other_via} elsewhere "
                                f"but {padding_now} via AS{via} at monitor "
                                f"AS{monitor}"
                            ),
                        )
                    )
            if alarms:
                # The longest shared segment localises the modifier: the
                # AS immediately above it is the first point where the
                # short and long observations diverge.
                break
        return alarms

    def _policy_hints(
        self,
        monitor: int,
        view: MonitorView,
        origin: int,
        core_now: tuple[int, ...],
        padding_now: int,
    ) -> list[Alarm]:
        segment_now = core_now[1:]
        if not segment_now:
            return []
        relationship_of = self._graph.relationship
        as_i_minus_1 = segment_now[0]
        length_now = len(core_now) + padding_now
        alarms: list[Alarm] = []
        for _, core, padding_other in observed(view, origin, monitor):
            core_other = core[1:]
            if padding_now >= padding_other or not core_other:
                continue
            as_l = core_other[0]
            if len(core_other) + padding_other <= length_now:
                continue
            relationship = relationship_of(as_l, as_i_minus_1)
            hint: str | None = None
            if relationship is Relationship.CUSTOMER:
                hint = (
                    f"AS{as_l} uses a longer route although its customer "
                    f"AS{as_i_minus_1} held the shorter one"
                )
            elif relationship is Relationship.PEER and not any(
                relationship_of(a, b) is Relationship.PEER
                for a, b in zip(core_now + (origin,), core_now[1:] + (origin,))
            ):
                hint = (
                    f"AS{as_l} peers with AS{as_i_minus_1}, whose shorter "
                    f"route is customer-learned and thus exportable to peers"
                )
            elif (
                relationship is Relationship.PROVIDER
                and len(core_other) >= 2
                and relationship_of(as_l, core_other[1]) is Relationship.PROVIDER
            ):
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
                        suspect=core_now[0],
                        removed_pads=padding_other - padding_now,
                        evidence=hint,
                    )
                )
        return alarms
