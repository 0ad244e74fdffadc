"""Prefix-owner self-check: detection with knowledge of one's own policy.

The paper's public-data detector cannot resolve one corner case: when
the attacker is a *direct neighbour* of the victim, the short and long
routes share no path segment, and differing paddings across different
victim neighbours are indistinguishable from the victim's own
per-neighbour traffic engineering (exactly the ambiguity of the
Facebook incident, §III).

The prefix owner, however, knows its own prepending policy.  For any
observed route ``[... AS_1 V^λ_seen]``, the owner knows the padding
``λ_sent`` it configured towards its neighbour ``AS_1``; seeing
``λ_seen < λ_sent`` proves someone on the path stripped padding — no
matter where the monitors sit relative to the attacker.  (``λ_seen``
*greater* than configured is not an interception symptom: anyone may
legitimately prepend additional copies of the owner's... no — only the
owner may prepend its own ASN, so a larger padding is flagged too, as
a spoofed-prepend anomaly.)

This is our extension beyond the paper (flagged as such in DESIGN.md);
it operationalises the paper's remark that the victim "can select a
set of important ASes as their monitors to prevent being hijacked".
"""

from __future__ import annotations

from repro.bgp.aspath import split_origin_padding
from repro.bgp.collectors import MonitorView
from repro.bgp.prepending import PrependingPolicy
from repro.detection.alarms import Alarm, Confidence

__all__ = ["PrefixOwnerSelfCheck"]


class PrefixOwnerSelfCheck:
    """Detector run by the prefix owner itself.

    ``owner`` is the origin AS; ``prepending`` the owner's own
    configured policy (the ground truth the public detector lacks).
    """

    def __init__(self, owner: int, prepending: PrependingPolicy) -> None:
        self._owner = owner
        self._prepending = prepending

    def check_view(self, view: MonitorView) -> list[Alarm]:
        """Compare every monitor's route against the configured padding."""
        alarms: list[Alarm] = []
        for monitor, route in sorted(view.routes.items()):
            if route is None or not route.path:
                continue
            if route.path[-1] != self._owner:
                continue
            head, _, padding_seen = split_origin_padding(route.path)
            # AS_1: the owner's neighbour this route entered through.
            first_hop = head[-1] if head else monitor
            padding_sent = self._prepending.padding(self._owner, first_hop)
            if padding_seen < padding_sent:
                alarms.append(
                    Alarm(
                        prefix=view.prefix,
                        monitor=monitor,
                        confidence=Confidence.HIGH,
                        suspect=None,  # somewhere on `head`, not localised
                        removed_pads=padding_sent - padding_seen,
                        evidence=(
                            f"owner AS{self._owner} sent padding {padding_sent} "
                            f"to AS{first_hop} but monitor AS{monitor} observes "
                            f"{padding_seen}"
                        ),
                    )
                )
            elif padding_seen > padding_sent:
                alarms.append(
                    Alarm(
                        prefix=view.prefix,
                        monitor=monitor,
                        confidence=Confidence.HIGH,
                        suspect=None,
                        removed_pads=None,
                        evidence=(
                            f"spoofed prepending: owner AS{self._owner} sent "
                            f"padding {padding_sent} to AS{first_hop} but "
                            f"monitor AS{monitor} observes {padding_seen} "
                            f"copies of the owner's ASN"
                        ),
                    )
                )
        return alarms
