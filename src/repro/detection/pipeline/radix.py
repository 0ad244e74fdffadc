"""IPv4 prefix validation for the streaming detector.

Prefixes are canonical IPv4 CIDR strings (``"203.0.113.0/24"``).  Host
bits set below the mask are rejected rather than silently truncated:
the detector keys its per-prefix state by the prefix *string*, so two
textually different keys for one network would split that state.
"""

from __future__ import annotations

from repro.exceptions import DetectionError

__all__ = ["parse_prefix"]


def parse_prefix(text: str) -> tuple[int, int]:
    """Parse ``"a.b.c.d/len"`` into ``(value, length)``.

    ``value`` is the network address as a 32-bit integer; ``length``
    the mask length.  Raises :class:`DetectionError` for anything that
    is not a canonical IPv4 CIDR (bad shape, octets out of range, host
    bits set below the mask).
    """
    address, sep, length_text = text.partition("/")
    if not sep:
        raise DetectionError(f"prefix {text!r} is not in CIDR a.b.c.d/len form")
    octets = address.split(".")
    if len(octets) != 4:
        raise DetectionError(f"prefix {text!r} does not have four octets")
    value = 0
    for octet_text in octets:
        if not octet_text.isdigit():
            raise DetectionError(f"prefix {text!r} has a non-numeric octet")
        octet = int(octet_text)
        if octet > 255:
            raise DetectionError(f"prefix {text!r} has an octet > 255")
        value = (value << 8) | octet
    if not length_text.isdigit():
        raise DetectionError(f"prefix {text!r} has a non-numeric mask length")
    length = int(length_text)
    if length > 32:
        raise DetectionError(f"prefix {text!r} has a mask length > 32")
    if length < 32 and value & ((1 << (32 - length)) - 1):
        raise DetectionError(
            f"prefix {text!r} has host bits set below its /{length} mask"
        )
    return value, length
