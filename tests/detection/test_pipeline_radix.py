"""The canonical-CIDR check the streaming detector runs once per prefix."""

from __future__ import annotations

import pytest

from repro.detection.pipeline.radix import parse_prefix
from repro.exceptions import DetectionError


@pytest.mark.parametrize(
    "text",
    [
        "203.0.113.0",  # no mask
        "203.0.113/24",  # three octets
        "203.0.113.0.1/24",  # five octets
        "203.0.113.x/24",  # non-numeric octet
        "203.0.113.256/32",  # octet out of range
        "203.0.113.0/33",  # mask too long
        "203.0.113.0/x",  # non-numeric mask
        "203.0.113.1/24",  # host bits below the mask
        "-203.0.113.0/24",  # sign
    ],
)
def test_parse_prefix_rejects_non_canonical(text):
    with pytest.raises(DetectionError):
        parse_prefix(text)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0.0.0.0/0", (0, 0)),
        ("255.255.255.255/32", (0xFFFFFFFF, 32)),
        ("203.0.113.0/24", (0xCB007100, 24)),
        ("10.0.0.0/8", (0x0A000000, 8)),
    ],
)
def test_parse_prefix_round_trips(text, expected):
    assert parse_prefix(text) == expected
