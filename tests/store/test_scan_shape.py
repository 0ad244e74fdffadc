"""Differential property: the store's shape-rule scan against ``json.loads``.

:meth:`CampaignStore.refresh` slices a line of the shape
:func:`encode_record` writes on its fixed delimiters and sends any other
line through ``_parse_record``.  Per line, the scan must give the
verdict (ok / stale / corrupt), fingerprint and kind that
:func:`scan_oracle.classify_line` gives; per log, the index, kinds and
``store.{corrupt,stale,duplicate}_records`` that
:func:`scan_oracle.scan_oracle` gives.  The lines cover what this
program writes (with arbitrary fingerprint and kind text), byte
mutations of it, and other serialisations of the same record.
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import SCHEMA_VERSION, CampaignStore
from repro.store.store import _scan, encode_record
from repro.telemetry.metrics import RunMetrics

from .scan_oracle import classify_line, scan_oracle

_HEX = st.text(alphabet="0123456789abcdef", min_size=1, max_size=64)
_PAYLOADS = st.one_of(
    st.none(), st.integers(), st.text(max_size=20), st.tuples(st.integers(), st.floats())
)
#: control, quote, backslash, DEL and non-ASCII bytes (lone and lead).
_EDGE_BYTES = (0x00, 0x09, 0x0A, 0x1F, 0x22, 0x5C, 0x7F, 0x80, 0xC3, 0xE9, 0xFF)
_HYGIENE = ("store.corrupt_records", "store.stale_records", "store.duplicate_records")


@st.composite
def _written(draw, fingerprints=st.text(max_size=12), kinds=st.text(max_size=8)):
    """A line :func:`encode_record` writes, without its newline.  Text
    fingerprints and kinds bring quotes, backslashes, non-ASCII,
    control characters and empty strings through ``json.dumps``."""
    line = encode_record(draw(fingerprints), draw(_PAYLOADS), kind=draw(kinds))
    return line[:-1]


@st.composite
def _mutated(draw):
    """A written line with one byte-level mutation."""
    line = draw(_written(fingerprints=st.one_of(_HEX, st.text(max_size=6))))
    at = draw(st.integers(0, len(line)))
    mutation = draw(
        st.sampled_from(
            ["flip", "truncate", "splice", "insert", "in-field", "version", "dup-key"]
        )
    )
    if mutation == "in-field":
        # a byte inside a field the digest does not cover
        key = draw(st.sampled_from([b"fp", b"kind", b"schema"]))
        at = line.index(b'"' + key + b'":"') + len(key) + 4 + draw(st.integers(0, 1))
        byte = draw(st.one_of(st.sampled_from(_EDGE_BYTES), st.integers(0, 255)))
        return line[:at] + bytes([byte]) + line[at:]
    if mutation == "flip":
        at = min(at, len(line) - 1)
        return line[:at] + bytes([line[at] ^ draw(st.integers(1, 255))]) + line[at + 1 :]
    if mutation == "truncate":
        return line[:at]
    if mutation == "splice":
        other = draw(_written(fingerprints=_HEX))
        return line[:at] + other[draw(st.integers(0, len(other))) :]
    if mutation == "insert":
        return line[:at] + draw(st.sampled_from([b'"', b"\\", b"\x00"])) + line[at:]
    if mutation == "version":
        version = draw(st.sampled_from([b"1", b"3", b"2.0", b"02", b'"2"', b"true", b"2 "]))
        return line.replace(b'"v":%d}' % SCHEMA_VERSION, b'"v":' + version + b"}")
    # a key written twice: json.loads keeps the last, a slicer the first
    key = draw(st.sampled_from([b"fp", b"kind", b"payload", b"sha", b"v"]))
    value = draw(st.sampled_from([b'"b"', b'"t"', b"2", b'""']))
    if draw(st.booleans()):
        return b"{" + b'"' + key + b'":' + value + b"," + line[1:]
    return line[:-1] + b',"' + key + b'":' + value + b"}"


@st.composite
def _reserialised(draw):
    """The same record spelled another way ``json.loads`` accepts."""
    record = json.loads(draw(_written(fingerprints=_HEX, kinds=st.sampled_from(["task", "x"]))))
    how = draw(st.sampled_from(["default-separators", "unsorted", "extra-key"]))
    if how == "default-separators":
        return json.dumps(record, sort_keys=True).encode()
    if how == "unsorted":
        items = list(record.items())
        random.Random(draw(st.integers(0, 2**16))).shuffle(items)
        return json.dumps(dict(items), separators=(",", ":")).encode()
    record[draw(st.sampled_from(["extra", "a", "zz"]))] = draw(st.integers())
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


_LINES = st.one_of(_written(), _written(fingerprints=_HEX), _mutated(), _reserialised())


def _scanned_line(line: bytes) -> tuple[str, str | None, str | None]:
    """The store scan's verdict on one line, in the oracle's terms."""
    index: dict[str, tuple[int, int]] = {}
    kinds: dict[str, str] = {}
    counts = _scan(line + b"\n", len(line) + 1, index, kinds)
    if index:
        ((fingerprint, kind),) = kinds.items()
        assert index[fingerprint] == (0, len(line))
        return "ok", fingerprint, kind
    (status,) = [name for name in ("corrupt", "stale") if counts[f"store.{name}_records"]]
    return status, None, None


@settings(max_examples=400, deadline=None)
@given(_LINES.filter(lambda line: line and b"\n" not in line))
def test_each_line_gets_the_parsers_verdict(line):
    assert _scanned_line(line) == classify_line(line)


@settings(max_examples=200, deadline=None)
@given(_written(fingerprints=_HEX, kinds=st.sampled_from(["task", "experiment"])))
def test_a_line_this_program_writes_takes_no_fallback(line):
    index: dict[str, tuple[int, int]] = {}
    counts = _scan(line + b"\n", len(line) + 1, index, {})
    assert len(index) == 1 and counts["store.scan_fallbacks"] == 0


def test_a_duplicated_key_is_read_as_the_parser_reads_it():
    """A slicer would take fingerprint ``a``; ``json.loads`` takes ``b``."""
    line = encode_record("a", "x")[:-1]
    line = line[:1] + b'"fp":"a","kind":"t",' + line[1:].replace(b'"fp":"a"', b'"fp":"b"')
    assert classify_line(line)[:2] == ("ok", "b")
    assert _scanned_line(line) == classify_line(line)


def test_a_record_broken_by_a_newline_is_two_corrupt_lines():
    """The skeleton and the digest still span both halves, but a line
    ends at its newline: neither half is a record."""
    line = encode_record("ab", "x")
    broken = line[:8] + b"\n" + line[8:]
    assert scan_oracle(broken).counts == {"store.corrupt_records": 2}
    index: dict[str, tuple[int, int]] = {}
    counts = _scan(broken, len(broken), index, {})
    assert counts["store.corrupt_records"] == 2 and index == {}


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(st.one_of(_LINES, st.just(b"")), max_size=12),
    tail=st.binary(max_size=30),
    cut=st.floats(0, 1),
)
def test_a_log_opens_to_the_oracles_index(lines, tail, cut):
    """Written in two appends cut anywhere (the first open may see a
    dangling half line), then refreshed: the oracle's index, kinds and
    hygiene counters.  ``tail`` is an unterminated fragment.  Compaction
    then keeps the oracle's first record per fingerprint, judging the
    fragment as one more line."""
    data = b"".join(line + b"\n" for line in lines) + tail.replace(b"\n", b"")
    oracle = scan_oracle(data)
    split = int(cut * len(data))
    with tempfile.TemporaryDirectory() as root:
        log = Path(root) / "records.jsonl"
        log.write_bytes(data[:split])
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            with open(log, "ab") as handle:
                handle.write(data[split:])
            store.refresh()
            assert store._index == oracle.index
            assert store._kinds == oracle.kinds
            assert len(store) == len(oracle.index)
            assert store._watermark == oracle.consumed
        assert {name: metrics.counter_value(name) for name in _HYGIENE} == {
            name: oracle.counts[name] for name in _HYGIENE
        }
        terminated = data if data.endswith(b"\n") else data + b"\n"
        kept = sorted(scan_oracle(terminated).index.values())
        with CampaignStore(root) as store:
            store.compact()
        assert log.read_bytes() == b"".join(terminated[o : o + n + 1] for o, n in kept)
