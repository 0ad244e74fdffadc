"""Content-addressed campaign result store.

Every runner task is a pure function of its frozen descriptor, and
:func:`~repro.runner.fingerprint.task_fingerprint` already gives each
descriptor a stable sha256 identity.  :class:`CampaignStore` turns that
identity into an address: one append-only JSONL record log per store,
one record per fingerprint, so a grid cell converged by *any* campaign,
sweep or figure is never recomputed by a later one.  A store is a
directory holding that log, ``records.jsonl``.

Durability model
----------------
Records are appended with a single ``write(2)`` on an ``O_APPEND``
descriptor, so concurrent writer *processes* interleave whole records,
never bytes (the payload digest in each record catches torn writes on
filesystems that do not serialise large appends).  The in-memory index
is rebuilt by scanning the log on open and extended incrementally by
:meth:`CampaignStore.refresh`, which picks up records appended by other
processes since the last scan.  The scan reads the bytes it wrote: a
line of the one shape :func:`encode_record` produces (sorted keys,
compact separators, printable ASCII fields with no ``"`` or ``\\``, the
current version) is sliced on its fixed delimiters, and its payload
digest is still checked.  Any other line goes through ``json.loads``
and is counted in ``store.scan_fallbacks``; a log this program wrote
has none.  Both routes give the same verdict, fingerprint and kind for
every line.  A crash mid-append leaves at most one unterminated line;
the next writer terminates it (the fragment then parses as one garbled
record and is skipped) so the log never cascades corruption, and an
empty line left by that fence is not a record.

Records carry a schema version, and a record at any version but
:data:`SCHEMA_VERSION` is stale: counted, skipped record-by-record
(its cell is recomputed and appended at the current version), never
replayed.  :meth:`compact` rewrites the log to one valid record per
fingerprint (first record wins — payloads for the same fingerprint are
identical by purity), dropping stale lines with corrupt ones.
Compaction rewrites into a temp file and ``os.replace``-s it into
place, so readers never observe a half-written log; run it quiescent
(no concurrent appenders), like any log rotation.

Payloads are pickles (base64-armoured inside the JSON record) — a
store is a private artefact of the machines that share it; do not load
stores from untrusted sources.

Telemetry lands on the attached registry under ``store.*``:
``store.{hits,misses,puts,bytes,dedup_writes,compactions}`` plus
hygiene counters for corrupt/stale/duplicate records seen while
scanning, and ``store.scan_fallbacks`` for lines the scan had to parse.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import re
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Iterator

from repro.exceptions import SimulationError
from repro.telemetry.metrics import RunMetrics

__all__ = [
    "MISSING",
    "SCHEMA_VERSION",
    "CampaignStore",
    "decode_record",
    "encode_record",
    "get_active_store",
    "use_store",
]

#: bump when a record's layout or a task's result type changes; a
#: record at any other version is stale and its cell is recomputed.
SCHEMA_VERSION = 2

_LOG_NAME = "records.jsonl"

#: index placeholder for a fingerprint we appended (or deduped against)
#: but whose byte range has not been located by a scan yet; :func:`_scan`
#: recognises it by identity.
_PENDING = (-1, -1)


class _Missing:
    """Canonical miss sentinel (``None`` is a valid stored payload)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<MISSING>"


MISSING = _Missing()


def _encode_payload(result: Any) -> str:
    raw = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(raw).decode("ascii")


def _decode_payload(payload: str) -> Any:
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def encode_record(fingerprint: str, result: Any, *, kind: str = "task") -> bytes:
    """One newline-terminated record line for ``fingerprint``.

    ``sha`` digests the armoured payload so a torn append (or bit rot)
    is detected on read instead of deserialising garbage.
    """
    payload = _encode_payload(result)
    record = {
        "v": SCHEMA_VERSION,
        "fp": fingerprint,
        "kind": kind,
        "schema": f"{type(result).__module__}.{type(result).__qualname__}",
        "payload": payload,
        "sha": _digest(payload),
    }
    return (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _parse_record(line: bytes) -> dict[str, Any] | str:
    """The usable record on ``line``, or why there is none: ``"stale"``
    (a whole record this reader has no use for) or ``"corrupt"``."""
    try:
        record = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return "corrupt"
    if not isinstance(record, dict):
        return "corrupt"
    if record.get("v") != SCHEMA_VERSION:
        return "stale"
    fingerprint = record.get("fp")
    payload = record.get("payload")
    if (
        not isinstance(fingerprint, str)
        or not isinstance(payload, str)
        or not payload.isascii()  # base64 armour is ASCII: this is damage
        or record.get("sha") != _digest(payload)
    ):
        return "corrupt"
    return record


#: one field of an :func:`encode_record` line as ``json.loads`` reads it
#: verbatim: printable ASCII (DEL included) but ``"`` and ``\``.
_FIELD = rb'[ !#-\[\]-\x7f]*'

#: one log line: the shape :func:`encode_record` writes at
#: :data:`SCHEMA_VERSION` (groups 1-4), or any other line whole (group
#: 5).  The shape's 22 quotes are all in its skeleton, so ``json.loads``
#: would read such a line as exactly these fields; :func:`_scan` slices
#: them instead.
_RECORD_LINE = re.compile(
    rb'(?:\{"fp":"(%s)","kind":"(%s)","payload":"(%s)","schema":"%s","sha":"(%s)",'
    rb'"v":%d\}|([^\n]*))\n' % (_FIELD, _FIELD, _FIELD, _FIELD, _FIELD, SCHEMA_VERSION)
)


def _scan(
    data: bytes,
    end: int,
    index: dict[str, tuple[int, int]],
    kinds: dict[str, str],
    base: int = 0,
) -> dict[str, int]:
    """Index the lines of ``data[:end]`` (``end`` is just past a newline).

    Each usable record enters ``index`` as ``(base + offset, length)``
    and ``kinds`` unless its fingerprint is there already (first record
    wins; a :data:`_PENDING` entry is filled in).  A line of
    :data:`_RECORD_LINE`'s shape is checked by its digest alone; any
    other line but an empty one goes through :func:`_parse_record` and
    counts as a ``store.scan_fallbacks``.  Returns those counts and the
    ``store.{corrupt,stale,duplicate}_records`` ones.
    """
    counts = dict.fromkeys(
        (
            "store.corrupt_records",
            "store.stale_records",
            "store.duplicate_records",
            "store.scan_fallbacks",
        ),
        0,
    )
    sha256 = hashlib.sha256
    for match in _RECORD_LINE.finditer(data, 0, end):
        fingerprint, kind, payload, sha, other = match.groups()
        start, stop = match.span()
        if other is None:
            if sha256(payload).hexdigest().encode() != sha:
                counts["store.corrupt_records"] += 1
                continue
            fingerprint, kind = fingerprint.decode(), kind.decode()
        elif not other:  # an empty line, left by a crash fence
            continue
        else:
            counts["store.scan_fallbacks"] += 1
            record = _parse_record(other)
            if isinstance(record, str):
                counts[f"store.{record}_records"] += 1
                continue
            fingerprint, kind = record["fp"], str(record.get("kind", "task"))
        if index.get(fingerprint, _PENDING) is not _PENDING:
            # Two processes raced the same cell; purity makes the
            # payloads identical, so the first record stays law.
            counts["store.duplicate_records"] += 1
            continue
        index[fingerprint] = (base + start, stop - 1 - start)
        kinds[fingerprint] = kind
    return counts


def decode_record(line: bytes) -> dict[str, Any] | None:
    """Parse and verify one record line; ``None`` for anything unusable.

    Unusable covers truncated JSON, non-record JSON, records at any
    version but :data:`SCHEMA_VERSION` (a line with no ``"v"`` included),
    and payloads whose digest does not match (torn write) — callers
    count, skip, and keep scanning.
    """
    record = _parse_record(line)
    return record if isinstance(record, dict) else None


_ACTIVE_STORE: ContextVar[Any] = ContextVar("repro_active_store", default=None)


def get_active_store() -> Any:
    """The store bound by the innermost :func:`use_store`, if any."""
    return _ACTIVE_STORE.get()


@contextmanager
def use_store(store: Any) -> Iterator[Any]:
    """Bind ``store`` as the ambient campaign store for the block:
    figure modules know nothing about storage, so the query layer binds
    its store for the duration of a figure and every batch whose
    ``RunConfig.store`` is ``None`` picks it up.

    The binding is a :class:`contextvars.ContextVar`: safe under
    threads, never leaking across unrelated runs.  ``None`` explicitly
    unbinds (fencing a sub-computation off from an outer binding).
    Leaving the block restores the previous binding and closes nothing
    — the store's lifetime stays with the caller.
    """
    token = _ACTIVE_STORE.set(store)
    try:
        yield store
    finally:
        _ACTIVE_STORE.reset(token)


class CampaignStore:
    """Append-only content-addressed result store in a directory.

    The record log is ``path/records.jsonl``.  Opening creates nothing;
    the first record creates the log and its parents.
    Safe for concurrent use by threads of one process (internal lock)
    and by multiple writer processes (atomic ``O_APPEND`` record
    appends; see the module docstring).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        metrics: RunMetrics | None = None,
    ) -> None:
        self.path = Path(path) / _LOG_NAME
        #: registry ``store.*`` telemetry lands on (attach/detach freely).
        self.metrics = metrics
        self._lock = threading.RLock()
        #: fingerprint -> (offset, length) of its first valid record.
        self._index: dict[str, tuple[int, int]] = {}
        self._kinds: dict[str, str] = {}
        #: bytes of the log consumed as complete lines so far.
        self._watermark = 0
        #: a scan saw unterminated bytes at EOF (crashed append); the
        #: next append writes a leading newline to fence them off.
        self._dangling = False
        self._append_fd: int | None = None
        self._read_fd: int | None = None
        self._closed = False
        try:
            self.refresh()
        except OSError as exc:
            # something that is not a directory is in the log's way, or
            # the log is there and cannot be read
            self._drop_fds()
            raise SimulationError(f"no result store can be opened at {path}: {exc}") from exc

    # -- telemetry ------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        registry = self.metrics
        if registry is not None and n:
            registry.count(name, n)

    # -- file descriptors ----------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise SimulationError("CampaignStore is closed; open a new store")

    def _ensure_read_fd(self) -> int | None:
        if self._read_fd is None:
            try:
                self._read_fd = os.open(self.path, os.O_RDONLY)
            except FileNotFoundError:
                return None
        return self._read_fd

    def _ensure_append_fd(self) -> int:
        if self._append_fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._append_fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
        return self._append_fd

    def _drop_fds(self) -> None:
        for fd in (self._append_fd, self._read_fd):
            if fd is not None:
                os.close(fd)
        self._append_fd = None
        self._read_fd = None

    # -- scanning -------------------------------------------------------
    def refresh(self) -> int:
        """Scan log bytes appended since the last scan; return new records.

        This is how one store instance observes records written by
        other processes (or its own appends, whose offsets are only
        known once scanned).
        """
        with self._lock:
            self._check_open()
            fd = self._ensure_read_fd()
            if fd is None:
                return 0
            size = os.fstat(fd).st_size
            if size <= self._watermark:
                return 0
            data = os.pread(fd, size - self._watermark, self._watermark)
            end = data.rfind(b"\n") + 1
            known = len(self._index)
            counts = _scan(data, end, self._index, self._kinds, self._watermark)
            for name, n in counts.items():
                self._count(name, n)
            self._watermark += end
            self._dangling = end < len(data)
            return len(self._index) - known

    # -- reading --------------------------------------------------------
    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._index:
                return True
            self.refresh()
            return fingerprint in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def get(self, fingerprint: str, default: Any = MISSING) -> Any:
        """The stored result for ``fingerprint``, or ``default``.

        Counts ``store.hits`` / ``store.misses``; a miss re-scans the
        log first so records landed by concurrent writers are served.
        """
        with self._lock:
            self._check_open()
            entry = self._index.get(fingerprint)
            if entry is None or entry == _PENDING:
                self.refresh()
                entry = self._index.get(fingerprint)
            if entry is None or entry == _PENDING:
                self._count("store.misses")
                return default
            offset, length = entry
            fd = self._ensure_read_fd()
            assert fd is not None
            record = decode_record(os.pread(fd, length, offset))
            if record is None:
                # Only possible if the log was rewritten underneath us.
                raise SimulationError(
                    f"store index out of sync with {self.path} at offset {offset}; "
                    "reopen the store"
                )
            self._count("store.hits")
            return _decode_payload(record["payload"])

    # -- writing --------------------------------------------------------
    def put(self, fingerprint: str, result: Any, *, kind: str = "task") -> bool:
        """Append one record; ``False`` when the fingerprint is already stored.

        First write wins — content addressing plus task purity make a
        second payload for the same fingerprint identical by
        construction, so dedup skips the append entirely
        (``store.dedup_writes``).
        """
        with self._lock:
            self._check_open()
            if fingerprint in self._index:
                self._count("store.dedup_writes")
                return False
            line = encode_record(fingerprint, result, kind=kind)
            if self._dangling:
                line = b"\n" + line
                self._dangling = False
            os.write(self._ensure_append_fd(), line)
            self._index[fingerprint] = _PENDING
            self._kinds[fingerprint] = kind
            self._count("store.puts")
            self._count("store.bytes", len(line))
            return True

    # -- maintenance ----------------------------------------------------
    def compact(self) -> int:
        """Rewrite the log to one valid record per fingerprint.

        Drops duplicate, corrupt and stale-version lines; returns the
        number of bytes reclaimed.  Requires a quiescent store — no
        concurrent appenders (their racing appends would be lost by the
        rewrite).
        """
        with self._lock:
            self._check_open()
            fd = self._ensure_read_fd()
            if fd is None:
                return 0
            self.refresh()
            size = os.fstat(fd).st_size
            data = os.pread(fd, size, 0)
            if not data.endswith(b"\n"):
                data += b"\n"  # an unterminated tail is judged as a line
            first: dict[str, tuple[int, int]] = {}
            _scan(data, len(data), first, {})
            kept = [data[offset : offset + length + 1] for offset, length in first.values()]
            tmp = self.path.with_name(f"{self.path.name}.compact.{os.getpid()}.tmp")
            out = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(out, b"".join(kept))
                os.fsync(out)
            finally:
                os.close(out)
            os.replace(tmp, self.path)
            self._drop_fds()
            self._index.clear()
            self._kinds.clear()
            self._watermark = 0
            self._dangling = False
            reclaimed = size - sum(len(line) for line in kept)
            self.refresh()
            self._count("store.compactions")
            self._count("store.compacted_bytes", reclaimed)
            return reclaimed

    def stats(self) -> dict[str, Any]:
        """Point-in-time summary (records, bytes on disk, per-kind split)."""
        with self._lock:
            self.refresh()
            kinds: dict[str, int] = {}
            for kind in self._kinds.values():
                kinds[kind] = kinds.get(kind, 0) + 1
            try:
                size = self.path.stat().st_size
            except FileNotFoundError:
                size = 0
            return {
                "path": str(self.path),
                "records": len(self._index),
                "bytes": size,
                "kinds": dict(sorted(kinds.items())),
            }

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._drop_fds()
            self._closed = True

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
