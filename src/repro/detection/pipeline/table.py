"""The prefix-indexed routing table behind the streaming pipeline.

Design (the tentpole's hot-path contract):

* routes live in **flat per-prefix slot arrays** indexed by a dense
  monitor-slot id, not per-update dicts of :class:`Route` objects — a
  slot holds the AS-path as an id interned through
  :class:`repro.bgp.compiled.InternTable`, so duplicate suppression is
  an integer compare and a withdraw/re-announce flap re-uses the
  interned chain instead of re-hashing tuples;
* the Figure-4 inspection reads a **live view**
  (:class:`LiveMonitorView`) backed directly by the slot arrays — the
  ``dict(...)`` snapshot the legacy
  :meth:`~repro.detection.streaming.StreamingDetector.consume` builds
  per update (O(monitors) allocations) disappears entirely;
* the padding precheck that decides whether an update needs the full
  Figure-4 scan runs on **memoised per-pid origin/padding facts** —
  O(1) amortised per update, zero tuple traversals on the quiet path.

Sentinels in the pid slot arrays: ``_ABSENT`` (monitor never reported
this prefix — not in the view), ``_WITHDRAWN`` (monitor reported a
withdrawal — in the view with route ``None``); ids >= 0 are interned
paths (0 is the empty path).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from itertools import pairwise
from time import perf_counter

from repro.bgp.collectors import MonitorView
from repro.bgp.compiled import CompiledTopology, InternTable
from repro.bgp.route import Route
from repro.bgp.updates import UpdateMessage
from repro.detection.alarms import Alarm
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.streaming import _DEFAULT_PREF
from repro.telemetry.metrics import RunMetrics
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import PrefClass

from repro.detection.pipeline.radix import PrefixTrie

__all__ = ["RadixRoutingTable", "LiveMonitorView", "PipelineDetector"]

_ABSENT = -2
_WITHDRAWN = -1


class _PrefixEntry:
    """Per-prefix routing state: flat slot arrays + class memory."""

    __slots__ = ("prefix", "pids", "prefs", "classes", "present", "route_cache", "view")

    def __init__(self, prefix: str, table: "RadixRoutingTable") -> None:
        self.prefix = prefix
        #: per-slot interned path id (sentinels above)
        self.pids: list[int] = []
        #: per-slot preference class (None while the slot holds no route)
        self.prefs: list[PrefClass | None] = []
        #: monitor -> neighbour -> last class observed (the PR 2
        #: per-(prefix, monitor, neighbour) memory: survives flaps)
        self.classes: dict[int, dict[int, PrefClass]] = {}
        #: monitors that appear in the view (withdrawn ones included)
        self.present: set[int] = set()
        #: (monitor, pid, pref) -> reified Route — stable because a
        #: neighbour's remembered class never changes once recorded
        self.route_cache: dict[tuple[int, int, PrefClass], Route] = {}
        self.view = LiveMonitorView(prefix, _LiveRoutes(self, table))


class _LiveRoutes(Mapping):
    """Read-only monitor -> Route mapping over one entry's slot arrays.

    Routes are materialised lazily (and memoised per interned path id),
    so iterating the view costs object construction only the first time
    a (monitor, path) pair is actually *read* — which happens during
    Figure-4 inspection, never on the per-update hot path.
    """

    __slots__ = ("_entry", "_table")

    def __init__(self, entry: _PrefixEntry, table: "RadixRoutingTable") -> None:
        self._entry = entry
        self._table = table

    def __getitem__(self, monitor: int) -> Route | None:
        entry = self._entry
        if monitor not in entry.present:
            raise KeyError(monitor)
        slot = self._table.monitor_slots[monitor]
        pid = entry.pids[slot]
        if pid == _WITHDRAWN:
            return None
        return self._table.route_for(entry, monitor, pid, entry.prefs[slot])

    def __iter__(self) -> Iterator[int]:
        return iter(self._entry.present)

    def __len__(self) -> int:
        return len(self._entry.present)


class LiveMonitorView:
    """Duck-type of :class:`~repro.bgp.collectors.MonitorView` whose
    ``routes`` mapping reads the slot arrays in place (zero copies).
    ``ASPPInterceptionDetector.inspect_change`` accepts either."""

    __slots__ = ("prefix", "routes", "decomposed")

    def __init__(self, prefix: str, routes: _LiveRoutes) -> None:
        self.prefix = prefix
        self.routes = routes
        #: the Figure-4 scan's per-monitor memo (``MonitorView.decomposed``)
        self.decomposed: dict[int, tuple] = {}

    def snapshot(self) -> MonitorView:
        """A frozen :class:`MonitorView` copy (tests / reporting)."""
        return MonitorView(prefix=self.prefix, routes=dict(self.routes.items()))


class RadixRoutingTable:
    """All per-prefix routing state, indexed by a radix trie.

    The trie is the authoritative index (it serves
    :meth:`longest_match`); ``_exact`` memoises prefix-string ->
    entry so the per-update exact lookup is one dict probe instead of a
    32-bit trie walk.
    """

    __slots__ = ("intern", "trie", "_exact", "monitor_slots", "_origin_pad")

    def __init__(self, intern: InternTable) -> None:
        self.intern = intern
        self.trie = PrefixTrie()
        self._exact: dict[str, _PrefixEntry] = {}
        #: monitor ASN -> dense slot id (shared across prefixes)
        self.monitor_slots: dict[int, int] = {}
        #: pid -> (origin asn, origin padding); None for the empty path
        self._origin_pad: dict[int, tuple[int, int] | None] = {0: None}

    # -- entries --------------------------------------------------------
    def entry(self, prefix: str) -> _PrefixEntry:
        """The entry for ``prefix``, created (and trie-indexed) on
        first sight."""
        found = self._exact.get(prefix)
        if found is None:
            found = _PrefixEntry(prefix, self)
            self.trie.set(prefix, found)
            # Key the memo by the *canonical* string too, but insist the
            # caller's spelling is already canonical: parse_prefix inside
            # trie.set has validated it, so prefix is its own canon.
            self._exact[prefix] = found
        return found

    def get_entry(self, prefix: str) -> _PrefixEntry | None:
        return self._exact.get(prefix)

    def longest_match(self, prefix: str) -> tuple[str, LiveMonitorView] | None:
        """Most specific tracked prefix covering ``prefix`` and its
        live view — the lookup sub-prefix/MOAS scenarios resolve
        against."""
        hit = self.trie.longest_match(prefix)
        if hit is None:
            return None
        stored, entry = hit
        return stored, entry.view  # type: ignore[union-attr]

    def prefixes(self) -> list[str]:
        return [prefix for prefix, _ in self.trie.items()]

    # -- slots ----------------------------------------------------------
    def slot_of(self, monitor: int) -> int:
        slot = self.monitor_slots.get(monitor)
        if slot is None:
            slot = len(self.monitor_slots)
            self.monitor_slots[monitor] = slot
        return slot

    @staticmethod
    def _ensure_slot(entry: _PrefixEntry, slot: int) -> None:
        pids = entry.pids
        if slot >= len(pids):
            grow = slot + 1 - len(pids)
            pids.extend([_ABSENT] * grow)
            entry.prefs.extend([None] * grow)

    # -- interned path facts --------------------------------------------
    def origin_pad(self, pid: int) -> tuple[int, int] | None:
        """``(origin, λ)`` of an interned path, memoised per pid.

        λ follows :func:`repro.bgp.aspath.padding_of_origin`: the length
        of the origin's trailing run (1 = no prepending).  The interned
        chain stores the trailing run as its bottom node, so one walk
        down the parent pointers answers both questions; every later
        update carrying the same pid is a dict hit.
        """
        memo = self._origin_pad
        found = memo.get(pid)
        if found is None and pid not in memo:
            intern = self.intern
            node = pid
            parent = intern.parent[node]
            while parent != 0:
                node = parent
                parent = intern.parent[node]
            found = (intern.asn_of(intern.head[node]), intern.run[node])
            memo[pid] = found
        return found

    def route_for(
        self, entry: _PrefixEntry, monitor: int, pid: int, pref: PrefClass
    ) -> Route:
        """The reified :class:`Route` for a slot (memoised)."""
        key = (monitor, pid, pref)
        route = entry.route_cache.get(key)
        if route is None:
            path = self.intern.reify(pid)
            route = Route(entry.prefix, path, path[0] if path else None, pref)
            entry.route_cache[key] = route
        return route


class PipelineDetector:
    """The Figure-4 streaming detector over a :class:`RadixRoutingTable`.

    Semantically identical to
    :class:`~repro.detection.streaming.StreamingDetector` (the
    equivalence suites pin alarms bit for bit); structurally rebuilt so
    the per-update cost is O(1) amortised:

    * duplicate suppression compares interned path ids and remembered
      classes — no Route construction, no tuple equality;
    * the padding precheck (origin unchanged? λ decreased?) reads
      per-pid memos — the full Figure-4 scan runs only for updates
      that can actually raise an alarm;
    * the scan, when it runs, reads the live view — no snapshot copy.

    ``metrics`` records ``detection.pipeline.*`` counters and the
    per-update latency histogram, folded into the registry once per
    batch (an update's latency runs from its clock read to the next
    update's; the registry switch is read once per batch).  Updates
    towards ``detection.updates_to_first_alarm`` are counted
    unconditionally (the registry may be attached between batches);
    only the ``observe()`` is gated on an enabled registry.
    """

    def __init__(
        self,
        detector: ASPPInterceptionDetector,
        graph: ASGraph | None = None,
        *,
        intern: InternTable | None = None,
        metrics: RunMetrics | None = None,
    ) -> None:
        if intern is None:
            if graph is None:
                raise TypeError("PipelineDetector needs a graph or an InternTable")
            intern = InternTable(CompiledTopology.of(graph))
        self._detector = detector
        self.table = RadixRoutingTable(intern)
        self.metrics = metrics
        self._updates_seen = 0
        self._first_alarm_recorded = False
        #: prefix -> updates seen when its first alarm fired.  Measured
        #: at the detector (post-merge), so for lossless ingestion the
        #: value is identical across feed counts, batch sizes and
        #: backpressure policies — the deterministic time-to-detect
        #: signal the mitigation controller consumes.
        self.first_alarm_at: dict[str, int] = {}

    # -- priming --------------------------------------------------------
    def prime(self, view: MonitorView) -> None:
        """Install a baseline snapshot (no alarms are raised)."""
        table = self.table
        entry = table.entry(view.prefix)
        intern = table.intern
        for monitor, route in view.routes.items():
            slot = table.slot_of(monitor)
            table._ensure_slot(entry, slot)
            entry.present.add(monitor)
            if route is None:
                entry.pids[slot] = _WITHDRAWN
                entry.prefs[slot] = None
                continue
            entry.pids[slot] = intern.intern_tuple(route.path)
            entry.prefs[slot] = route.pref
            if route.learned_from is not None:
                entry.classes.setdefault(monitor, {})[route.learned_from] = route.pref

    # -- views ----------------------------------------------------------
    def live_view(self, prefix: str) -> LiveMonitorView:
        return self.table.entry(prefix).view

    def current_view(self, prefix: str) -> MonitorView:
        """A frozen snapshot copy (API-compatible with the legacy
        detector; not used on the hot path)."""
        entry = self.table.get_entry(prefix)
        if entry is None:
            return MonitorView(prefix=prefix, routes={})
        return entry.view.snapshot()

    # -- consumption ----------------------------------------------------
    def consume(self, message: UpdateMessage) -> list[Alarm]:
        """Apply one update and return any alarms it triggers."""
        return self.consume_batch((message,))

    def consume_batch(self, messages: Sequence[UpdateMessage]) -> list[Alarm]:
        """Apply a batch of updates in order; returns their alarms.

        One batch shares the prefix-entry lookup across consecutive
        same-prefix messages and hoists every table attribute out of
        the loop — the amortisation the bounded-queue pipeline's drain
        path relies on.
        """
        metrics = self.metrics
        track = metrics is not None and metrics.enabled
        table = self.table
        intern_tuple = table.intern.intern_tuple
        origin_pad = table.origin_pad
        origin_pad_memo = table._origin_pad
        monitor_slots = table.monitor_slots
        detector = self._detector
        alarms: list[Alarm] = []
        entry: _PrefixEntry | None = None
        entry_prefix: str | None = None
        pids: list[int] = []
        prefs: list[PrefClass | None] = []
        entry_classes: dict[int, dict[int, PrefClass]] = {}
        updates_seen = self._updates_seen
        changes = 0
        # clock reads: one per update plus the batch's end — an update's
        # latency runs from its own read to the next one
        stamps: list[float] = []
        for message in messages:
            updates_seen += 1
            if track:
                stamps.append(perf_counter())
            prefix = message.prefix
            if prefix != entry_prefix:
                entry = table._exact.get(prefix)
                if entry is None:
                    entry = table.entry(prefix)
                entry_prefix = prefix
                pids = entry.pids
                prefs = entry.prefs
                entry_classes = entry.classes
            monitor = message.monitor
            slot = monitor_slots.get(monitor)
            if slot is None:
                slot = table.slot_of(monitor)
            if slot >= len(pids):
                table._ensure_slot(entry, slot)
            old_pid = pids[slot]
            old_pref = prefs[slot]
            if message.withdrawn:
                if old_pid < 0:
                    # Route already None (or monitor absent): the legacy
                    # detector suppresses this as a duplicate without
                    # installing the monitor either.
                    continue
                pids[slot] = _WITHDRAWN
                prefs[slot] = None
                # A withdrawal is never an ASPP symptom (current route
                # is None): state changes, no inspection.
                changes += 1
                continue
            path = message.path
            new_pid = intern_tuple(path)
            if path:
                learned = path[0]
                classes = entry_classes.get(monitor)
                if classes is None:
                    classes = entry_classes[monitor] = {}
                pref = classes.get(learned)
                if pref is None:
                    pref = classes[learned] = _DEFAULT_PREF
            else:
                pref = _DEFAULT_PREF
            if new_pid == old_pid and pref is old_pref:
                continue
            changes += 1
            pids[slot] = new_pid
            prefs[slot] = pref
            entry.present.add(monitor)
            # Precheck on interned facts: the full Figure-4 scan only
            # runs when previous and current routes exist, are
            # non-empty, share an origin, and λ strictly decreased —
            # exactly the early exits of ``inspect_change``.  The memo
            # dict is probed inline (for pid > 0 the value is never
            # None, so a miss falls through to the chain walk).
            inspect = False
            if old_pid > 0 and new_pid > 0:
                before = origin_pad_memo.get(old_pid) or origin_pad(old_pid)
                now = origin_pad_memo.get(new_pid) or origin_pad(new_pid)
                inspect = before[0] == now[0] and now[1] < before[1]
            if inspect:
                previous = table.route_for(entry, monitor, old_pid, old_pref)
                current = table.route_for(entry, monitor, new_pid, pref)
                raised = detector.inspect_change(monitor, previous, current, entry.view)
                if raised:
                    alarms.extend(raised)
                    if prefix not in self.first_alarm_at:
                        self.first_alarm_at[prefix] = updates_seen
                    if not self._first_alarm_recorded:
                        self._first_alarm_recorded = True
                        if track:
                            metrics.observe(
                                "detection.updates_to_first_alarm",
                                updates_seen,
                            )
        self._updates_seen = updates_seen
        if track:
            stamps.append(perf_counter())
            # One fold per batch; a counter appears only once it is
            # non-zero, as when each update counted itself.
            if messages:
                metrics.count("detection.pipeline.updates", len(messages))
            if changes:
                metrics.count("detection.pipeline.changes", changes)
            if alarms:
                metrics.count("detection.pipeline.alarms", len(alarms))
            metrics.observe_many(
                "detection.pipeline.update_latency_us",
                [(end - start) * 1e6 for start, end in pairwise(stamps)],
            )
            metrics.count("detection.pipeline.batches")
            metrics.observe("detection.pipeline.batch_size", len(messages))
        return alarms
