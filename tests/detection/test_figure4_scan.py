"""The common-suffix scan against the suffix-index oracle.

Stage 1 of Figure 4 used to index every suffix of every monitor path
per inspected change (``figure4_oracle.py``); the detector now walks
one common suffix per monitor over a per-view decomposition memo.  The
two must agree alarm for alarm — order and evidence text included — on
views far messier than the simulator produces: intermediary
prepending, routes sitting directly on the victim's edge (the empty
segment), withdrawn monitors, routes to a foreign origin, empty paths,
and the changed monitor itself in the view.  On the same views the
one-pass predicate ``raises_alarm`` must say exactly whether the
confidence-filtered ``inspect_change`` is non-empty.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.collectors import MonitorView
from repro.bgp.route import DEFAULT_PREFIX, Route
from repro.detection.alarms import Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import PrefClass

from tests.detection.figure4_oracle import IndexedStage1Detector

ORIGIN = 1
FOREIGN_ORIGIN = 2
#: A small transit alphabet, so distinct monitors keep sharing suffixes.
TRANSIT = st.integers(10, 13)
#: Half the monitors are transit ASes themselves: only a monitor that
#: sits on the changed route's last hop can vouch for the empty segment.
MONITORS = st.one_of(TRANSIT, st.integers(10, 40))


def _route(path: tuple[int, ...]) -> Route:
    return Route(DEFAULT_PREFIX, path, path[0] if path else None, PrefClass.PROVIDER)


@st.composite
def paths(draw, origin: int = ORIGIN) -> tuple[int, ...]:
    """``[a^i ... b^j origin^λ]``: runs of 1-3 over the transit alphabet
    (possibly none: the monitor neighbours the origin), then the padded
    origin."""
    hops = draw(st.lists(st.tuples(TRANSIT, st.integers(1, 3)), max_size=4))
    head = tuple(asn for asn, run in hops for _ in range(run))
    return head + (origin,) * draw(st.integers(1, 4))


monitor_routes = st.one_of(
    st.none(),  # withdrawn
    st.just(_route(())),  # the owner's own (empty) path
    paths(FOREIGN_ORIGIN).map(_route),
    paths().map(_route),
    paths().map(_route),
    paths().map(_route),
)

views = st.dictionaries(MONITORS, monitor_routes, min_size=1, max_size=12).map(
    lambda routes: MonitorView(DEFAULT_PREFIX, routes)
)


def _graph() -> ASGraph:
    """Relationships over the alphabet, so stage 2 has hints to raise
    when stage 1 stays silent."""
    graph = ASGraph()
    for asn in range(10, 41):
        graph.add_as(asn)
    for asn in range(10, 16):
        graph.add_p2c(asn, asn + 1)
        graph.add_p2p(asn, asn + 10)
    return graph


@settings(max_examples=300, deadline=None)
@given(view=views, extra_padding=st.integers(1, 3))
def test_scan_matches_suffix_index(view, extra_padding):
    graph = _graph()
    scan = ASPPInterceptionDetector(graph)
    oracle = IndexedStage1Detector(graph)
    for monitor, current in view.routes.items():
        if current is None or not current.path:
            continue
        # The change the detector hunts: same route, padding dropped.
        previous = _route(current.path + (current.path[-1],) * extra_padding)
        expected = oracle.inspect_change(monitor, previous, current, view)
        assert scan.inspect_change(monitor, previous, current, view) == expected
        # A second pass answers from the view's memo.
        assert scan.inspect_change(monitor, previous, current, view) == expected


@settings(max_examples=100, deadline=None)
@given(first=views, second=views)
def test_view_memo_follows_route_changes(first, second):
    """A live view replaces routes under the detector: the memo, keyed
    by monitor, must never answer for a path the monitor dropped."""
    graph = _graph()
    scan = ASPPInterceptionDetector(graph)
    oracle = IndexedStage1Detector(graph)
    routes = dict(first.routes)
    live = MonitorView(DEFAULT_PREFIX, routes)
    for stage in (first, second):
        routes.update(stage.routes)
        for monitor, current in list(routes.items()):
            if current is None or not current.path:
                continue
            previous = _route(current.path + (current.path[-1],))
            frozen = MonitorView(DEFAULT_PREFIX, dict(routes))
            assert scan.inspect_change(
                monitor, previous, current, live
            ) == oracle.inspect_change(monitor, previous, current, frozen)
    assert set(live.decomposed) <= set(routes)


def _alarms(detector, monitor, previous, current, view, min_confidence):
    """``inspect_change``'s alarms as ``detection_timing`` filters them."""
    return [
        alarm
        for alarm in detector.inspect_change(monitor, previous, current, view)
        if not (alarm.confidence is Confidence.LOW and min_confidence is Confidence.HIGH)
    ]


@settings(max_examples=300, deadline=None)
@given(
    view=views,
    extra_padding=st.integers(1, 3),
    min_confidence=st.sampled_from(Confidence),
    data=st.data(),
)
def test_raises_alarm_decides_inspect_change(view, extra_padding, min_confidence, data):
    """The predicate is "the filtered ``inspect_change`` is non-empty",
    on a fresh view and on one whose memo either call filled first —
    for the change the detector hunts and for any other change."""
    detector = ASPPInterceptionDetector(_graph())
    for monitor, current in view.routes.items():
        changes = [(data.draw(monitor_routes), current)]
        if current is not None and current.path:
            changes.append((_route(current.path + (current.path[-1],) * extra_padding), current))
        for previous, now in changes:
            fresh = MonitorView(DEFAULT_PREFIX, dict(view.routes))
            decided = detector.raises_alarm(
                monitor, previous, now, fresh, min_confidence=min_confidence
            )
            expected = bool(_alarms(detector, monitor, previous, now, view, min_confidence))
            assert decided == expected
            assert bool(_alarms(detector, monitor, previous, now, fresh, min_confidence)) == decided
            assert detector.raises_alarm(
                monitor, previous, now, view, min_confidence=min_confidence
            ) == decided


@settings(max_examples=100, deadline=None)
@given(first=views, second=views, min_confidence=st.sampled_from(Confidence))
def test_raises_alarm_follows_live_view_changes(first, second, min_confidence):
    """On a live view whose routes change under the detector, the
    predicate answers for the current paths, never a memoised one."""
    detector = ASPPInterceptionDetector(_graph())
    oracle = IndexedStage1Detector(_graph())
    routes = dict(first.routes)
    live = MonitorView(DEFAULT_PREFIX, routes)
    for stage in (first, second):
        routes.update(stage.routes)
        for monitor, current in list(routes.items()):
            if current is None or not current.path:
                continue
            previous = _route(current.path + (current.path[-1],))
            frozen = MonitorView(DEFAULT_PREFIX, dict(routes))
            assert detector.raises_alarm(
                monitor, previous, current, live, min_confidence=min_confidence
            ) == bool(_alarms(oracle, monitor, previous, current, frozen, min_confidence))
    assert set(live.decomposed) <= set(routes)
