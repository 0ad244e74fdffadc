"""Dedicated tests for the detector's low-confidence hint stage.

The Figure-4 fallback fires when no shared path segment exists but the
inferred relationships say the shorter route *should* have reached the
longer route's holder.  The three branches (customer / peer / provider)
are each pinned here with hand-built topologies; the monitor views are
constructed directly so each test isolates exactly one branch.
"""

from __future__ import annotations

from repro.bgp.collectors import MonitorView
from repro.bgp.route import DEFAULT_PREFIX, Route
from repro.detection.alarms import Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import PrefClass

V = 100  # the victim/origin in every scenario


def route(path) -> Route:
    path = tuple(path)
    return Route(DEFAULT_PREFIX, path, path[0], PrefClass.PROVIDER)


def view(routes: dict[int, Route]) -> MonitorView:
    return MonitorView(prefix=DEFAULT_PREFIX, routes=dict(routes))


def base_graph() -> ASGraph:
    """V multi-homed to A(1) and C(3); M(6) above A; L(7) reaches V
    through its *provider* C.  Monitors: 2 (above M) and 8 (above L)."""
    graph = ASGraph()
    graph.add_p2c(1, V)    # A -> V
    graph.add_p2c(3, V)    # C -> V
    graph.add_p2c(6, 1)    # M above A
    graph.add_p2c(2, 6)    # monitor 2 above M
    graph.add_p2c(3, 7)    # C is L's provider (L holds a provider route)
    graph.add_p2c(8, 7)    # monitor 8 above L
    return graph


def run_change(graph: ASGraph) -> list:
    """Monitor 2's route shortens (M stripped 2 pads); monitor 8 keeps
    the longer padded route via L-C.  No shared segment exists, so any
    alarm comes from the hint stage."""
    detector = ASPPInterceptionDetector(graph)
    previous = route((6, 1, V, V, V))
    current = route((6, 1, V))
    current_view = view(
        {
            2: current,
            8: route((7, 3, V, V, V)),
        }
    )
    return detector.inspect_change(2, previous, current, current_view)


class TestCustomerBranch:
    def test_customer_of_other_holder_triggers_hint(self):
        graph = base_graph()
        # AS_{I-1} = A(1) is a *customer* of AS'_L = L(7): L should have
        # received (and preferred) the short customer route.
        graph.add_p2c(7, 1)
        alarms = run_change(graph)
        assert alarms
        assert all(a.confidence is Confidence.LOW for a in alarms)
        assert alarms[0].suspect == 6
        assert alarms[0].removed_pads == 2
        assert "customer" in alarms[0].evidence

    def test_no_relationship_no_hint(self):
        graph = base_graph()  # L and A unrelated
        assert run_change(graph) == []


class TestPeerBranch:
    def test_peer_with_uphill_route_triggers_hint(self):
        graph = base_graph()
        # A(1) peers with L(7); the short route at A is customer-learned
        # (pure uphill), so A must export it to its peers.
        graph.add_p2p(7, 1)
        alarms = run_change(graph)
        assert alarms
        assert "peers" in alarms[0].evidence

    def test_peer_hop_on_current_route_suppresses_hint(self):
        graph = base_graph()
        graph.add_p2p(7, 1)
        # Make the current route contain a peer hop (M peers with A
        # instead of providing transit): A's route may then not be
        # exportable to peers, so no conclusion can be drawn.
        graph.remove_edge(6, 1)
        graph.add_p2p(6, 1)
        alarms = run_change(graph)
        assert alarms == []


class TestProviderBranch:
    def test_provider_route_holder_triggers_hint(self):
        graph = base_graph()
        # A(1) is a *provider* of L(7), and L's current route is via its
        # other provider C-side chain: providers export everything to
        # customers, so L should have seen the short route.
        graph.add_p2c(1, 7)
        alarms = run_change(graph)
        assert alarms
        assert "provider" in alarms[0].evidence

    def test_non_provider_first_hop_suppresses_hint(self):
        graph = base_graph()
        graph.add_p2c(1, 7)
        # If L's current route is customer-learned instead (3 becomes
        # L's customer), preferring it over a provider route is
        # legitimate: no hint.
        graph.remove_edge(3, 7)
        graph.add_p2c(7, 3)
        alarms = run_change(graph)
        assert alarms == []


class TestGates:
    def test_longer_route_required(self):
        """If the other monitor's route is not longer overall, nothing
        can be concluded."""
        graph = base_graph()
        graph.add_p2c(7, 1)
        detector = ASPPInterceptionDetector(graph)
        previous = route((6, 1, V, V, V))
        current = route((6, 1, V))
        current_view = view(
            {
                2: current,
                8: route((3, V, V)),  # same total length as the short route
            }
        )
        assert detector.inspect_change(2, previous, current, current_view) == []

    def test_padding_not_smaller_required(self):
        graph = base_graph()
        graph.add_p2c(7, 1)
        detector = ASPPInterceptionDetector(graph)
        previous = route((6, 1, V, V, V))
        current = route((6, 1, V, V, V, V))  # padding increased
        current_view = view({2: current, 8: route((7, 3, V, V, V))})
        assert detector.inspect_change(2, previous, current, current_view) == []

    def test_route_to_another_origin_is_no_evidence(self):
        """The customer branch's hint, with monitor 8's padded route
        leading to another origin: it says nothing about V's routes."""
        graph = base_graph()
        graph.add_p2c(7, 1)
        graph.add_p2c(3, 99)
        detector = ASPPInterceptionDetector(graph)
        previous = route((6, 1, V, V, V))
        current = route((6, 1, V))
        current_view = view({2: current, 8: route((7, 3, 99, 99, 99))})
        assert detector.inspect_change(2, previous, current, current_view) == []
        assert not detector.raises_alarm(2, previous, current, current_view)
