"""Tests for routes, the decision process, and export policy.

The decision process is stated in tuple space by the reference oracle
(``tests/bgp/reference_engine.py``); the engine's cores are checked
against it by the differential suites.
"""

from __future__ import annotations

import pytest

from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import DEFAULT_PREFIX, Route
from repro.exceptions import PolicyError
from repro.topology.relationships import PrefClass, Relationship
from tests.bgp.reference_engine import allows_export, best_route, preference_key


def make_route(path, pref, learned_from=None):
    return Route(DEFAULT_PREFIX, tuple(path), learned_from, pref)


class TestRoute:
    def test_accessors(self):
        route = make_route((1, 2, 2), PrefClass.PEER, learned_from=1)
        assert route.length == 3
        assert route.origin == 2
        assert "peer" in str(route)

    def test_self_originated(self):
        route = make_route((), PrefClass.ORIGIN)
        assert route.origin is None
        assert "<self>" in str(route)


class TestDecision:
    def test_local_pref_beats_length(self):
        longer_customer = make_route((5, 4, 3, 2), PrefClass.CUSTOMER, 5)
        short_provider = make_route((9, 2), PrefClass.PROVIDER, 9)
        assert best_route([short_provider, longer_customer]) is longer_customer

    def test_length_breaks_class_ties(self):
        short = make_route((1, 2), PrefClass.PEER, 1)
        long = make_route((3, 4, 2), PrefClass.PEER, 3)
        assert best_route([long, short]) is short

    def test_lowest_neighbor_breaks_full_ties(self):
        via_low = make_route((1, 2), PrefClass.PEER, 1)
        via_high = make_route((7, 2), PrefClass.PEER, 7)
        assert best_route([via_high, via_low]) is via_low

    def test_empty_candidates(self):
        assert best_route([]) is None

    def test_preference_key_orders_origin_first(self):
        own = make_route((), PrefClass.ORIGIN)
        customer = make_route((1, 2), PrefClass.CUSTOMER, 1)
        assert preference_key(own) < preference_key(customer)


class TestExportPolicy:
    @pytest.mark.parametrize(
        ("role", "pref", "allowed"),
        [
            # to customers and siblings: everything
            (Relationship.CUSTOMER, PrefClass.PROVIDER, True),
            (Relationship.CUSTOMER, PrefClass.PEER, True),
            (Relationship.SIBLING, PrefClass.PROVIDER, True),
            # to peers/providers: only own/customer routes
            (Relationship.PEER, PrefClass.CUSTOMER, True),
            (Relationship.PEER, PrefClass.ORIGIN, True),
            (Relationship.PEER, PrefClass.PEER, False),
            (Relationship.PEER, PrefClass.PROVIDER, False),
            (Relationship.PROVIDER, PrefClass.CUSTOMER, True),
            (Relationship.PROVIDER, PrefClass.PROVIDER, False),
            (Relationship.NONE, PrefClass.CUSTOMER, False),
        ],
    )
    def test_valley_free_rule(self, role, pref, allowed):
        assert allows_export(role, pref) is allowed

    def test_violators_export_everything(self):
        assert allows_export(Relationship.PROVIDER, PrefClass.PROVIDER, violator=True)
        assert not allows_export(Relationship.PROVIDER, PrefClass.PROVIDER)


class TestPrependingPolicy:
    def test_default_is_one(self):
        assert PrependingPolicy().padding(1, 2) == 1

    def test_uniform_and_per_link_precedence(self):
        policy = PrependingPolicy()
        policy.set_uniform(1, 3)
        policy.set_padding(1, 2, 5)
        assert policy.padding(1, 2) == 5  # per-link wins
        assert policy.padding(1, 9) == 3  # uniform fallback
        assert policy.padding(2, 1) == 1  # untouched sender

    def test_invalid_count_rejected(self):
        with pytest.raises(PolicyError):
            PrependingPolicy().set_uniform(1, 0)
        with pytest.raises(PolicyError):
            PrependingPolicy().set_padding(1, 2, -3)

    def test_constructors(self):
        uniform = PrependingPolicy.uniform_origin(7, 4)
        assert uniform.padding(7, 99) == 4
        assert uniform.padding(8, 99) == 1

    def test_senders_and_copy(self):
        policy = PrependingPolicy.uniform_origin(7, 4)
        policy.set_padding(8, 9, 2)
        assert policy.senders() == {7, 8}
        clone = policy.copy()
        clone.set_uniform(7, 2)
        assert policy.padding(7, 1) == 4
