"""Tests for relationship and preference-class semantics."""

from __future__ import annotations

import pytest

from repro.topology.relationships import PrefClass, Relationship


class TestRelationship:
    def test_inverse_pairs(self):
        assert Relationship.CUSTOMER.inverse() is Relationship.PROVIDER
        assert Relationship.PROVIDER.inverse() is Relationship.CUSTOMER

    @pytest.mark.parametrize(
        "symmetric", [Relationship.PEER, Relationship.SIBLING, Relationship.NONE]
    )
    def test_symmetric_relationships_self_inverse(self, symmetric):
        assert symmetric.inverse() is symmetric


class TestPrefClass:
    def test_ordering_is_profit_driven(self):
        # Customer routes beat sibling routes beat peer routes beat
        # provider routes; the owner's own route beats everything.
        assert (
            PrefClass.ORIGIN
            < PrefClass.CUSTOMER
            < PrefClass.SIBLING
            < PrefClass.PEER
            < PrefClass.PROVIDER
        )

    @pytest.mark.parametrize(
        ("relationship", "expected"),
        [
            (Relationship.CUSTOMER, PrefClass.CUSTOMER),
            (Relationship.SIBLING, PrefClass.SIBLING),
            (Relationship.PEER, PrefClass.PEER),
            (Relationship.PROVIDER, PrefClass.PROVIDER),
        ],
    )
    def test_for_relationship(self, relationship, expected):
        assert PrefClass.for_relationship(relationship) is expected

    def test_for_relationship_rejects_none(self):
        with pytest.raises(ValueError):
            PrefClass.for_relationship(Relationship.NONE)
