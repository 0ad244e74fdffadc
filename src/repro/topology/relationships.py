"""AS business relationships and the local-preference classes they induce.

BGP routing on the inter-domain level is driven by commercial
relationships between ASes (Gao 2000).  The paper's simulator encodes
the standard model:

* **customer-provider** (``P2C``): the customer pays the provider for
  transit;
* **peer-peer** (``P2P``): settlement-free exchange of each other's
  customer routes;
* **sibling** (``S2S``): two ASes under one organisation that exchange
  *all* routes (the paper's Figure 11 analysis hinges on a sibling of a
  CDN re-exporting a route).

Route selection prefers customer-learned routes over peer-learned over
provider-learned ("profit-driven" local preference), and export follows
the valley-free rule.
"""

from __future__ import annotations

import enum

__all__ = ["Relationship", "PrefClass"]


class Relationship(enum.Enum):
    """The role of a neighbour *relative to* a given AS.

    ``graph.relationship(a, b) == Relationship.CUSTOMER`` means *b is a
    customer of a*.
    """

    CUSTOMER = "customer"
    PROVIDER = "provider"
    PEER = "peer"
    SIBLING = "sibling"
    NONE = "none"

    def inverse(self) -> "Relationship":
        """The same edge seen from the other endpoint."""
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return self


class PrefClass(enum.IntEnum):
    """Local-preference class of a route, ordered best-first.

    Lower values are more preferred.  ``ORIGIN`` marks the prefix
    owner's own (self-originated) route, which beats everything.
    Sibling-learned routes sit between customer and peer routes: they
    carry no cost, but a customer route still earns revenue.
    """

    ORIGIN = 0
    CUSTOMER = 1
    SIBLING = 2
    PEER = 3
    PROVIDER = 4

    @classmethod
    def for_relationship(cls, relationship: Relationship) -> "PrefClass":
        """Preference class of a route learned from a ``relationship`` neighbour."""
        mapping = {
            Relationship.CUSTOMER: cls.CUSTOMER,
            Relationship.SIBLING: cls.SIBLING,
            Relationship.PEER: cls.PEER,
            Relationship.PROVIDER: cls.PROVIDER,
        }
        try:
            return mapping[relationship]
        except KeyError:
            raise ValueError(
                f"no preference class for relationship {relationship!r}"
            ) from None
