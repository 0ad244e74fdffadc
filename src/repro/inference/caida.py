"""CAIDA AS-Rank-style relationship inference (simplified).

The paper cross-checks Gao's output against "CAIDA's algorithm"
(AS-Rank family: Luckie et al.).  We implement the algorithm's spine in
a documented, simplified form:

1. **Clique inference** — the Tier-1 core is the largest set of
   high-degree ASes that are mutually adjacent in observed paths and
   never appear *beneath* another AS (never receive transit).
2. **Transit-degree ordering** — every AS is ranked by transit degree
   (number of distinct ASes it appears to forward for, i.e. the AS
   appears between them and the path's top).
3. **Edge classification** — walking each path from the clique/top
   downwards labels hops provider→customer; ascending hops on the
   origin side label customer→provider; remaining edges between
   comparable-rank ASes that only ever appear at path tops are peering.

Siblings are not inferred by this algorithm (AS-Rank infers p2c/p2p
only), which is one of the systematic disagreements the combination
step of :mod:`repro.inference.combine` has to resolve — exactly why the
paper keeps only the agreed pairs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable

from repro.bgp.aspath import collapse_prepending
from repro.exceptions import MeasurementError
from repro.topology.asgraph import ASGraph

__all__ = ["infer_caida"]

Path = tuple[int, ...]


def _observed_neighbors(paths: list[Path]) -> dict[int, set[int]]:
    neighbors: defaultdict[int, set[int]] = defaultdict(set)
    for path in paths:
        for a, b in zip(path, path[1:]):
            if a != b:
                neighbors[a].add(b)
                neighbors[b].add(a)
    return dict(neighbors)


def _infer_clique(paths: list[Path], neighbors: dict[int, set[int]], size_hint: int) -> set[int]:
    """Greedy clique from the highest-degree ASes that are mutually adjacent."""
    ranked = sorted(neighbors, key=lambda asn: (-len(neighbors[asn]), asn))
    clique: list[int] = []
    for asn in ranked[: max(4 * size_hint, 40)]:
        if all(asn in neighbors.get(member, ()) for member in clique):
            clique.append(asn)
        if len(clique) >= size_hint:
            break
    return set(clique)


def infer_caida(
    paths: Iterable[Path],
    *,
    clique_size_hint: int = 10,
    peer_rank_ratio: float = 10.0,
    seed_clique: Iterable[int] = (),
) -> ASGraph:
    """Infer an annotated topology, AS-Rank style.

    ``clique_size_hint`` bounds the greedy Tier-1 clique search.  Real
    AS-Rank does not bootstrap the clique from degree alone either: it
    starts from an operator-curated Tier-1 list (Bill Norton's clique)
    refined by path evidence.  ``seed_clique`` plays that prior's role
    — members that actually appear in the observed paths are adopted
    directly; when empty, a greedy degree-based search approximates it
    (adequate on large samples, weak on small ones).
    """
    path_list = [collapse_prepending(tuple(p)) for p in paths]
    path_list = [p for p in path_list if len(p) >= 1]
    if not path_list:
        raise MeasurementError("cannot infer relationships from zero paths")

    neighbors = _observed_neighbors(path_list)
    seeded = {asn for asn in seed_clique if asn in neighbors}
    clique = seeded or _infer_clique(path_list, neighbors, clique_size_hint)

    # Transit degree: how many distinct ASes appear "below" each AS.
    transit_customers: defaultdict[int, set[int]] = defaultdict(set)
    for path in path_list:
        if len(path) < 2:
            continue
        top_index = _top_index(path, clique, neighbors)
        # Descending side: path[i] forwards for everything nearer the monitor.
        for i in range(top_index, len(path) - 1):
            transit_customers[path[i]].add(path[i + 1])
        for i in range(top_index, 0, -1):
            transit_customers[path[i]].add(path[i - 1])
    transit_degree = Counter(
        {asn: len(customers) for asn, customers in transit_customers.items()}
    )

    votes_c2p: Counter = Counter()
    top_edges: set[tuple[int, int]] = set()
    for path in path_list:
        if len(path) < 2:
            continue
        top_index = _top_index(path, clique, neighbors, transit_degree)
        for i in range(len(path) - 1):
            a, b = path[i], path[i + 1]
            if i < top_index:
                votes_c2p[(a, b)] += 1
            else:
                votes_c2p[(b, a)] += 1
        if top_index > 0:
            a, b = path[top_index - 1], path[top_index]
            top_edges.add((min(a, b), max(a, b)))
        if top_index < len(path) - 1:
            a, b = path[top_index], path[top_index + 1]
            top_edges.add((min(a, b), max(a, b)))

    graph = ASGraph()
    for asn in neighbors:
        graph.add_as(asn)
    edges = {
        (min(a, b), max(a, b)) for a, adjacent in neighbors.items() for b in adjacent
    }
    for a, b in sorted(edges):
        if a in clique and b in clique:
            graph.add_p2p(a, b)
            continue
        a_below_b = votes_c2p[(a, b)]
        b_below_a = votes_c2p[(b, a)]
        rank_a = transit_degree.get(a, 0) + 1
        rank_b = transit_degree.get(b, 0) + 1
        ratio = max(rank_a, rank_b) / min(rank_a, rank_b)
        if (
            (a, b) in top_edges
            and ratio <= peer_rank_ratio
            and min(a_below_b, b_below_a) <= 1
            and abs(a_below_b - b_below_a) <= max(1, 0.1 * (a_below_b + b_below_a))
        ):
            graph.add_p2p(a, b)
        elif a_below_b >= b_below_a:
            graph.add_p2c(b, a)
        else:
            graph.add_p2c(a, b)
    return graph


def _top_index(
    path: Path,
    clique: set[int],
    neighbors: dict[int, set[int]],
    transit_degree: Counter | None = None,
) -> int:
    """Index of the path's topmost AS: a clique member if present, else
    the highest (transit-)degree AS."""
    clique_positions = [i for i, asn in enumerate(path) if asn in clique]
    if clique_positions:
        return clique_positions[0]
    if transit_degree is not None:
        return max(range(len(path)), key=lambda i: (transit_degree.get(path[i], 0), -i))
    return max(range(len(path)), key=lambda i: (len(neighbors.get(path[i], ())), -i))
