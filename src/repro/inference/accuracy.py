"""Scoring inferred relationships against ground truth.

Unlike the paper (which had no ground truth for the real Internet), our
synthetic topologies come with known relationships, so the inference
pipeline can be evaluated directly: per-relationship precision/recall
over the edges both graphs contain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship

__all__ = ["InferenceAccuracy", "score_inference"]


@dataclass(frozen=True)
class InferenceAccuracy:
    """Accuracy of one inferred graph vs. the ground truth."""

    #: edges present in both graphs
    num_common_edges: int
    #: edges in truth never observed (not in any path)
    num_missing_edges: int
    #: edges inferred that do not exist in truth
    num_spurious_edges: int
    #: common edges whose relationship labels match exactly
    num_correct: int
    #: per-truth-relationship (correct, total) counts
    per_relationship: dict[str, tuple[int, int]]

    @property
    def accuracy(self) -> float:
        """Fraction of common edges labelled correctly."""
        return self.num_correct / self.num_common_edges if self.num_common_edges else 0.0


def score_inference(truth: ASGraph, inferred: ASGraph) -> InferenceAccuracy:
    """Compare ``inferred`` against the ground-truth ``truth`` graph.

    Relationship labels are compared in the canonical ``a < b``
    orientation; a peer/sibling edge matches only the same symmetric
    type, a transit edge only the same direction.
    """
    common = correct = 0
    missing = 0
    per_relationship: dict[str, list[int]] = {}
    truth_edges: set[tuple[int, int]] = set()
    for a, b, role in truth.edges():
        key = (min(a, b), max(a, b))
        truth_edges.add(key)
        oriented_truth = role if key[0] == a else role.inverse()
        inferred_role = inferred.relationship(key[0], key[1])
        bucket = per_relationship.setdefault(oriented_truth.value, [0, 0])
        if inferred_role is Relationship.NONE:
            missing += 1
            continue
        common += 1
        bucket[1] += 1
        if inferred_role is oriented_truth:
            correct += 1
            bucket[0] += 1
    spurious = 0
    for a, b, _role in inferred.edges():
        if (min(a, b), max(a, b)) not in truth_edges:
            spurious += 1
    return InferenceAccuracy(
        num_common_edges=common,
        num_missing_edges=missing,
        num_spurious_edges=spurious,
        num_correct=correct,
        per_relationship={
            key: (value[0], value[1]) for key, value in per_relationship.items()
        },
    )
