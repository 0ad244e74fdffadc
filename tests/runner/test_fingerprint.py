"""Task fingerprints: equal tasks share one, every field moves it.

The exact digests are pinned in ``test_fingerprint_golden.py``.
"""

from __future__ import annotations

from repro.runner import (
    CampaignPairTask,
    DeploymentPointTask,
    SweepPointTask,
    task_fingerprint,
)

TASK = SweepPointTask(victim=10, attacker=20, padding=3)


class TestFingerprints:
    def test_stable_across_equal_tasks(self):
        twin = SweepPointTask(victim=10, attacker=20, padding=3)
        assert task_fingerprint(TASK) == task_fingerprint(twin)

    def test_distinguishes_fields(self):
        fingerprints = {
            task_fingerprint(SweepPointTask(victim=10, attacker=20, padding=p))
            for p in range(1, 9)
        }
        assert len(fingerprints) == 8

    def test_distinguishes_task_types(self):
        """Same field values, different task class: different identity."""
        campaign = CampaignPairTask(attacker=20, victim=10, padding=3)
        assert task_fingerprint(TASK) != task_fingerprint(campaign)

    def test_covers_every_security_policy_field(self):
        """The whole deployment configuration lives in frozen task
        fields, so two sweep points that differ only in policy,
        strategy, fraction or selection seed can never replay each
        other's journaled result."""
        base = dict(victim=10, attacker=20, padding=3)
        variants = [
            DeploymentPointTask(**base),
            DeploymentPointTask(**base, policy="rov", fraction=0.5),
            DeploymentPointTask(**base, policy="aspa", fraction=0.5),
            DeploymentPointTask(**base, policy="prependguard", fraction=0.5),
            DeploymentPointTask(
                **base, policy="aspa", fraction=0.5, strategy="random"
            ),
            DeploymentPointTask(
                **base, policy="aspa", fraction=0.5, strategy="random", seed=1
            ),
            DeploymentPointTask(**base, policy="aspa", fraction=0.25),
            DeploymentPointTask(
                **base, policy="aspa", fraction=0.5, violate_policy=False
            ),
        ]
        fingerprints = {task_fingerprint(task) for task in variants}
        assert len(fingerprints) == len(variants)

    def test_context_changes_the_fingerprint(self):
        """Run-level configuration outside the task descriptor folds in
        through ``context`` — a resume under a different setup that
        shares the task fields must not replay."""
        assert task_fingerprint(TASK) == task_fingerprint(TASK, None)
        assert task_fingerprint(TASK) == task_fingerprint(TASK, "")
        assert task_fingerprint(TASK) != task_fingerprint(TASK, "custom-world")
        assert task_fingerprint(TASK, "a") != task_fingerprint(TASK, "b")
