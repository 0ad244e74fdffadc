"""The deterministic identity of a runner task: the address a
:class:`~repro.store.CampaignStore` files its result under — a format
contract, pinned digest by digest in
``tests/runner/test_fingerprint_golden.py`` — and the key a
:class:`~repro.runner.faults.FaultPlan` schedules its faults by.
"""

from __future__ import annotations

import hashlib
from typing import Any

__all__ = ["task_fingerprint"]


def task_fingerprint(task: Any, context: str | None = None) -> str:
    """Deterministic identity of a task descriptor.

    Tasks are frozen dataclasses, so their ``repr`` enumerates every
    field in declaration order; hashing it together with the qualified
    type name yields a stable fingerprint across processes and runs
    (no ``PYTHONHASHSEED`` dependence) that changes whenever any input
    of the task changes.  Security-policy sweeps put the whole
    deployment configuration (policy, strategy, fraction, seed) in the
    task's frozen fields, so it is fingerprinted by construction.

    ``context`` folds run-level configuration that lives *outside* the
    task descriptor (an engine-level policy object, a custom world
    build) into the digest, so a store can never replay a result
    computed under a different setup that happened to share the same
    task fields.
    """
    identity = f"{type(task).__module__}.{type(task).__qualname__}|{task!r}"
    if context:
        identity += f"|ctx:{context}"
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()
