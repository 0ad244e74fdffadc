"""Deterministic fault injection for the supervised runner.

Recovery code that only runs when a worker happens to segfault is
recovery code that never runs in CI.  This module makes every failure
mode the supervisor handles *schedulable*: a :class:`FaultPlan` maps
task fingerprints to scripted :class:`FaultSpec` actions — crash the
worker process outright, hang past the deadline, or raise — keyed by
the task's *attempt number*, which the supervisor threads into every
(re-)execution.  Because the plan is an immutable value shipped to
workers inside the :class:`~repro.runner.tasks.WorkerSpec`, and the
attempt counter is supplied by the parent, the same plan produces the
same faults on every run regardless of worker count, scheduling, or
which process a retry lands on.

A fault fires *before* the task body runs, so a faulted attempt does no
propagation work and records no telemetry; the eventual successful
attempt is indistinguishable from a fault-free execution — which is
what lets the chaos suite assert bit-identical results under injected
crashes.

Crash semantics depend on where the task executes: in a pool worker the
fault calls ``os._exit`` (the real thing — the parent sees
``BrokenProcessPool``), while in-process execution raises
:class:`InjectedCrashError` instead, since taking down the caller's
interpreter would be a little too deterministic.
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ReproError
from repro.runner.fingerprint import task_fingerprint

__all__ = [
    "FAULT_MODES",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrashError",
    "InjectedFaultError",
]

#: Exit code used for injected worker crashes (grep-able in CI logs).
CRASH_EXIT_CODE = 86

FAULT_MODES = ("crash", "hang", "raise")


class InjectedFaultError(ReproError):
    """An injected task failure (the ``raise`` fault mode)."""


class InjectedCrashError(InjectedFaultError):
    """An injected worker crash, softened to an exception in-process."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: what happens, and on which attempts."""

    mode: str
    #: attempt numbers (0-based) on which the fault fires; retries past
    #: the last scripted attempt run clean, so a task with
    #: ``attempts=(0,)`` fails once and then succeeds.
    attempts: tuple[int, ...] = (0,)
    #: sleep length for ``hang`` faults — pick it well past the
    #: supervisor's deadline so the kill path, not the sleep, ends it.
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; expected one of {FAULT_MODES}"
            )
        object.__setattr__(
            self, "attempts", tuple(sorted({int(a) for a in self.attempts}))
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults, keyed by task fingerprint."""

    rules: Mapping[str, FaultSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", dict(self.rules))

    def __len__(self) -> int:
        return len(self.rules)

    def __bool__(self) -> bool:
        return bool(self.rules)

    # -- construction ---------------------------------------------------
    @classmethod
    def for_tasks(cls, assignments: Mapping[Any, FaultSpec]) -> "FaultPlan":
        """Build a plan from explicit ``{task: FaultSpec}`` assignments."""
        return cls(
            {task_fingerprint(task): spec for task, spec in assignments.items()}
        )

    @classmethod
    def seeded(
        cls,
        tasks: Iterable[Any],
        *,
        seed: int,
        rate: float = 0.25,
        modes: Sequence[str] = ("crash", "raise"),
        max_faulty_attempts: int = 2,
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """Draw a reproducible plan over ``tasks``.

        Each task independently faults with probability ``rate``; a
        faulty task gets a mode drawn from ``modes`` and between 1 and
        ``max_faulty_attempts`` consecutive failing attempts starting
        at attempt 0.  Keep ``max_faulty_attempts`` below the retry
        policy's ``max_attempts`` if the run is expected to converge.
        The draw depends only on ``seed`` and the task list, never on
        scheduling.  ``hang`` is deliberately absent from the default
        modes: it only converges under a deadline-enforcing policy.
        """
        for mode in modes:
            if mode not in FAULT_MODES:
                raise ValueError(f"unknown fault mode {mode!r}")
        rng = random.Random(seed)
        rules: dict[str, FaultSpec] = {}
        for task in tasks:
            if rng.random() >= rate:
                continue
            mode = modes[rng.randrange(len(modes))]
            failures = rng.randint(1, max(1, max_faulty_attempts))
            rules[task_fingerprint(task)] = FaultSpec(
                mode=mode,
                attempts=tuple(range(failures)),
                hang_seconds=hang_seconds,
            )
        return cls(rules)

    # -- execution ------------------------------------------------------
    def spec_for(self, task: Any, attempt: int) -> FaultSpec | None:
        """The fault scheduled for this task attempt, if any."""
        spec = self.rules.get(task_fingerprint(task))
        if spec is not None and attempt in spec.attempts:
            return spec
        return None

    def fire(self, task: Any, attempt: int, *, in_pool_worker: bool) -> None:
        """Perform the scheduled fault for ``(task, attempt)``, if any."""
        spec = self.spec_for(task, attempt)
        if spec is None:
            return
        label = f"{type(task).__name__} attempt {attempt}"
        if spec.mode == "hang":
            time.sleep(spec.hang_seconds)
            return
        if spec.mode == "crash":
            if in_pool_worker:
                os._exit(CRASH_EXIT_CODE)
            raise InjectedCrashError(f"injected worker crash for {label}")
        raise InjectedFaultError(f"injected failure for {label}")
