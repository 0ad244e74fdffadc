"""What a second is worth on this box right now.

The box this benchmark was built on is a 2-vCPU VM whose speed is not
its own: the same ``grid`` pass took 1.5 s in one quarter of an hour and
2.8 s in the next, anything from 1.7 s to 4.5 s within a minute, and the
hypervisor held the vCPUs for up to a third of a pass.  Raw seconds
would let the neighbours, not the code, decide a comparison between two
commits.  Two corrections, both measured by the benchmark's own code and
never by the program under test:

* **steal** - ``/proc/stat`` says how long the vCPUs ran and how long
  the hypervisor kept them waiting; a wall-clock time is multiplied by
  the share of the demanded CPU time the VM actually got.
* **speed** - while a pass runs, a timer interrupts it every
  ``INTERVAL_S`` and times a fixed slice of interpreter work
  (arithmetic, dict, list and attribute traffic: the instruction mix of
  the program) in CPU seconds.  The pass's times are
  scaled to the speed at which a slice takes ``REFERENCE_SLICE_S``.
  Sampling *during* the pass is what matters: slow spells last a second
  or two, and samples taken before and after a pass miss them.
"""

from __future__ import annotations

import signal
import statistics
import time

__all__ = ["REFERENCE_SLICE_S", "Sampler", "cpu_ticks", "speed", "unstolen"]

#: CPU seconds of one slice on the box of the first recorded numbers in
#: its fast regime; reported seconds are seconds at this speed
REFERENCE_SLICE_S = 0.0006
#: a slice of just under a millisecond every 20 ms: 4% of the pass, taken
#: out of its times again
INTERVAL_S = 0.02
_SLICE_STEPS = 4_000


class _Node:
    __slots__ = ("value", "next")

    def __init__(self) -> None:
        self.value = 0
        self.next = self


def _ring(size: int) -> _Node:
    nodes = [_Node() for _ in range(size)]
    for node, following in zip(nodes, nodes[1:] + nodes[:1]):
        node.next = following
    return nodes[0]


#: walked by every slice; built once, so that a slice allocates nothing
#: the garbage collector tracks and never triggers a collection of the
#: program's heap on the sampler's account
_RING = _ring(64)


def _slice() -> float:
    """CPU seconds this thread spends on one fixed slice of interpreter work."""
    start = time.thread_time()
    total = 0
    table: dict[int, int] = {}
    recent: list[int] = []
    node = _RING
    for step in range(_SLICE_STEPS):
        total += step * step
        table[step & 1023] = total
        recent.append(step)
        node.value = total
        node = node.next
        if len(recent) > 512:
            del recent[:256]
    return time.thread_time() - start


class Sampler:
    """Times one slice every ``INTERVAL_S`` while active.

    ``SIGALRM`` is handled on the main thread between two bytecodes of
    whatever the program is doing there (or, while it waits for a worker
    thread or process, beside that worker).  ``cost`` is the CPU time
    the slices took so far, for the caller to take out of what it times.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.cost = 0.0

    def _fire(self, signum, frame) -> None:
        spent = _slice()
        self.slices.append(spent)
        self.cost += spent

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        # ignored, not reset: the default action of a straggler would be to kill
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def take(self) -> list[float]:
        """Hand over the slices timed so far and start a fresh list."""
        taken, self.slices = self.slices, []
        return taken


def speed(slices: list[float]) -> float:
    """Machine speed over some slices; 1.0 is the reference, and the
    answer when there are none to judge by.

    The slowest tenth is dropped: a slice that was preempted says
    nothing about how fast the others ran.
    """
    if not slices:
        return 1.0
    kept = sorted(slices)[: max(1, len(slices) * 9 // 10)]
    return REFERENCE_SLICE_S / statistics.fmean(kept)


def cpu_ticks() -> tuple[int, int]:
    """``(busy, stolen)`` ticks summed over the CPUs; zeros without a
    ``/proc/stat`` to read them from."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0, 0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
    return user + nice + system + irq + softirq, steal


def unstolen(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the CPU time demanded between two readings that the VM got."""
    busy = after[0] - before[0]
    stolen = after[1] - before[1]
    return busy / (busy + stolen) if stolen > 0 and busy > 0 else 1.0
