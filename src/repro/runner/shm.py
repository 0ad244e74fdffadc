"""Shared-memory transport for compiled topologies.

Pool workers used to receive the full :class:`~repro.topology.asgraph.
ASGraph` as a pickled initializer argument — one serialised copy of the
whole topology per worker, re-parsed and re-compiled in each process.
The parent's engine already holds the topology as flat CSR buffers
(:meth:`~repro.bgp.compiled.CompiledTopology.to_payload`), so the
runner instead publishes that payload once into a
:class:`multiprocessing.shared_memory.SharedMemory` segment and ships
workers only the tiny ``(name, size)`` handle; each worker attaches,
copies the buffer out, and rebuilds the arrays at C speed.

The worker copies rather than keeping views into the segment so the
parent retains sole ownership of the mapping lifetime: after the copy
the worker closes its attachment immediately and the parent unlinks the
segment when the executor closes.  The worker never touches the
segment's :mod:`multiprocessing.resource_tracker` registration: pool
workers talk to the *parent's* tracker process, whose per-type cache is
a set, so the registration an attachment adds before Python 3.13 is a
no-op on the name the parent already registered, while a worker-side
``unregister`` would remove the parent's only entry and make the
parent's ``unlink()`` raise ``KeyError: '/psm_*'`` inside the tracker.
From 3.13 on the attachment opts out of tracking altogether.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from multiprocessing import shared_memory

from repro.bgp.compiled import CompiledTopology

__all__ = ["SharedTopologyHandle", "publish_topology", "attach_topology"]


@dataclass(frozen=True)
class SharedTopologyHandle:
    """Pickles in a few dozen bytes; names a published topology payload."""

    name: str
    size: int


#: ``SharedMemory(track=...)`` exists from Python 3.13.
_ATTACH_KWARGS = {"track": False} if sys.version_info >= (3, 13) else {}


def publish_topology(
    topo: CompiledTopology,
) -> tuple[shared_memory.SharedMemory, SharedTopologyHandle]:
    """Publish ``topo``'s payload into a new shared-memory segment.

    Returns the segment (the caller owns it and must ``close()`` and
    ``unlink()`` it when the workers are done) and the handle to ship
    to workers.  Raises ``OSError`` where shared memory is unavailable
    (e.g. no ``/dev/shm``); callers fall back to pickling the graph.
    """
    payload = topo.to_payload()
    segment = shared_memory.SharedMemory(create=True, size=len(payload))
    segment.buf[: len(payload)] = payload
    return segment, SharedTopologyHandle(name=segment.name, size=len(payload))


def attach_topology(handle: SharedTopologyHandle) -> CompiledTopology:
    """Rebuild the :class:`CompiledTopology` named by ``handle``.

    Attaches to the segment, copies the payload out and detaches; the
    parent, not the worker, owns the segment's lifetime and its
    resource-tracker registration (see the module docstring).
    """
    segment = shared_memory.SharedMemory(name=handle.name, **_ATTACH_KWARGS)
    try:
        payload = bytes(segment.buf[: handle.size])
    finally:
        segment.close()
    return CompiledTopology.from_payload(payload)
