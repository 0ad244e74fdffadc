"""Property: concurrent writer processes converge to one consistent index.

N processes each open their own :class:`CampaignStore` handle on the
same log and appends an interleaved slice of records — including
fingerprints that overlap between writers (with identical payloads, as
task purity guarantees).  Afterwards a fresh reader must see exactly
the union of all fingerprints, each serving its payload: no lost
records, no duplicated index entries, no corruption from interleaved
``O_APPEND`` writes.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.store import CampaignStore

#: fork start method: the writer body must be importable, not a closure.
_CTX = multiprocessing.get_context("fork")


def _writer(root: str, items: list[tuple[str, str]]) -> None:
    with CampaignStore(root) as store:
        for fingerprint, payload in items:
            store.put(fingerprint, payload)


def _payload_for(fingerprint: str) -> str:
    """Deterministic payload so overlapping writers stay identical."""
    return f"payload-of-{fingerprint}"


@st.composite
def _write_schedules(draw):
    """(num_writers, per-writer item lists) with overlapping keys."""
    num_writers = draw(st.integers(min_value=2, max_value=4))
    universe = draw(
        st.lists(
            st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
            min_size=1,
            max_size=24,
            unique=True,
        )
    )
    schedules = []
    for _ in range(num_writers):
        picks = draw(
            st.lists(
                st.sampled_from(universe), min_size=0, max_size=len(universe)
            )
        )
        schedules.append([(fp, _payload_for(fp)) for fp in picks])
    return schedules


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedules=_write_schedules())
def test_concurrent_writers_converge_to_one_index(schedules):
    scratch = Path(tempfile.mkdtemp(prefix="repro-store-"))
    root = scratch / "log"
    try:
        procs = [
            _CTX.Process(target=_writer, args=(str(root), items))
            for items in schedules
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        expected = {fp for items in schedules for fp, _ in items}
        with CampaignStore(root) as store:
            # no lost fingerprints ...
            assert all(fingerprint in store for fingerprint in expected)
            # ... and every record serves its (identical) payload.
            for fingerprint in expected:
                assert store.get(fingerprint) == _payload_for(fingerprint)
            # every log line is whole: compaction finds nothing corrupt
            # to drop beyond the duplicate appends themselves.
            assert len(store) == len(expected)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_two_handles_interleaved_appends_same_process(tmp_path):
    """Same property at thread-scale: two handles on one log,
    strictly alternating appends, both end up seeing everything."""
    first = CampaignStore(tmp_path / "store")
    second = CampaignStore(tmp_path / "store")
    try:
        for i in range(10):
            handle = first if i % 2 == 0 else second
            handle.put(f"fp-{i:02d}", i)
        for handle in (first, second):
            assert all(f"fp-{i:02d}" in handle for i in range(10))
            for i in range(10):
                assert handle.get(f"fp-{i:02d}") == i
    finally:
        first.close()
        second.close()
