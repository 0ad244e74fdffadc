"""Multi-feed ingestion in front of the streaming detector (the
ROADMAP's ARTEMIS-shaped pipeline).

The detector itself is :class:`~repro.detection.streaming.StreamingDetector`
— one class, whose batch method :meth:`consume_all` this package calls.
What lives here is everything between the feeds and that call:

* :mod:`repro.detection.pipeline.radix` — :func:`parse_prefix`, the
  canonical-CIDR check the detector runs once per prefix;
* :mod:`repro.detection.pipeline.ingest` — batched multi-feed
  ingestion: N monitor feeds drained through bounded queues with
  explicit backpressure (``block`` / ``drop`` / ``park``), merged by
  sequence stamp so any feed interleaving yields the same alarms as
  one serial feed;
* :mod:`repro.detection.pipeline.faults` — scheduled feed faults and
  the malformed-update check an armed pipeline runs.
"""

from repro.detection.pipeline.faults import (
    FEED_FAULT_MODES,
    FeedFault,
    FeedFaultPlan,
    corrupt_update,
    is_malformed,
)
from repro.detection.pipeline.ingest import (
    BACKPRESSURE_POLICIES,
    FeedQueue,
    StreamingPipeline,
    split_stream,
)
from repro.detection.pipeline.radix import parse_prefix

__all__ = [
    "parse_prefix",
    "FeedQueue",
    "StreamingPipeline",
    "BACKPRESSURE_POLICIES",
    "split_stream",
    "FEED_FAULT_MODES",
    "FeedFault",
    "FeedFaultPlan",
    "corrupt_update",
    "is_malformed",
]
