"""Detection of the ASPP-based interception attack (the paper's §V).

* :mod:`repro.detection.alarms` — alarm records with confidence levels;
* :mod:`repro.detection.detector` — the Figure-4 algorithm: find
  padding inconsistencies on a shared path segment across vantage
  points (high confidence), fall back to relationship-based hints (low
  confidence);
* :mod:`repro.detection.monitors` — vantage-point selection strategies
  (the paper ranks ASes by degree and takes the top ``d``);
* :mod:`repro.detection.baselines` — MOAS (PHAS-like) and new-link
  detectors, which catch the baseline attacks but *not* ASPP
  interception;
* :mod:`repro.detection.timing` — pollution-before-detection analysis
  (Figure 14);
* :mod:`repro.detection.streaming` — the one streaming detector: the
  Figure-4 check applied to an update stream in batches, over
  per-prefix route tables and a live view;
* :mod:`repro.detection.pipeline` — batched multi-feed ingestion with
  backpressure and fault tolerance in front of that detector.
"""

from repro.detection.alarms import Alarm, Confidence
from repro.detection.baselines import detect_moas, detect_new_links
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.monitors import (
    random_monitors,
    top_degree_monitors,
    victim_adjacent_monitors,
)
from repro.detection.pipeline import StreamingPipeline
from repro.detection.placement import attacker_coverage, greedy_cover_monitors
from repro.detection.selfcheck import PrefixOwnerSelfCheck
from repro.detection.streaming import StreamingDetector, attack_update_stream
from repro.detection.timing import DetectionTiming, detection_timing

__all__ = [
    "Alarm",
    "Confidence",
    "ASPPInterceptionDetector",
    "PrefixOwnerSelfCheck",
    "top_degree_monitors",
    "random_monitors",
    "victim_adjacent_monitors",
    "greedy_cover_monitors",
    "attacker_coverage",
    "StreamingDetector",
    "attack_update_stream",
    "StreamingPipeline",
    "detect_moas",
    "detect_new_links",
    "DetectionTiming",
    "detection_timing",
]
