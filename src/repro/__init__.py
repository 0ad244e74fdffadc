"""repro — reproduction of "Studying Impacts of Prefix Interception
Attack by Exploring BGP AS-PATH Prepending" (Zhang & Pourzandi, ICDCS 2012).

The library models the Internet's AS-level routing system (topology,
valley-free BGP propagation, AS-path prepending), the ASPP-based prefix
interception attack the paper introduces, and the multi-vantage-point
detection algorithm it proposes.  See README.md for a tour and
DESIGN.md for the full system inventory.

Quickstart::

    import random
    from repro import (
        InternetTopologyConfig, generate_internet_topology,
        PropagationEngine, simulate_interception,
    )

    world = generate_internet_topology(InternetTopologyConfig(), random.Random(7))
    engine = PropagationEngine(world.graph)
    result = simulate_interception(
        engine, victim=world.content[0], attacker=world.tier1[0], origin_padding=3
    )
    print(f"polluted: {result.report.after_fraction:.0%}")
"""

from repro.attack import (
    ASPPInterceptionAttack,
    InterceptionResult,
    OriginHijackAttack,
    PathShorteningAttack,
    PollutionReport,
    pollution_report,
    simulate_interception,
)
from repro.bgp import (
    MonitorView,
    PrependingPolicy,
    PropagationEngine,
    PropagationOutcome,
    Route,
    RouteCollector,
    three_phase_routes,
)
from repro.detection import (
    Alarm,
    ASPPInterceptionDetector,
    Confidence,
    DetectionTiming,
    PrefixOwnerSelfCheck,
    StreamingDetector,
    attack_update_stream,
    attacker_coverage,
    detect_moas,
    detect_new_links,
    detection_timing,
    greedy_cover_monitors,
    random_monitors,
    top_degree_monitors,
    victim_adjacent_monitors,
)
from repro.exceptions import (
    ConvergenceError,
    DetectionError,
    ExperimentError,
    MeasurementError,
    PolicyError,
    ReproError,
    SerializationError,
    SimulationError,
    TopologyError,
)
from repro.inference import infer_caida, infer_combined, infer_gao, score_inference
from repro.measurement import (
    MonitorRIBs,
    PaddingBehaviorModel,
    build_monitor_ribs,
    padding_count_distribution,
    prepended_fraction_per_monitor,
)
from repro.mitigation import MitigationOutcome, reactive_padding_reduction
from repro.secpol import simulate_cautious_deployment
from repro.topology import (
    ASGraph,
    InternetTopologyConfig,
    PrefClass,
    Relationship,
    classify_tiers,
    customer_cone,
    generate_internet_topology,
    load_caida,
    save_caida,
    tier1_ases,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # topology
    "ASGraph",
    "Relationship",
    "PrefClass",
    "InternetTopologyConfig",
    "generate_internet_topology",
    "classify_tiers",
    "customer_cone",
    "tier1_ases",
    "load_caida",
    "save_caida",
    # bgp
    "Route",
    "PrependingPolicy",
    "PropagationEngine",
    "PropagationOutcome",
    "RouteCollector",
    "MonitorView",
    "three_phase_routes",
    # attack
    "ASPPInterceptionAttack",
    "InterceptionResult",
    "simulate_interception",
    "OriginHijackAttack",
    "PathShorteningAttack",
    "PollutionReport",
    "pollution_report",
    # detection
    "Alarm",
    "Confidence",
    "ASPPInterceptionDetector",
    "PrefixOwnerSelfCheck",
    "StreamingDetector",
    "attack_update_stream",
    "top_degree_monitors",
    "random_monitors",
    "victim_adjacent_monitors",
    "greedy_cover_monitors",
    "attacker_coverage",
    "detect_moas",
    "detect_new_links",
    "DetectionTiming",
    "detection_timing",
    # defences
    "reactive_padding_reduction",
    "MitigationOutcome",
    "simulate_cautious_deployment",
    # inference
    "infer_gao",
    "infer_caida",
    "infer_combined",
    "score_inference",
    # measurement
    "PaddingBehaviorModel",
    "MonitorRIBs",
    "build_monitor_ribs",
    "prepended_fraction_per_monitor",
    "padding_count_distribution",
    # exceptions
    "ReproError",
    "TopologyError",
    "PolicyError",
    "SimulationError",
    "ConvergenceError",
    "DetectionError",
    "MeasurementError",
    "SerializationError",
    "ExperimentError",
]
