"""Attack models: ASPP-based interception and the baselines it is compared to.

* :mod:`repro.attack.interception` — the paper's contribution: the
  attacker strips the victim's prepended ASNs, shortening the route by
  ``λ-1`` hops without faking the origin or fabricating links;
* :mod:`repro.attack.origin_hijack` — classic origin-AS (MOAS) hijack
  baseline, which blackholes traffic and is caught by MOAS detectors;
* :mod:`repro.attack.path_shortening` — Ballani-style invalid-next-hop
  interception baseline, which fabricates an ``M-V`` link and is caught
  by new-link detectors;
* :mod:`repro.attack.impact` — pollution metrics (the paper's
  "% of paths traversing the attacker").
"""

from repro.attack.impact import PollutionReport, pollution_report
from repro.attack.interception import ASPPInterceptionAttack, InterceptionResult, simulate_interception
from repro.attack.origin_hijack import OriginHijackAttack
from repro.attack.path_shortening import PathShorteningAttack

__all__ = [
    "ASPPInterceptionAttack",
    "InterceptionResult",
    "simulate_interception",
    "OriginHijackAttack",
    "PathShorteningAttack",
    "PollutionReport",
    "pollution_report",
]
