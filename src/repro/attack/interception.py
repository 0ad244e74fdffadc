"""The ASPP-based prefix interception attack (the paper's §II-B).

The victim ``V`` originates its prefix with ``λ`` copies of its ASN
(``r0 = [V ... V]``).  The attacker ``M`` receives the propagated route
``r1 = [ASn ... AS1 V ... V]``, removes ``λ-1`` of the trailing ``V``
copies, and re-announces ``r2 = [M ASn ... AS1 V]`` — ``λ-1`` hops
shorter than the legitimate route, with the true origin and only real
AS-level links.  ASes preferring the shorter route become *polluted*:
their traffic to ``V`` now traverses ``M``, which can eavesdrop,
throttle, or modify it before it continues to ``V``.

Two attacker variants from the paper's evaluation are supported:

* ``strip_mode="origin"`` (default) removes only the origin's padding —
  the canonical attack;
* ``strip_mode="all"`` also collapses intermediary prepending anywhere
  on the path ("the prepending is not limited to the origin AS");
* ``violate_policy=True`` additionally re-exports the modified route to
  *all* neighbours, ignoring valley-free export (Figures 11-12's
  "violate routing policy" series).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attack.impact import PollutionReport, pollution_report
from repro.bgp.aspath import collapse_prepending, strip_origin_padding
from repro.bgp.collectors import MonitorView, RouteCollector
from repro.bgp.engine import PathModifier, PropagationEngine, PropagationOutcome
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import DEFAULT_PREFIX
from repro.exceptions import SimulationError

__all__ = ["ASPPInterceptionAttack", "InterceptionResult", "simulate_interception"]

_STRIP_MODES = ("origin", "all")


@dataclass(frozen=True)
class ASPPInterceptionAttack:
    """Configuration of one ASPP interception attempt."""

    attacker: int
    victim: int
    strip_mode: str = "origin"
    #: copies of the victim's ASN the attacker leaves in place (>= 1;
    #: leaving exactly one maximises the shortening).
    keep: int = 1
    #: if True the attacker also violates valley-free export.
    violate_policy: bool = False

    def __post_init__(self) -> None:
        if self.attacker == self.victim:
            raise SimulationError("attacker and victim must be distinct ASes")
        if self.strip_mode not in _STRIP_MODES:
            raise SimulationError(
                f"strip_mode must be one of {_STRIP_MODES}, got {self.strip_mode!r}"
            )
        if self.keep < 1:
            raise SimulationError("the attacker must keep at least one origin copy")

    def modifier(self) -> PathModifier:
        """The path transformation the attacker applies when re-announcing."""
        victim = self.victim
        keep = self.keep
        collapse = self.strip_mode == "all"

        def strip_origin(path: tuple[int, ...]) -> tuple[int, ...]:
            if not path or path[-1] != victim:
                return path
            if collapse:
                return collapse_prepending(path)
            return strip_origin_padding(path, keep=keep)

        return strip_origin


@dataclass
class InterceptionResult:
    """Baseline and under-attack routing states plus the impact report."""

    attack: ASPPInterceptionAttack
    origin_padding: int
    baseline: PropagationOutcome
    attacked: PropagationOutcome
    report: PollutionReport = field(init=False)

    def __post_init__(self) -> None:
        self.report = pollution_report(
            baseline=self.baseline,
            attacked=self.attacked,
            attacker=self.attack.attacker,
            victim=self.attack.victim,
        )

    @property
    def attacker_has_route(self) -> bool:
        """Whether the attacker held a route to forward intercepted traffic on.

        The interception (rather than blackholing) property requires the
        attacker to keep a valid route to the victim; AS-PATH loop
        prevention guarantees its own route never traverses itself.
        """
        attacker = self.attack.attacker
        state = self.attacked.compiled_state
        if state is not None:
            idx = state.topo.index.get(attacker)
            if idx is not None:
                # Same test in compiled space: route presence is the
                # pref sentinel, path membership is one mask AND.
                if state.best_pref[idx] < 0:
                    return False
                return not (state.table.mask[state.best_pid[idx]] & (1 << idx))
        route = self.attacked.route_of(attacker)
        return route is not None and attacker not in route.path

    def monitor_views(
        self, collector: RouteCollector, *, attacker_feeds_collector: bool = True
    ) -> tuple[MonitorView, MonitorView, tuple[int, ...]]:
        """What ``collector`` sees of this attack: ``(before, after, touched)``.

        ``touched`` are the only monitors whose route can differ between
        the two views (:meth:`RouteCollector.view_pair` — the attack
        warm-started from the baseline).  An attacker that peers with
        the collector announces its *modified* route there like to any
        other neighbour; ``attacker_feeds_collector=False`` is the
        stealthy variant whose feed keeps showing its unmodified best
        route.
        """
        modifiers = (
            {self.attack.attacker: self.attack.modifier()}
            if attacker_feeds_collector
            else None
        )
        return collector.view_pair(self.baseline, self.attacked, modifiers=modifiers)


def simulate_interception(
    engine: PropagationEngine,
    *,
    victim: int,
    attacker: int,
    origin_padding: int,
    prefix: str = DEFAULT_PREFIX,
    strip_mode: str = "origin",
    keep: int = 1,
    violate_policy: bool = False,
    prepending: PrependingPolicy | None = None,
    baseline: PropagationOutcome | None = None,
    secpol: object | None = None,
) -> InterceptionResult:
    """Run one attack instance: converge the baseline, launch, re-converge.

    ``origin_padding`` is the victim's uniform prepending count ``λ``
    (per-neighbour schedules can be supplied via ``prepending``, which
    overrides it).  The attack run warm-starts from the baseline so the
    attacked outcome's adoption rounds form the post-attack clock used
    by the detection-timing analysis.

    ``baseline`` optionally supplies the already-converged pre-attack
    outcome for the same victim/prefix/schedule (e.g. from a
    :class:`repro.runner.BaselineCache`), so only the attack delta is
    re-propagated.  It must equal what ``engine.propagate`` would
    return for this schedule — the sweep runner guarantees that.

    ``secpol`` optionally deploys a security policy
    (:class:`repro.secpol.SecurityDeployment`) for the *attack*
    propagation only: policies activate at attack onset, judging the
    perturbed offers, while the honest baseline converges policy-free —
    which keeps baselines cacheable across policy configurations and
    models routes learned before deployment staying grandfathered until
    re-announced.
    """
    if origin_padding < 1:
        raise SimulationError("origin padding must be >= 1")
    attack = ASPPInterceptionAttack(
        attacker=attacker,
        victim=victim,
        strip_mode=strip_mode,
        keep=keep,
        violate_policy=violate_policy,
    )
    if prepending is None:
        prepending = PrependingPolicy.uniform_origin(victim, origin_padding)
    if baseline is None:
        baseline = engine.propagate(victim, prefix=prefix, prepending=prepending)
    elif baseline.origin != victim or baseline.prefix != prefix:
        raise SimulationError(
            "supplied baseline must come from the same victim and prefix"
        )
    attacked = engine.propagate(
        victim,
        prefix=prefix,
        prepending=prepending,
        modifiers={attacker: attack.modifier()},
        violators={attacker} if violate_policy else (),
        warm_start=baseline,
        secpol=secpol,
    )
    return InterceptionResult(
        attack=attack,
        origin_padding=origin_padding,
        baseline=baseline,
        attacked=attacked,
    )
