"""Partial deployment of security policies over the AS graph.

"Who deploys" matters as much as "what is deployed": a policy on a
handful of Tier-1 transit networks filters far more traffic than the
same policy on thousands of stubs.  This module assigns one
:class:`~repro.secpol.policies.SecurityPolicy` to a *fraction* of the
ASes chosen by a named strategy, and packages the result as a
:class:`SecurityDeployment` — the single object the engine consumes
(duck-typed: the engine imports nothing from here).

Strategies (each yields a deterministic full ranking of its candidate
pool; a fraction ``f`` deploys the first ``round(f * pool)`` of it, so
the deployer sets are *nested* across fractions — which is what makes
the sweep curves interpretable):

* ``random`` — a seeded shuffle of every AS (the pessimistic baseline:
  adoption driven by unrelated incentives);
* ``top-degree-first`` — ASes by descending degree (the "big networks
  adopt first" optimistic scenario);
* ``tier1-only`` — the Tier-1 clique only, by descending degree (the
  fraction scales within that pool: ``f = 1.0`` means *all of Tier-1*,
  not all ASes);
* ``victim-cone`` — the victim's customer cone by descending degree
  (the victim's own ecosystem protects itself).

The victim and the attacker are always excluded from deployment: the
victim already originates the true route, and a policy on the attacker
would be self-defeating theatre.

:func:`simulate_cautious_deployment` is the PGBGP-flavoured ablation
(``ablation-defense``): :class:`PrependGuardPolicy` on a *random draw*
of ASes rather than a strategy's ranking.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from typing import Any

from repro.attack.impact import PollutionReport
from repro.attack.interception import simulate_interception
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import SimulationError
from repro.secpol.policies import (
    AspaPolicy,
    PrependGuardPolicy,
    RovPolicy,
    SecurityPolicy,
    padding_registry,
)
from repro.topology.asgraph import ASGraph
from repro.topology.tiers import customer_cone, tier1_ases
from repro.utils.rand import derive_rng, make_rng

__all__ = [
    "POLICIES",
    "STRATEGIES",
    "SecurityDeployment",
    "build_deployment",
    "deployment_ranking",
    "make_policy",
    "select_deployers",
    "simulate_cautious_deployment",
]

#: Policy names accepted by :func:`make_policy` and the CLI ("none" is
#: additionally accepted wherever a deployment is optional).
POLICIES = ("rov", "aspa", "prependguard")

#: Deployment strategy names.
STRATEGIES = ("random", "top-degree-first", "tier1-only", "victim-cone")


class SecurityDeployment:
    """One policy deployed at a concrete set of ASes.

    This is the object handed to ``PropagationEngine.propagate(...,
    secpol=)``.  The engines only rely on three attributes — the
    ``deployers`` tuple, tuple-space ``check`` and pid-space
    ``compiled_checker`` — so the bgp package never imports secpol
    (no cycle), and tests can hand-roll deployments with ad-hoc
    policies.
    """

    __slots__ = ("policy", "deployers")

    def __init__(self, policy: SecurityPolicy, deployers: Iterable[int]) -> None:
        self.policy = policy
        self.deployers = tuple(deployers)

    @property
    def name(self) -> str:
        return self.policy.name

    def check(self, receiver: int, sender: int, path: tuple[int, ...]) -> bool:
        return self.policy.check(receiver, sender, path)

    def compiled_checker(self, table: Any):
        return self.policy.compiled_checker(table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SecurityDeployment(policy={self.policy.name!r}, "
            f"deployers={len(self.deployers)})"
        )


def deployment_ranking(
    graph: ASGraph,
    strategy: str,
    *,
    victim: int | None = None,
    seed: int = 0,
) -> tuple[int, ...]:
    """The strategy's full candidate ranking (before any exclusions).

    Deterministic for a given ``(graph, strategy, victim, seed)``, and
    independent of the deployment fraction — sweeps slice prefixes of
    one ranking, so deployer sets are nested across fractions.
    """
    if strategy == "random":
        order = list(graph.ases)
        derive_rng(make_rng(seed), "secpol.deployment").shuffle(order)
        return tuple(order)
    if strategy == "top-degree-first":
        return tuple(sorted(graph.ases, key=lambda a: (-graph.degree(a), a)))
    if strategy == "tier1-only":
        return tuple(sorted(tier1_ases(graph), key=lambda a: (-graph.degree(a), a)))
    if strategy == "victim-cone":
        if victim is None:
            raise SimulationError("the victim-cone strategy needs a victim")
        cone = customer_cone(graph, victim)
        return tuple(sorted(cone, key=lambda a: (-graph.degree(a), a)))
    raise SimulationError(
        f"unknown deployment strategy {strategy!r}; expected one of {STRATEGIES}"
    )


def select_deployers(
    ranking: Iterable[int],
    fraction: float,
    *,
    exclude: Iterable[int] = (),
) -> tuple[int, ...]:
    """The first ``round(fraction * pool)`` of ``ranking``, after
    dropping excluded ASes (the pool is what remains eligible)."""
    if not 0.0 <= fraction <= 1.0:
        raise SimulationError(f"deployment fraction must be in [0, 1], got {fraction}")
    excluded = set(exclude)
    eligible = [a for a in ranking if a not in excluded]
    return tuple(eligible[: round(fraction * len(eligible))])


def make_policy(
    name: str,
    *,
    graph: ASGraph,
    victim: int,
    registry: Mapping[int, int] | None = None,
) -> SecurityPolicy:
    """Instantiate a policy by CLI/config name."""
    if name == "rov":
        return RovPolicy(victim)
    if name == "aspa":
        return AspaPolicy(graph)
    if name == "prependguard":
        if registry is None:
            raise SimulationError(
                "prependguard needs a padding registry (pass registry= or "
                "build the deployment from a baseline outcome)"
            )
        return PrependGuardPolicy(victim, registry)
    raise SimulationError(
        f"unknown security policy {name!r}; expected one of {POLICIES}"
    )


def build_deployment(
    graph: ASGraph,
    *,
    policy: str,
    strategy: str,
    fraction: float,
    victim: int,
    attacker: int,
    seed: int = 0,
    baseline: Any | None = None,
    registry: Mapping[int, int] | None = None,
) -> SecurityDeployment | None:
    """Assemble the deployment for one sweep point.

    Returns ``None`` when nothing is actually deployed (``policy`` is
    ``"none"``/``None``, or the fraction rounds to zero deployers) so
    the caller propagates through the *exact* pristine code path — the
    ``fraction == 0.0`` no-op tripwire in the differential suite counts
    on this.  ``prependguard`` derives its padding registry from
    ``baseline`` (the honest converged outcome) unless an explicit
    ``registry`` is given.
    """
    if policy is None or policy == "none" or fraction <= 0.0:
        return None
    ranking = deployment_ranking(graph, strategy, victim=victim, seed=seed)
    deployers = select_deployers(ranking, fraction, exclude=(victim, attacker))
    if not deployers:
        return None
    if policy == "prependguard" and registry is None:
        if baseline is None:
            raise SimulationError(
                "building a prependguard deployment needs the honest baseline "
                "outcome (or an explicit registry)"
            )
        registry = padding_registry(baseline, victim)
    return SecurityDeployment(
        make_policy(policy, graph=graph, victim=victim, registry=registry),
        deployers,
    )


def simulate_cautious_deployment(
    engine: PropagationEngine,
    *,
    victim: int,
    attacker: int,
    origin_padding: int,
    deployment_fraction: float,
    rng: random.Random,
    deployers: Iterable[int] | None = None,
) -> PollutionReport:
    """Residual attack pollution with :class:`PrependGuardPolicy` partially
    deployed.

    ``deployment_fraction`` of the ASes other than the victim and the
    attacker — drawn by ``rng.sample``, or the explicit ``deployers`` —
    guard the victim's prefix with the padding registry of the honest
    baseline.  Returns the pollution report of the attack against the
    defended network.
    """
    if not 0.0 <= deployment_fraction <= 1.0:
        raise SimulationError("deployment fraction must be in [0, 1]")
    prepending = PrependingPolicy.uniform_origin(victim, origin_padding)
    baseline = engine.propagate(victim, prepending=prepending)
    if deployers is None:
        pool = [asn for asn in engine.graph.ases if asn not in (victim, attacker)]
        count = round(deployment_fraction * len(pool))
        deployers = rng.sample(pool, count) if count else []
    guard = PrependGuardPolicy(victim, padding_registry(baseline, victim))
    return simulate_interception(
        engine,
        victim=victim,
        attacker=attacker,
        origin_padding=origin_padding,
        prepending=prepending,
        baseline=baseline,
        secpol=SecurityDeployment(guard, deployers),
    ).report
