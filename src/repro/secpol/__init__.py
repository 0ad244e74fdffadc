"""Security-policy deployment layer (ROV, ASPA-like, PrependGuard).

The paper's thesis is that ASPP-based interception forges neither the
origin nor any AS link — which is precisely what makes origin
validation blind to it.  This package lets the simulation *show* that:
:mod:`repro.secpol.policies` implements the receiver-side policies
(each stated in tuple space and evaluated by the engine in interned pid
space), and :mod:`repro.secpol.deployment` assigns a policy to a swept
fraction of ASes under named deployment strategies.  The resulting
:class:`SecurityDeployment` plugs into
``PropagationEngine.propagate(..., secpol=)``; the ``deployment_sweep``
experiment family (fig-D1/fig-D2) quantifies residual pollution per
policy × strategy × fraction, and :func:`simulate_cautious_deployment`
(the ``ablation-defense`` rows) per random deployment fraction of
:class:`PrependGuardPolicy`.
"""

from repro.secpol.deployment import (
    POLICIES,
    STRATEGIES,
    SecurityDeployment,
    build_deployment,
    deployment_ranking,
    make_policy,
    select_deployers,
    simulate_cautious_deployment,
)
from repro.secpol.policies import (
    AspaPolicy,
    PrependGuardPolicy,
    RovPolicy,
    SecurityPolicy,
    padding_registry,
)

__all__ = [
    "POLICIES",
    "STRATEGIES",
    "AspaPolicy",
    "PrependGuardPolicy",
    "RovPolicy",
    "SecurityDeployment",
    "SecurityPolicy",
    "build_deployment",
    "deployment_ranking",
    "make_policy",
    "padding_registry",
    "select_deployers",
    "simulate_cautious_deployment",
]
