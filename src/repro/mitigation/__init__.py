"""Closed-loop mitigation: detect → re-announce → re-converge.

The source paper stops at detection; this package closes the loop the
way ARTEMIS does for classic hijacks — automatically, from the victim's
side, using the one knob the ASPP attack model exposes: the victim's
own origin padding λ.  The attacker's advantage is *manufactured from*
λ (stripping λ-1 copies shortens the malicious route by λ-1 hops), so
the victim can dismantle the attack by re-announcing with less padding:

* ``stepdown`` walks λ down one notch at a time (least collateral —
  traffic engineering is partially preserved);
* ``reset`` drops straight to the padding floor, making the attacker's
  strip a no-op (fastest neutralisation, forfeits the TE);
* ``none`` is the control arm every figure compares against.

:func:`run_closed_loop` drives the whole cycle over one synthesized
churn stream: the fault-tolerant :class:`StreamingPipeline` raises the
alarm, :class:`MitigationController` chooses the new λ and re-converges
the attack as a warm start from the cached λ' baseline, and the
resulting monitor updates are fed back through the pipeline — yielding
time-to-detect / time-to-mitigate / time-to-recover and residual
pollution per strategy, the figure family (figM1/figM2) the paper never
had.  :func:`reactive_padding_reduction` is the same countermeasure as
one step outside the loop (the ``ablation-defense`` row), with its
traffic-engineering cost.
"""

from repro.mitigation.controller import (
    ClosedLoopReport,
    MitigationController,
    MitigationPolicy,
    MitigationStep,
    mitigation_update_stream,
    run_closed_loop,
)
from repro.mitigation.reactive import MitigationOutcome, reactive_padding_reduction
from repro.mitigation.strategies import (
    MITIGATION_STRATEGIES,
    mitigated_padding,
)

__all__ = [
    "MITIGATION_STRATEGIES",
    "mitigated_padding",
    "MitigationPolicy",
    "MitigationStep",
    "MitigationController",
    "ClosedLoopReport",
    "mitigation_update_stream",
    "run_closed_loop",
    "MitigationOutcome",
    "reactive_padding_reduction",
]
