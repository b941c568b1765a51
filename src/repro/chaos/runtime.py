"""Per-epoch chaos wiring: plan -> injector + invariant checker.

:class:`ChaosRuntime` is the object callers thread through
``TrainingSystem.run_epoch(chaos=...)`` (or hand to
:class:`~repro.core.pipeline.PipelineRunner` via
``pipeline_kwargs()``).  It is deliberately *one-shot*: the invariant
checker accumulates per-run state, so build a fresh runtime for every
simulated epoch.  The checker is always armed and strict; the
collective watchdog keeps the runner's defaults (timeout auto-scaled
to the costliest batch, three retries).  Serving passes take their
plan directly (:func:`repro.serve.sweep.serve_pass`).

When the plan is fault-free the runtime sets ``injector=None`` and arms
no collective watchdog, so the pristine replay path runs unchanged —
the bit-identity guarantee the property tests assert.
"""

from __future__ import annotations

from repro.chaos.faults import FaultPlan
from repro.chaos.injector import FaultInjector
from repro.chaos.invariants import InvariantChecker


class ChaosRuntime:
    """One epoch's worth of fault injection + invariant auditing."""

    def __init__(self, plan: FaultPlan | None = None, tracer=None):
        self.plan = plan if plan is not None else FaultPlan()
        self.injector = (
            None if self.plan.fault_free
            else FaultInjector(self.plan, tracer=tracer)
        )
        self.invariants = InvariantChecker(tracer=tracer)

    def pipeline_kwargs(self) -> dict:
        """Keyword arguments for :class:`~repro.core.pipeline.PipelineRunner`."""
        return {"injector": self.injector, "invariants": self.invariants}


__all__ = ["ChaosRuntime"]
