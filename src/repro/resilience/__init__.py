"""Resilient execution layer: budgets, verified retries, fallback chain,
checkpoint/resume, and deterministic fault injection.

See ``docs/robustness.md`` for the budget/retry/fallback contract, the
executor's ``sync`` retry after a broken pool, and the checkpoint file
format.

Only the leaf modules (:mod:`~repro.resilience.budget`,
:mod:`~repro.resilience.faults`) load eagerly — they are imported by
the PRAM substrate's checkpoint and fault hooks, so anything heavier
here would be an import cycle.  The driver, verifier, and checkpoint
store re-export lazily.
"""

from repro.resilience.budget import Budget, active_budget, budget_scope, checkpoint
from repro.resilience.faults import (
    ALL_SITES,
    SERVICE_SITES,
    Fault,
    FaultPlan,
    canonical_plans,
    inject,
)

__all__ = [
    "Budget",
    "active_budget",
    "budget_scope",
    "checkpoint",
    "resilient_minimum_cut",
    "escalated_params",
    "Fault",
    "FaultPlan",
    "ALL_SITES",
    "SERVICE_SITES",
    "canonical_plans",
    "inject",
    "DriverCheckpoint",
    "run_fingerprint",
    "VerificationReport",
    "verify_cut",
    "one_respecting_upper_bound",
]

_LAZY = {
    "resilient_minimum_cut": "repro.resilience.driver",
    "escalated_params": "repro.resilience.driver",
    "DriverCheckpoint": "repro.resilience.checkpointing",
    "run_fingerprint": "repro.resilience.checkpointing",
    "VerificationReport": "repro.resilience.verify",
    "verify_cut": "repro.resilience.verify",
    "one_respecting_upper_bound": "repro.resilience.verify",
}


def __getattr__(name: str):
    # Lazy: the driver/verifier import the algorithm layers, which import
    # the PRAM substrate, whose hooks import this package's leaf modules.
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.resilience' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
