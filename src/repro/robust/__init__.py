"""Fault-tolerant execution layer for the evaluation harness.

The TRIPS prototype recovers from misspeculation by flushing and
refilling blocks atomically; this package gives the *harness* the same
discipline around its own faults: detect, contain, retry or degrade,
and report exactly what happened.

Four pieces, each usable on its own:

* :mod:`repro.robust.errors` — the structured error taxonomy
  (:class:`StageError`, :class:`WorkerCrash`, :class:`StageTimeout`,
  :class:`CacheCorruption`, :class:`SimulationBudgetExceeded`), every
  instance carrying stage/benchmark/digest context.
* :mod:`repro.robust.retry` — :class:`RetryPolicy`, capped exponential
  backoff whose jitter is seeded (never wall-clock random).
* :mod:`repro.robust.report` — :class:`RunReport`, the per-unit outcome
  ledger every ``report``/``run`` invocation fills in.
* :mod:`repro.robust.faults` — :class:`FaultPlan`, the deterministic
  fault-injection harness behind ``repro chaos`` and the chaos tests.
* :mod:`repro.robust.supervise` — :func:`supervise_units`, the generic
  supervised process-pool fan-out shared by the ``report`` warm phase
  and the ``repro.explore`` sweep engine.

See ``docs/ROBUSTNESS.md`` for the full semantics.
"""

from repro.robust.errors import (
    CacheCorruption, RobustError, SimulationBudgetExceeded, StageError,
    StageTimeout, WorkerCrash,
)
from repro.robust.faults import (
    FAULT_KINDS, Fault, FaultPlan, InjectedFault, KILL_EXIT_CODE,
    apply_driver_fault, apply_unit_faults, maybe_corrupt,
)
from repro.robust.report import (
    COMPLETED, DEGRADED, FAILED, RETRIED, RunReport, UnitOutcome,
)
from repro.robust.retry import RetryPolicy
from repro.robust.supervise import replace_pool, supervise_units

__all__ = [
    "COMPLETED",
    "CacheCorruption",
    "DEGRADED",
    "FAILED",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "KILL_EXIT_CODE",
    "RETRIED",
    "RetryPolicy",
    "RobustError",
    "RunReport",
    "SimulationBudgetExceeded",
    "StageError",
    "StageTimeout",
    "UnitOutcome",
    "WorkerCrash",
    "apply_driver_fault",
    "apply_unit_faults",
    "maybe_corrupt",
    "replace_pool",
    "supervise_units",
]
