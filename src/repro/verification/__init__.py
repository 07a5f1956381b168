"""Exhaustive verification: closure, convergence, tolerance, stairs.

Single checks live in their own modules; the cached
:class:`~repro.verification.service.VerificationService` and the
process-pool batch runner in :mod:`repro.verification.parallel` wrap
them for repeated and fleet-wide verification.
"""

from repro.verification.checker import ToleranceReport
from repro.verification.closure import ClosureResult, ClosureWitness, check_closure
from repro.verification.convergence import (
    ConvergenceCounterexample,
    ConvergenceResult,
    check_convergence,
)
from repro.verification.counterexample import (
    format_computation,
    format_state,
    format_state_diff,
    format_states,
)
from repro.verification.explorer import (
    ENGINES,
    Transition,
    TransitionSystem,
    build_transition_system,
    explore,
    validate_engine,
)
from repro.verification.fairness_free import (
    ClosureComputationReport,
    FairnessFreeReport,
    check_closure_computations,
    check_fairness_free,
)
from repro.verification.liveness import (
    RecurrentClass,
    ServiceReport,
    check_service,
    recurrent_classes,
)
from repro.verification.parallel import (
    VerificationTask,
    batch_report,
    run_batch,
    verdicts_ok,
)
from repro.verification.service import (
    METHODS,
    ServiceVerdict,
    VerificationService,
    validate_method,
)
from repro.verification.stairs import StairReport, StairStep, check_stair
from repro.verification.synchronous import (
    SynchronousOrbit,
    SynchronousReport,
    check_synchronous_convergence,
    synchronous_orbit,
)

__all__ = [
    "ENGINES",
    "METHODS",
    "ClosureComputationReport",
    "ClosureResult",
    "ClosureWitness",
    "FairnessFreeReport",
    "check_closure_computations",
    "check_fairness_free",
    "ConvergenceCounterexample",
    "ConvergenceResult",
    "RecurrentClass",
    "ServiceReport",
    "ServiceVerdict",
    "StairReport",
    "StairStep",
    "SynchronousOrbit",
    "VerificationService",
    "VerificationTask",
    "batch_report",
    "check_service",
    "recurrent_classes",
    "SynchronousReport",
    "ToleranceReport",
    "check_synchronous_convergence",
    "synchronous_orbit",
    "Transition",
    "TransitionSystem",
    "build_transition_system",
    "check_closure",
    "check_convergence",
    "check_stair",
    "explore",
    "format_computation",
    "format_state",
    "format_state_diff",
    "format_states",
    "run_batch",
    "validate_engine",
    "validate_method",
    "verdicts_ok",
]
