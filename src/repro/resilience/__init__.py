"""Resilient serving layer: fault injection, policies, fallback broker.

This package hardens the online MUAA broker for the conditions a
production ad system actually runs under: dependencies that throw and
stall, deliveries whose acks get lost, arrival streams that drop and
reorder.  Three pieces compose:

* :mod:`repro.resilience.faults` -- a deterministic, seeded
  fault-injection harness (:class:`FaultPlan`, :class:`FaultInjector`);
* :mod:`repro.resilience.policy` -- retry with exponential backoff and
  deterministic jitter, per-call timeouts, and per-dependency circuit
  breakers, all on an injectable clock
  (:mod:`repro.resilience.clock`);
* :mod:`repro.resilience.broker` -- :class:`ResilientBroker`, the
  hardened simulator with an O-AFA -> static-threshold ->
  nearest-vendor graceful-degradation chain and an idempotent commit
  path.  Its counters land in :class:`ResilienceStats`.

See ``docs/resilience.md`` for the full tour.
"""

from repro.resilience.broker import (
    GuardedProblem,
    GuardedUtilityModel,
    ResilienceStats,
    ResilientBroker,
)
from repro.resilience.clock import SimulatedClock, SystemClock
from repro.resilience.faults import (
    DEPENDENCIES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultyUtilityModel,
    perturb_arrivals,
)
from repro.resilience.policy import (
    BreakerState,
    CircuitBreaker,
    DependencyGuard,
    RetryPolicy,
)

__all__ = [
    "GuardedProblem",
    "GuardedUtilityModel",
    "ResilienceStats",
    "ResilientBroker",
    "SimulatedClock",
    "SystemClock",
    "DEPENDENCIES",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FaultyUtilityModel",
    "perturb_arrivals",
    "BreakerState",
    "CircuitBreaker",
    "DependencyGuard",
    "RetryPolicy",
]
