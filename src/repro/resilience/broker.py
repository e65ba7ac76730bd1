"""The resilient online broker: O-AFA serving that survives its
dependencies.

:class:`ResilientBroker` is the hardened counterpart of
:class:`~repro.stream.simulator.OnlineSimulator`.  It drives the same
customer-at-a-time protocol, but every dependency of the decision path
is wrapped:

* the **utility model** and **spatial index** calls go through a
  :class:`~repro.resilience.policy.DependencyGuard` (retry with
  deterministic-jitter backoff, per-call timeout, circuit breaker) on
  top of seeded fault injection;
* decisions flow through a graceful-degradation
  :class:`~repro.algorithms.fallback.FallbackChain`
  (O-AFA -> static-threshold O-AFA -> nearest-vendor), so an open
  breaker degrades quality instead of availability;
* the **commit path** is idempotent: every delivery attempt goes
  through the one pair-level
  :meth:`~repro.core.assignment.Assignment.commit`, so a re-attempt
  caused by a lost acknowledgement is recognised as a duplicate and a
  vendor's budget is never charged twice for one ad.

The broker never raises out of :meth:`ResilientBroker.run`: when every
tier fails for a customer, that decision is abandoned (counted) and the
stream continues.  All counters land in :class:`ResilienceStats` on the
returned :class:`~repro.stream.simulator.StreamResult`.

The broker has no per-arrival loop of its own: it runs the simulator's
(churn, routing, the timed decision, the deadline drop and the commit
loop) with a guarded view per shard, a decide step that walks the
chain, and its retrying commit.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import OnlineAlgorithm
from repro.algorithms.calibration import calibrate_from_problem
from repro.algorithms.fallback import FallbackChain, FallbackTier
from repro.algorithms.nearest import NearestVendor
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.algorithms.online_static import OnlineStaticThreshold
from repro.core.assignment import (
    COMMITTED,
    DUPLICATE,
    REJECTED,
    AdInstance,
    Assignment,
)
from repro.core.entities import AdType, Customer, Vendor
from repro.core.problem import MUAAProblem
from repro.exceptions import ResilienceError, TransientError
from repro.obs.recorder import recorder
from repro.resilience.clock import SimulatedClock
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultyUtilityModel,
    perturb_arrivals,
)
from repro.resilience.policy import (
    BreakerHistory,
    CircuitBreaker,
    DependencyGuard,
    RetryPolicy,
)
from repro.stream.arrivals import by_arrival_time
from repro.stream.simulator import StreamResult, _run_arrivals
from repro.utility.model import DelegatingUtilityModel, UtilityModel

logger = logging.getLogger(__name__)

#: Outcome of :meth:`ResilientBroker._commit` when every delivery
#: attempt failed (beside ``COMMITTED`` and ``REJECTED``).
_FAILED = "failed"


@dataclass
class ResilienceStats(BreakerHistory):
    """Operational counters of one resilient (fault-injected) stream.

    Produced by :class:`ResilientBroker`; plain data, carried on
    :attr:`StreamResult.resilience`.

    Attributes:
        retries: Dependency-call retries performed (backoff waits).
        timeouts: Per-call timeout failures observed.
        faults_injected: ``"dependency:kind"`` -> injected fault count.
        breaker_transitions: ``(dependency, time, from, to)`` breaker
            state changes, in order (rolled up by
            :class:`~repro.resilience.policy.BreakerHistory`).
        degraded_decisions: Decisions served by a fallback tier rather
            than the primary algorithm.
        decisions_by_tier: Tier name -> decisions served by that tier.
        decisions_abandoned: Customers for whom every tier failed (the
            broker served no ads but did not crash).
        duplicates_suppressed: Delivery re-attempts recognised as
            already-committed (a lost ack would otherwise have
            double-charged the vendor).
        deliveries_failed: Decided instances whose commit failed every
            attempt (the ad was decided but never delivered).
        arrivals_dropped: Customers lost upstream of the broker.
        arrivals_reordered: Customers delivered out of arrival order.
        exhausted_skips: Candidate-scan skips of deactivated vendors
            and of vendors the run's assignment has exhausted
            (``churn.skips``; see ``MUAAProblem.valid_vendor_ids``).
        vendors_deactivated: Vendors auto-deactivated after their
            remaining budget dropped below the cheapest ad price.
        churn_epoch: The churn epoch at the end of the run (0 when no
            churn was applied).
        clean_latencies: Decision latencies of fault-free decisions.
        degraded_latencies: Decision latencies of decisions that hit at
            least one fault, retry, or fallback (the fault-conditioned
            tail).
    """

    retries: int = 0
    timeouts: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)
    breaker_transitions: List[Tuple[str, float, str, str]] = field(
        default_factory=list
    )
    degraded_decisions: int = 0
    decisions_by_tier: Dict[str, int] = field(default_factory=dict)
    decisions_abandoned: int = 0
    duplicates_suppressed: int = 0
    deliveries_failed: int = 0
    arrivals_dropped: int = 0
    arrivals_reordered: int = 0
    exhausted_skips: int = 0
    vendors_deactivated: int = 0
    churn_epoch: int = 0
    clean_latencies: List[float] = field(default_factory=list)
    degraded_latencies: List[float] = field(default_factory=list)

    @property
    def total_faults(self) -> int:
        """Total injected faults across dependencies and kinds."""
        return sum(self.faults_injected.values())

    def as_extras(self) -> Dict[str, float]:
        """Flat float counters for :class:`SolveResult` ``extras``."""
        extras = {
            "retries": float(self.retries),
            "timeouts": float(self.timeouts),
            "faults_injected": float(self.total_faults),
            "breaker_transitions": float(len(self.breaker_transitions)),
            "breaker_opens": float(self.breaker_opens),
            "degraded_decisions": float(self.degraded_decisions),
            "decisions_abandoned": float(self.decisions_abandoned),
            "duplicates_suppressed": float(self.duplicates_suppressed),
            "deliveries_failed": float(self.deliveries_failed),
            "arrivals_dropped": float(self.arrivals_dropped),
            "arrivals_reordered": float(self.arrivals_reordered),
            "exhausted_skips": float(self.exhausted_skips),
            "vendors_deactivated": float(self.vendors_deactivated),
            "churn_epoch": float(self.churn_epoch),
        }
        extras.update(self.breaker_extras(""))
        return extras


class GuardedUtilityModel(DelegatingUtilityModel):
    """A utility model whose every evaluation runs under a guard.

    The inner model is typically a
    :class:`~repro.resilience.faults.FaultyUtilityModel`; the guard
    supplies retry/backoff, timeout, and circuit breaking, so transient
    utility-service faults are absorbed here and only persistent
    outages surface to the fallback chain.
    """

    def __init__(self, inner: UtilityModel, guard: DependencyGuard) -> None:
        super().__init__(inner)
        self._guard = guard

    def pair_base(self, customer: Customer, vendor: Vendor) -> float:
        return self._guard.call(lambda: self.inner.pair_base(customer, vendor))

    def utility(
        self, customer: Customer, vendor: Vendor, ad_type: AdType
    ) -> float:
        if self.inner.type_sensitive:
            return self._guard.call(
                lambda: self.inner.utility(customer, vendor, ad_type)
            )
        return self.pair_base(customer, vendor) * ad_type.effectiveness


class GuardedProblem(MUAAProblem):
    """A problem view whose remote-ish dependencies are guarded.

    Shares the base problem's entities and budgets but substitutes a
    guarded utility model and routes vendor-side range queries (the
    online algorithms' spatial dependency) through fault injection and
    a dependency guard.  Values are never altered, so anything decided
    against this view validates against the pristine problem.
    """

    def __init__(
        self,
        base: MUAAProblem,
        utility_model: UtilityModel,
        injector: FaultInjector,
        spatial_guard: Optional[DependencyGuard] = None,
    ) -> None:
        # The engine would batch-evaluate utilities outside the guard;
        # fault injection must see every evaluation, so force the
        # scalar path (the guarded model type is rejected by the engine
        # anyway -- this makes the intent explicit).
        super().__init__(
            customers=base.customers,
            vendors=base.vendors,
            ad_types=base.ad_types,
            utility_model=utility_model,
            pair_validator=base._pair_validator,
            spatial_backend=base._spatial_backend,
            use_engine=False,
            churn=base.churn,
        )
        self._injector = injector
        self._spatial_guard = spatial_guard

    def valid_vendor_ids(
        self, customer: Customer, assignment: Optional[Assignment] = None
    ) -> List[int]:
        def attempt() -> List[int]:
            self._injector.before_call("spatial")
            return MUAAProblem.valid_vendor_ids(self, customer, assignment)

        if self._spatial_guard is None:
            return attempt()
        return self._spatial_guard.call(attempt)


class ResilientBroker:
    """Fault-tolerant online serving over one MUAA instance.

    Args:
        problem: The pristine MUAA instance (ground truth for budgets,
            utilities, and validation).
        plan: Seeded fault plan; ``None`` injects nothing (the broker
            then behaves like the plain simulator plus bookkeeping).
        primary: Primary decision algorithm; defaults to O-AFA with
            thresholds calibrated from the pristine instance.
        chain: Full custom fallback chain, overriding ``primary`` and
            the default tiers.  The default chain is
            primary -> static-threshold O-AFA -> nearest-vendor, with
            the last tier reading the pristine problem directly (it is
            the dependency-free local mode).
        clock: Clock driving backoff, breakers, timeouts, and latency
            accounting.  Defaults to a fresh
            :class:`~repro.resilience.clock.SimulatedClock` -- the
            broker is first a chaos harness, and a simulated clock
            makes every run deterministic.  Pass
            :class:`~repro.resilience.clock.SystemClock` for wall-clock
            serving.
        retry: Retry/backoff policy shared by all guards.
        breaker_failure_threshold: Consecutive failures tripping a
            dependency's breaker.
        breaker_recovery_timeout: Open-state cool-down (seconds on the
            injected clock).
        call_timeout: Optional per-dependency-call budget in seconds.
        decision_deadline: Optional per-customer decision deadline;
            like the simulator's, late decisions lose the customer.
        shard_plan: Optional :class:`~repro.sharding.ShardPlan`.  Each
            arriving customer is routed by location to one shard and
            decided against a guarded view of that shard only, so a
            decision touches one shard's columns.  Commits, validation,
            and the dependency-free nearest-vendor tier stay on the
            pristine global problem.
    """

    def __init__(
        self,
        problem: MUAAProblem,
        plan: Optional[FaultPlan] = None,
        primary: Optional[OnlineAlgorithm] = None,
        chain: Optional[Sequence[FallbackTier]] = None,
        clock=None,
        retry: Optional[RetryPolicy] = None,
        breaker_failure_threshold: int = 5,
        breaker_recovery_timeout: float = 5.0,
        call_timeout: Optional[float] = None,
        decision_deadline: Optional[float] = None,
        shard_plan=None,
    ) -> None:
        self._problem = problem
        self._plan = plan if plan is not None else FaultPlan()
        self._primary = primary
        self._chain_spec = list(chain) if chain is not None else None
        self._clock = clock if clock is not None else SimulatedClock()
        self._retry = retry or RetryPolicy()
        self._breaker_failure_threshold = breaker_failure_threshold
        self._breaker_recovery_timeout = breaker_recovery_timeout
        self._call_timeout = call_timeout
        self._decision_deadline = decision_deadline
        self._shard_plan = shard_plan

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _default_primary(self) -> OnlineAlgorithm:
        try:
            bounds = calibrate_from_problem(self._problem, seed=self._plan.seed)
        except ValueError:
            logger.warning(
                "calibration found no positive efficiencies; "
                "using a static-threshold primary"
            )
            return OnlineStaticThreshold(0.0)
        return OnlineAdaptiveFactorAware(
            gamma_min=bounds.gamma_min, g=bounds.g
        )

    def _build_chain(self) -> FallbackChain:
        if self._chain_spec is not None:
            return FallbackChain(self._chain_spec)
        primary = self._primary or self._default_primary()
        return FallbackChain(
            [
                FallbackTier(primary),
                FallbackTier(OnlineStaticThreshold(0.0)),
                # Last resort: utility-oblivious local mode on the
                # pristine problem -- it needs no remote dependency, so
                # it stays available whatever the fault plan does.
                FallbackTier(NearestVendor(), problem=self._problem),
            ]
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def run(
        self,
        arrivals: Optional[Sequence[Customer]] = None,
        churn=None,
    ) -> StreamResult:
        """Serve one full stream under the configured fault plan.

        Never raises for any seeded fault plan: per-customer failures
        degrade or abandon that decision and the stream continues.

        Args:
            arrivals: Arrival order (arrival-time order by default).
            churn: Optional :class:`~repro.churn.ChurnSchedule`.  Events
                scheduled at arrival index ``t`` are applied -- through
                the broker's shard plan when one was supplied, else
                directly on the pristine problem -- before customer
                ``t`` is decided.  Guarded views are scalar and cheap,
                so one built before the last event is rebuilt on its
                next use.

        Returns:
            A :class:`StreamResult` whose ``resilience`` field carries
            the full fault/retry/breaker accounting.
        """
        problem, plan, clock = self._problem, self._plan, self._clock
        stats = ResilienceStats()
        injector = FaultInjector(plan, clock)
        jitter_rng = random.Random(f"{plan.seed}:jitter")
        guards = [
            DependencyGuard(
                name,
                clock,
                retry=self._retry,
                breaker=CircuitBreaker(
                    name,
                    clock,
                    failure_threshold=self._breaker_failure_threshold,
                    recovery_timeout=self._breaker_recovery_timeout,
                ),
                timeout=self._call_timeout,
                rng=jitter_rng,
            )
            for name in ("utility", "spatial")
        ]
        utility_guard, spatial_guard = guards
        guarded_model = GuardedUtilityModel(
            FaultyUtilityModel(problem.utility_model, injector), utility_guard
        )
        # Guarded views of the global problem and of the shard views
        # decisions actually touch, built lazily; all share the one
        # guarded model/injector so the fault accounting stays global.
        # A guarded view copies the entity catalogue, so one built
        # before the last churn event is rebuilt (scalar views, no
        # engine -- cheap by construction).
        guarded: Dict[MUAAProblem, Tuple[int, GuardedProblem]] = {}

        def view(base: MUAAProblem) -> GuardedProblem:
            epoch = problem.churn.epoch
            cached = guarded.get(base)
            if cached is None or cached[0] != epoch:
                cached = guarded[base] = (
                    epoch,
                    GuardedProblem(base, guarded_model, injector, spatial_guard),
                )
            return cached[1]

        chain = self._build_chain()
        chain.reset(view(problem))
        rec = recorder()
        #: Per decision, in arrival order: did it hit a fault, a retry
        #: or a fallback tier?
        degraded: List[bool] = []

        def decide(target, customer, assignment):
            faults_before = injector.total_faults
            retries_before = sum(g.retries for g in guards)
            try:
                picked = chain.process_customer(target, customer, assignment)
            except ResilienceError as exc:
                stats.decisions_abandoned += 1
                rec.count("broker.decisions_abandoned")
                logger.warning(
                    "every tier failed for customer %d (%s); "
                    "decision abandoned",
                    customer.customer_id,
                    exc,
                )
                degraded.append(True)
                return []
            fallback = chain.last_tier_used > 0
            if fallback:
                rec.count("broker.degraded_decisions")
            degraded.append(
                fallback
                or injector.total_faults > faults_before
                or sum(g.retries for g in guards) > retries_before
            )
            return picked

        if arrivals is None:
            arrivals = by_arrival_time(problem.customers)
        arrivals, dropped, reordered = perturb_arrivals(arrivals, plan)
        stats.arrivals_dropped = dropped
        stats.arrivals_reordered = reordered

        assignment = problem.new_assignment()
        result = StreamResult(assignment=assignment, resilience=stats)
        _run_arrivals(
            problem,
            arrivals,
            result,
            decide,
            clock,
            "broker",
            view=view,
            commit=lambda instance: self._commit(
                instance, assignment, injector, stats, jitter_rng
            ),
            decision_deadline=self._decision_deadline,
            shard_plan=self._shard_plan,
            churn=churn,
        )
        for elapsed, hit in zip(result.latencies, degraded):
            (stats.degraded_latencies if hit
             else stats.clean_latencies).append(elapsed)
        stats.churn_epoch = result.churn_epoch
        stats.exhausted_skips = result.exhausted_skips
        stats.vendors_deactivated = result.vendors_deactivated
        stats.retries += sum(g.retries for g in guards)
        stats.timeouts = sum(g.timeouts for g in guards)
        stats.faults_injected = {
            f"{dep}:{kind}": count
            for (dep, kind), count in sorted(injector.counts.items())
        }
        transitions = [
            (guard.name, when, from_state.value, to_state.value)
            for guard in guards
            for when, from_state, to_state in guard.breaker.transitions
        ]
        transitions.sort(key=lambda item: item[1])
        stats.breaker_transitions = transitions
        stats.degraded_decisions = (
            chain.degraded_decisions + stats.decisions_abandoned
        )
        stats.decisions_by_tier = {
            chain.tiers[i].name: count
            for i, count in enumerate(chain.decisions_by_tier)
            if count
        }
        logger.info(
            "stream served: %d ads, %d degraded decisions, %d retries, "
            "%d breaker transitions, %d duplicates suppressed",
            len(assignment),
            stats.degraded_decisions,
            stats.retries,
            len(stats.breaker_transitions),
            stats.duplicates_suppressed,
        )
        return result

    # ------------------------------------------------------------------
    # Idempotent commit path
    # ------------------------------------------------------------------
    def _commit(
        self,
        instance: AdInstance,
        assignment: Assignment,
        injector: FaultInjector,
        stats: ResilienceStats,
        rng: random.Random,
    ) -> str:
        """Commit one delivery with retries and duplicate suppression.

        The commit itself is local and atomic; what the fault plan can
        break is the *round trip* -- a transient before the commit, or a
        lost acknowledgement after it.  The retry loop is idempotent:
        a re-attempt that finds the identical instance already
        committed counts as a suppressed duplicate, never as a second
        budget charge.
        """
        for attempt in range(self._retry.max_attempts):
            try:
                injector.before_call("commit")
            except TransientError:
                if attempt + 1 >= self._retry.max_attempts:
                    logger.warning(
                        "delivery of %s failed after %d attempts",
                        instance,
                        attempt + 1,
                    )
                    stats.deliveries_failed += 1
                    return _FAILED
                stats.retries += 1
                self._clock.sleep(self._retry.backoff(attempt, rng))
                continue
            outcome = assignment.commit(instance)
            if outcome == DUPLICATE:
                # A previous attempt committed but its ack was lost;
                # recognise and suppress the duplicate.
                stats.duplicates_suppressed += 1
                logger.debug("suppressed duplicate delivery %s", instance)
                return COMMITTED
            if outcome == REJECTED or not injector.ack_lost():
                return outcome
            # Committed, but the broker does not know -- re-attempt as a
            # real at-least-once delivery pipeline would.
            stats.retries += 1
        # Attempts exhausted with the ack still lost: the ad *was*
        # delivered exactly once; only our confirmation is missing.
        return COMMITTED
