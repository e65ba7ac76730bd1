"""Streaming simulator for the online MUAA setting (Section IV).

Customers arrive one at a time; the online algorithm must decide that
customer's ads immediately, seeing only the static vendor state and the
budgets consumed so far.  The simulator owns the committed assignment
(so budgets are authoritative), measures per-customer decision latency,
and can wrap any online algorithm as an offline one for the shared
experiment harness.  Its per-arrival loop is the only one:
:class:`~repro.resilience.broker.ResilientBroker` drives the same loop
with its own guarded views, decide step and retrying commit.

All timing flows through an injectable clock (any zero-argument
callable returning monotonic seconds, e.g.
:class:`repro.resilience.clock.SimulatedClock`); the default remains
wall-clock ``time.perf_counter``, but with a simulated clock the
decision-deadline drop path is fully deterministic and testable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.algorithms.base import OfflineAlgorithm, OnlineAlgorithm, SolveResult
from repro.core.assignment import (
    COMMITTED,
    DUPLICATE,
    REJECTED,
    AdInstance,
    Assignment,
)
from repro.core.entities import Customer
from repro.core.problem import MUAAProblem
from repro.obs.recorder import recorder
from repro.stream.arrivals import by_arrival_time

if TYPE_CHECKING:
    from repro.resilience.broker import ResilienceStats


@dataclass
class StreamResult:
    """Outcome of simulating one customer stream.

    Attributes:
        assignment: All committed ad instances.
        latencies: Per-customer decision seconds (on the driving
            clock), in arrival order.
        rejected_instances: Instances the algorithm returned but the
            simulator refused (infeasible against committed state);
            a correct algorithm keeps this at zero.
        customers_lost: Customers whose decision exceeded the configured
            deadline (they went inactive before the broker answered).
        resilience: Fault/retry/breaker counters when the stream was
            driven by the resilient broker; ``None`` for plain runs.
        churn_epoch: Churn epoch at the end of the stream (0 when no
            churn schedule was supplied).
        exhausted_skips: Candidate-scan skips of deactivated vendors.
        vendors_deactivated: Vendors auto-deactivated mid-stream after
            exhausting their budget.
    """

    assignment: Assignment
    latencies: List[float] = field(default_factory=list)
    rejected_instances: int = 0
    customers_lost: int = 0
    resilience: Optional["ResilienceStats"] = None
    churn_epoch: int = 0
    exhausted_skips: int = 0
    vendors_deactivated: int = 0

    @property
    def total_utility(self) -> float:
        """Overall utility of the committed assignment."""
        return self.assignment.total_utility

    @property
    def mean_latency(self) -> float:
        """Mean per-customer decision time in seconds."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


class OnlineSimulator:
    """Drives an online algorithm over an arrival sequence.

    Args:
        problem: The MUAA instance; its customer list is only used when
            no explicit arrival sequence is supplied (then arrival-time
            order is used).
        clock: Zero-argument callable returning monotonic seconds,
            used for latency measurement and deadline enforcement.
            Defaults to wall-clock ``time.perf_counter``; inject a
            :class:`repro.resilience.clock.SimulatedClock` for
            deterministic deadline tests.
    """

    def __init__(
        self,
        problem: MUAAProblem,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._problem = problem
        self._clock: Callable[[], float] = clock or time.perf_counter

    def run(
        self,
        algorithm: OnlineAlgorithm,
        arrivals: Optional[Sequence[Customer]] = None,
        measure_latency: bool = True,
        decision_deadline: Optional[float] = None,
        warm_engine: bool = False,
        shard_plan=None,
        churn=None,
        churn_cold_rebuild: bool = False,
        moves=None,
    ) -> StreamResult:
        """Simulate the stream and return the committed assignment.

        Each instance returned by the algorithm is validated against the
        committed state before being applied; infeasible ones are
        counted and dropped rather than corrupting budgets.

        Args:
            algorithm: The online algorithm under test.
            arrivals: Arrival order (arrival-time order by default).
            measure_latency: Record per-customer decision seconds.
            decision_deadline: When set, a customer whose decision took
                longer than this many seconds is *lost* -- their ads are
                dropped (counted in ``customers_lost``).  Models
                Section II-E's observation that customers switch to the
                inactive status within seconds, so slow brokers lose
                the impression.  Implies latency measurement.
            warm_engine: Batch-score every candidate edge through the
                compute engine *before* the stream starts (a broker
                precomputing the day's candidate table).  Per-customer
                lookups then ride the columnar table; latencies exclude
                the precompute by design.  Without this, lookups stay
                on the scalar path unless something else already built
                the engine (e.g. calibrating on this same instance).
            shard_plan: Optional :class:`~repro.sharding.ShardPlan`.
                Each arriving customer is routed by location to one
                shard and decided against that shard's problem view
                only, so per-decision work (and any warm engine) covers
                one shard's columns.  A customer replicated across
                shards sees just its routed shard's vendors -- the
                locality/quality trade-off documented in
                ``docs/sharding.md``.  Commits still land on the global
                assignment, so budgets stay authoritative.
            churn: Optional :class:`~repro.churn.ChurnSchedule`.
                Events scheduled at arrival index ``t`` are applied
                (through the plan when one is active, else directly on
                the problem) *before* customer ``t`` is decided, so the
                stream serves against the post-churn marketplace.  The
                final epoch lands in ``StreamResult.churn_epoch``.
            churn_cold_rebuild: With ``churn``, rebuild from scratch
                after every applied event instead of splicing deltas
                (shard views released / engine dropped, then re-warmed
                when ``warm_engine`` was requested).  The parity
                reference the delta path is tested against.
            moves: Optional :class:`~repro.scenario.trajectory.
                MoveSchedule` (trajectory scenarios).  Moves scheduled
                at arrival index ``t`` relocate this run's entity of
                the customer *before* customer ``t`` is decided; a
                relocated customer is routed, scanned and scored at its
                current location.  The problem and plan are untouched.
        """
        problem = self._problem
        if arrivals is None:
            arrivals = by_arrival_time(problem.customers)
        result = StreamResult(assignment=problem.new_assignment())
        algorithm.reset(problem)
        _run_arrivals(
            problem,
            arrivals,
            result,
            algorithm.process_customer,
            self._clock,
            measure_latency=measure_latency,
            decision_deadline=decision_deadline,
            warm_engine=warm_engine,
            shard_plan=shard_plan,
            churn=churn,
            churn_cold_rebuild=churn_cold_rebuild,
            moves=moves,
        )
        return result


def _warm(problem: MUAAProblem, plan) -> None:
    """Build the candidate table the stream's lookups will ride: the
    shard views' (which stay resident) or the global problem's."""
    if plan is None:
        problem.warm_utilities()
        return
    for shard in range(plan.n_shards):
        plan.problem_for(shard).warm_utilities()


def _run_arrivals(
    problem: MUAAProblem,
    arrivals: Sequence[Customer],
    result: StreamResult,
    decide: Callable[[MUAAProblem, Customer, Assignment], List[AdInstance]],
    clock: Callable[[], float],
    prefix: str = "stream",
    *,
    view: Optional[Callable[[MUAAProblem], MUAAProblem]] = None,
    commit: Optional[Callable[[AdInstance], str]] = None,
    measure_latency: bool = True,
    decision_deadline: Optional[float] = None,
    warm_engine: bool = False,
    shard_plan=None,
    churn=None,
    churn_cold_rebuild: bool = False,
    moves=None,
) -> None:
    """Serve ``arrivals`` one at a time into ``result``: the online
    protocol of Section IV, shared by :meth:`OnlineSimulator.run` and
    :meth:`~repro.resilience.broker.ResilientBroker.run`.

    Per arrival: apply the churn events and moves due at its index,
    route it, time ``decide(target, customer, assignment)``, lose the
    customer when the decision overran ``decision_deadline``, else
    ``commit`` each picked instance.  ``target`` is the routed shard's
    view (else ``problem``), passed through ``view`` when given.
    ``commit`` defaults to :meth:`Assignment.commit`; an outcome other
    than committed, duplicate or rejected (a failed delivery) is the
    caller's to count.  The other arguments are
    :meth:`OnlineSimulator.run`'s; spans and counters are named
    ``<prefix>.*``.
    """
    plan = shard_plan
    if plan is not None and plan.is_identity:
        plan = None  # identity plan == the global problem itself
    if warm_engine:
        _warm(problem, plan)
    assignment = result.assignment
    if commit is None:
        commit = assignment.commit
    # Events flow through the plan even when it is the identity one, so
    # its churn log/epoch stay correct for cluster replay.
    churn_target = shard_plan if shard_plan is not None else problem
    #: Customer id -> this run's entity of a relocated customer.
    relocated: Dict[int, Customer] = {}

    # Decisions may be deferred (micro-batching), so an instance is
    # admissible for any customer that has *already arrived* -- but
    # never for a future or unknown one, which would break the online
    # model.
    seen = set()
    rec = recorder()
    # Per-arrival names, formatted once.
    span, seconds, shard_count, commits, rejects, deactivations = (
        f"{prefix}.{name}"
        for name in (
            "decision", "decision_seconds", "shard_decisions",
            "budget_commits", "rejected_instances", "vendors_deactivated",
        )
    )
    timed = measure_latency or decision_deadline is not None
    base_skips = problem.churn.skips
    for tick, customer in enumerate(arrivals):
        if churn is not None:
            events = churn.at(tick)
            for event in events:
                churn_target.apply_churn(event)
                rec.count(f"{prefix}.churn_events")
                rec.event(
                    f"{prefix}.churn", kind=event.kind, epoch=problem.churn.epoch
                )
            if events and churn_cold_rebuild:
                # Parity reference: tear every incremental structure
                # down and rebuild from scratch.
                if plan is not None:
                    plan.release_all()
                else:
                    problem.drop_engine()
                if warm_engine:
                    _warm(problem, plan)
        if moves is not None:
            for moved in moves.relocate(tick, relocated, problem.customers_by_id):
                rec.count(f"{prefix}.customer_moves")
                rec.event(f"{prefix}.move", customer=moved)
            customer = relocated.get(customer.customer_id, customer)
        seen.add(customer.customer_id)
        target = problem
        span_attrs = {"customer": customer.customer_id}
        if churn is not None:
            span_attrs["epoch"] = problem.churn.epoch
        if plan is not None:
            shard = plan.route(customer)
            if shard is not None:
                target = plan.problem_for(shard)
                span_attrs["shard"] = shard
                rec.count(shard_count)
        if view is not None:
            target = view(target)
        if timed:
            start = clock()
        with rec.span(span, **span_attrs):
            picked = decide(target, customer, assignment)
        if timed:
            elapsed = clock() - start
            rec.observe(seconds, elapsed)
            if measure_latency:
                result.latencies.append(elapsed)
            if decision_deadline is not None and elapsed > decision_deadline:
                result.customers_lost += 1
                rec.count(f"{prefix}.deadline_drops")
                continue  # customer went inactive; ads dropped
        for instance in picked:
            # Each decision is delivered once, so an instance for a
            # customer yet to arrive, or a repeated pair, is rejected.
            exhausted = len(assignment.exhausted)
            outcome = (
                commit(instance) if instance.customer_id in seen else REJECTED
            )
            if outcome == COMMITTED:
                rec.count(commits)
            elif outcome in (DUPLICATE, REJECTED):
                result.rejected_instances += 1
                rec.count(rejects)
            if len(assignment.exhausted) > exhausted:
                result.vendors_deactivated += 1
                rec.count(deactivations)
    result.churn_epoch = problem.churn.epoch
    result.exhausted_skips = problem.churn.skips - base_skips
    if result.exhausted_skips:
        rec.gauge(f"{prefix}.exhausted_skips", result.exhausted_skips)


class OnlineAsOffline(OfflineAlgorithm):
    """Adapter: run an online algorithm through the offline interface.

    The shared experiment runner treats every algorithm as offline; this
    adapter streams the customers in arrival-time order and reports the
    simulator's mean per-customer latency (the paper's "CPU time" for
    online algorithms).  Stream-level diagnostics -- rejected
    instances, lost customers, and any resilience counters -- are
    propagated into :attr:`SolveResult.extras`.

    Args:
        algorithm: The online algorithm to adapt.
        clock: Optional clock forwarded to the simulator.
        decision_deadline: Optional decision deadline forwarded to the
            simulator.
        warm_engine: Forwarded to :meth:`OnlineSimulator.run` -- batch
            precompute of the candidate table before the stream.
        shard_plan: Forwarded to :meth:`OnlineSimulator.run` -- route
            each arrival to its spatial shard's problem view.
        moves: Forwarded to :meth:`OnlineSimulator.run` -- a trajectory
            scenario's mid-stream customer relocation schedule.
    """

    def __init__(
        self,
        algorithm: OnlineAlgorithm,
        clock: Optional[Callable[[], float]] = None,
        decision_deadline: Optional[float] = None,
        warm_engine: bool = False,
        shard_plan=None,
        moves=None,
    ) -> None:
        self._algorithm = algorithm
        self._clock = clock
        self._deadline = decision_deadline
        self._warm_engine = warm_engine
        self._shard_plan = shard_plan
        self._moves = moves
        self.name = algorithm.name
        self.last_stream_result: Optional[StreamResult] = None

    def solve(self, problem: MUAAProblem) -> Assignment:
        result = OnlineSimulator(problem, clock=self._clock).run(
            self._algorithm,
            decision_deadline=self._deadline,
            warm_engine=self._warm_engine,
            shard_plan=self._shard_plan,
            moves=self._moves,
        )
        self.last_stream_result = result
        return result.assignment

    def run(self, problem: MUAAProblem) -> SolveResult:
        start = time.perf_counter()
        assignment = self.solve(problem)
        elapsed = time.perf_counter() - start
        stream = self.last_stream_result
        per_customer = stream.mean_latency if stream is not None else 0.0
        extras: Dict[str, float] = {}
        if stream is not None:
            extras["rejected_instances"] = float(stream.rejected_instances)
            extras["customers_lost"] = float(stream.customers_lost)
            if stream.resilience is not None:
                extras.update(stream.resilience.as_extras())
        return SolveResult(
            algorithm=self.name,
            assignment=assignment,
            wall_time=elapsed,
            per_customer_seconds=per_customer,
            extras=extras,
        )
