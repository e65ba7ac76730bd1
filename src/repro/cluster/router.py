"""The cluster router: forwards arrivals to shard workers, merges state.

Every arriving customer is routed by
:meth:`~repro.sharding.plan.ShardPlan.route` to its owning shard and
decided there; the router is the sole writer of the *global*
assignment, so budgets and capacities stay authoritative in one place
while each worker mirrors only its own vendors' spend.  Replies travel
in checksummed envelopes; a corrupted reply is retried (workers decide
idempotently, so a retry returns the identical decision) and only a
persistently failing exchange escalates to the shard's circuit breaker.

When a shard cannot serve -- worker dead, breaker open, retries
exhausted, shard given up -- the decision walks the degradation ladder
(``ClusterConfig.ladder``), one
:class:`~repro.algorithms.fallback.FallbackChain` over its tiers:

1. ``replica``: decide on the router's own copy of the shard view with
   the primary algorithm (full quality, router-side CPU);
2. ``static``: a static-threshold O-AFA over the whole problem;
3. ``nearest``: the nearest-vendor heuristic;
4. ``shed``: drop the customer (counted, never an exception).

The chain tries the tiers before the first ``shed`` in order and any
:class:`ResilienceError` falls through to the next; a customer no tier
serves is shed, so chaos runs finish with zero unhandled exceptions.
Commits go through :meth:`~repro.core.assignment.Assignment.commit`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.algorithms.fallback import FallbackChain, FallbackTier
from repro.algorithms.nearest import NearestVendor
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.algorithms.online_static import OnlineStaticThreshold
from repro.cluster.chaos import ChaosController
from repro.cluster.control import ControlPlane
from repro.churn import ChurnEvent, ShardDelta
from repro.cluster.protocol import (
    ChurnRequest,
    CorruptMessageError,
    DecideRequest,
    ReplayRequest,
    corrupt,
    unseal,
)
from repro.core.assignment import COMMITTED, AdInstance
from repro.core.entities import Customer
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    ResilienceError,
    ShardUnavailableError,
)
from repro.obs.recorder import recorder
from repro.resilience.policy import BreakerHistory

#: Default degradation ladder, best tier first.
DEFAULT_LADDER = ("replica", "static", "nearest", "shed")


@dataclass
class ClusterStats(BreakerHistory):
    """Counters and rollups of one cluster episode.

    ``decisions_by_path`` keys are ``shard`` (a worker decided),
    ``local`` (unroutable customer decided by the router), the ladder
    tiers, and ``shed``.
    """

    decisions_by_path: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    corrupt_replies: int = 0
    shard_failures: int = 0
    duplicates_served: int = 0
    rejected_instances: int = 0
    shed: int = 0
    churn_events: int = 0
    churn_epoch: int = 0
    heartbeats: int = 0
    heartbeats_missed: int = 0
    restarts: int = 0
    replayed_instances: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)
    breaker_transitions: List[Tuple[str, float, str, str]] = field(
        default_factory=list
    )
    shard_health: Dict[int, str] = field(default_factory=dict)
    router_latencies: List[float] = field(default_factory=list, repr=False)

    @property
    def decisions(self) -> int:
        return sum(self.decisions_by_path.values())

    @property
    def degraded_decisions(self) -> int:
        """Decisions that did not reach a live shard worker."""
        return sum(
            count
            for path, count in self.decisions_by_path.items()
            if path not in ("shard", "local")
        )

    def as_extras(self) -> Dict[str, float]:
        """Flatten for :attr:`repro.algorithms.base.SolveResult.extras`."""
        extras = {
            "cluster_retries": float(self.retries),
            "cluster_corrupt_replies": float(self.corrupt_replies),
            "cluster_shard_failures": float(self.shard_failures),
            "cluster_restarts": float(self.restarts),
            "cluster_replayed_instances": float(self.replayed_instances),
            "cluster_heartbeats_missed": float(self.heartbeats_missed),
            "cluster_degraded_decisions": float(self.degraded_decisions),
            "cluster_shed": float(self.shed),
            "cluster_faults_injected": float(
                sum(self.faults_injected.values())
            ),
            "cluster_churn_events": float(self.churn_events),
            "cluster_churn_epoch": float(self.churn_epoch),
        }
        for path in sorted(self.decisions_by_path):
            extras[f"cluster_path.{path}"] = float(
                self.decisions_by_path[path]
            )
        extras.update(self.breaker_extras("cluster_"))
        return extras


class ClusterRouter:
    """Routes one arrival stream across shard hosts.

    Args:
        problem: The global problem (budgets/capacities authority).
        plan: The shard plan used for routing and replica views.
        hosts: shard id -> host.
        control: The control plane owning health and breakers.
        chaos: Active chaos controller (fault injection points).
        gamma_min: Calibrated primary-threshold parameters (identical
            to what the workers run, for parity).
        g: Threshold growth constant.
        retry_attempts: Extra attempts after a corrupted reply.
        ladder: Degradation tiers, tried in order.
    """

    def __init__(
        self,
        problem,
        plan,
        hosts: Dict[int, object],
        control: ControlPlane,
        chaos: ChaosController,
        gamma_min: float,
        g: float,
        retry_attempts: int = 2,
        ladder: Tuple[str, ...] = DEFAULT_LADDER,
    ) -> None:
        self._problem = problem
        self._plan = plan
        self._hosts = hosts
        self._control = control
        self._chaos = chaos
        self._retry_attempts = retry_attempts
        self._primary = OnlineAdaptiveFactorAware(gamma_min=gamma_min, g=g)
        self._primary.reset(problem)
        # One FallbackChain walks the tiers before the first "shed"; a
        # customer no tier serves is shed.
        if "shed" in ladder:
            ladder = ladder[: ladder.index("shed")]
        static = OnlineStaticThreshold(0.0)
        tiers = {
            "replica": FallbackTier(self._primary),
            "static": FallbackTier(static, problem=problem),
            "nearest": FallbackTier(NearestVendor(), problem=problem),
        }
        self._ladder = tuple(ladder)
        self._chain = (
            FallbackChain([tiers[name] for name in ladder]) if ladder else None
        )
        self.assignment = problem.new_assignment()
        self._seen: set = set()
        # Flat replay logs, *filtered at replay time* by the current
        # plan: a vendor migrated to another shard takes its committed
        # spend history with it, so a post-migration restart replays
        # every commit onto the shard that owns the vendor *now*.
        self._committed_log: List[AdInstance] = []
        self._decided_log: List[Tuple[int, Tuple[AdInstance, ...]]] = []
        self.stats = ClusterStats()

    # -- the per-arrival path ---------------------------------------------

    def decide(self, customer: Customer, tick: int) -> List[AdInstance]:
        """Route, decide, and commit one arriving customer."""
        start = time.perf_counter()
        self._seen.add(customer.customer_id)
        rec = recorder()
        with rec.span(
            "cluster.decision",
            customer=customer.customer_id,
            tick=tick,
            epoch=self._plan.epoch,
        ):
            picked, path = self._route(customer, tick)
            committed = self._commit(picked)
        self.stats.decisions_by_path[path] = (
            self.stats.decisions_by_path.get(path, 0) + 1
        )
        rec.count(f"cluster.path.{path}")
        self.stats.router_latencies.append(time.perf_counter() - start)
        if path == "shard":
            self._decided_log.append(
                (customer.customer_id, tuple(picked))
            )
        return committed

    def _route(
        self, customer: Customer, tick: int
    ) -> Tuple[List[AdInstance], str]:
        rec = recorder()
        shard = self._plan.route(customer)
        if shard is None:
            picked = self._primary.process_customer(
                self._problem, customer, self.assignment
            )
            return list(picked), "local"
        if not self._control.serving(shard):
            return self._degrade(customer, shard, tick, "shard_failed")
        breaker = self._control.breakers[shard]
        try:
            breaker.admit()
        except CircuitOpenError:
            rec.count("cluster.breaker_rejections")
            return self._degrade(customer, shard, tick, "breaker_open")
        attempts = 0
        while True:
            attempts += 1
            try:
                envelope = self._hosts[shard].request(
                    DecideRequest(tick=tick, customer=customer)
                )
                if self._chaos.should_corrupt(shard):
                    envelope = corrupt(
                        envelope, self._chaos.corrupt_position()
                    )
                    self.stats.corrupt_replies += 1
                reply = unseal(envelope)
                break
            except CorruptMessageError:
                self.stats.retries += 1
                rec.count("cluster.retries")
                if attempts <= self._retry_attempts:
                    continue
                self._control.note_failure(shard, tick)
                self.stats.shard_failures += 1
                return self._degrade(
                    customer, shard, tick, "retries_exhausted"
                )
            except (ShardUnavailableError, DeadlineExceededError):
                self._control.note_failure(shard, tick)
                self.stats.shard_failures += 1
                rec.event(
                    "cluster.shard_loss",
                    shard=shard,
                    tick=tick,
                    customer=customer.customer_id,
                )
                return self._degrade(customer, shard, tick, "shard_down")
        self._control.note_success(shard)
        if reply.cached:
            self.stats.duplicates_served += 1
        if reply.obs is not None and rec.enabled:
            rec.merge(reply.obs)
        return list(reply.instances), "shard"

    def _degrade(
        self,
        customer: Customer,
        shard: int,
        tick: int,
        reason: str,
    ) -> Tuple[List[AdInstance], str]:
        rec = recorder()
        rec.event(
            "cluster.fallback",
            shard=shard,
            customer=customer.customer_id,
            reason=reason,
        )
        if self._chain is not None:
            try:
                with rec.span(
                    "cluster.degraded_decision",
                    shard=shard,
                    customer=customer.customer_id,
                ):
                    # The replica tier decides on the shard view; the
                    # static and nearest tiers carry the whole problem.
                    picked = self._chain.process_customer(
                        self._plan.problem_for(shard),
                        customer,
                        self.assignment,
                    )
                return list(picked), self._ladder[self._chain.last_tier_used]
            except ResilienceError:
                pass
        self.stats.shed += 1
        rec.count("cluster.shed")
        return [], "shed"

    def _commit(self, picked: List[AdInstance]) -> List[AdInstance]:
        rec = recorder()
        committed: List[AdInstance] = []
        for instance in picked:
            if instance.customer_id not in self._seen:
                self.stats.rejected_instances += 1
                continue
            if self.assignment.commit(instance) == COMMITTED:
                committed.append(instance)
                rec.count("cluster.commits")
                self._committed_log.append(instance)
            else:
                self.stats.rejected_instances += 1
                rec.count("cluster.rejected_instances")
        return committed

    # -- live churn --------------------------------------------------------

    def apply_churn(self, event: ChurnEvent, tick: int) -> List[ShardDelta]:
        """Apply one churn event and ship its deltas to the workers.

        The plan updates the global problem, its own membership maps,
        and the router-side replica views incrementally; the returned
        per-shard deltas are then forwarded so out-of-process workers
        splice their fork-local state to the same epoch.  A dead shard
        simply misses the shipment -- its restart boots from the plan's
        already-churned view and the replayed delta no-ops.
        """
        deltas = self._plan.apply_churn(event)
        self.stats.churn_events += 1
        recorder().event(
            "cluster.churn",
            kind=event.kind,
            tick=tick,
            epoch=self._plan.epoch,
        )
        for delta in deltas:
            self._ship_delta(delta, tick)
        return deltas

    def _ship_delta(self, delta: ShardDelta, tick: int) -> None:
        shard = delta.shard
        host = self._hosts.get(shard)
        if host is None:
            return
        if delta.retire or delta.join:
            # Boot-time shm columns no longer describe this shard; any
            # future restart must score locally against the live view.
            host.invalidate_handle()
        if not self._control.serving(shard) or not host.alive:
            return
        try:
            unseal(host.request(ChurnRequest(tick=tick, delta=delta)))
        except ResilienceError:
            self._control.note_failure(shard, tick)
            self.stats.shard_failures += 1
            return
        if delta.join:
            # A joining vendor brings its committed spend history along
            # so the new owner's local budget mirror starts correct.
            seed = self.committed_for_vendors(
                join.vendor.vendor_id for join in delta.join
            )
            if seed:
                try:
                    unseal(host.request(ReplayRequest(instances=seed)))
                except ResilienceError:
                    self._control.note_failure(shard, tick)
                    self.stats.shard_failures += 1

    def committed_for_vendors(self, vendor_ids) -> Tuple[AdInstance, ...]:
        """Every globally-committed instance of the given vendors."""
        wanted = set(vendor_ids)
        return tuple(
            instance
            for instance in self._committed_log
            if instance.vendor_id in wanted
        )

    # -- recovery support --------------------------------------------------

    def replay(self, shard: int) -> Optional[int]:
        """Re-seed a restarted worker from the authoritative state.

        The flat commit/decision logs are filtered by the *current*
        plan, so commits on a vendor that has since migrated replay to
        its post-migration shard.

        Returns the replayed instance count, or ``None`` when the
        replay exchange itself failed (the control plane treats that
        restart as dead).
        """
        plan = self._plan
        customers = self._problem.customers_by_id
        instances = tuple(
            instance
            for instance in self._committed_log
            if plan.shard_of_vendor.get(instance.vendor_id) == shard
        )
        decided = tuple(
            (cid, picked)
            for cid, picked in self._decided_log
            if cid in customers and plan.route(customers[cid]) == shard
        )
        request = ReplayRequest(instances=instances, decided=decided)
        try:
            reply = unseal(self._hosts[shard].request(request))
        except ResilienceError:
            return None
        recorder().event(
            "cluster.replayed",
            shard=shard,
            instances=reply.replayed_instances,
            decisions=reply.replayed_decisions,
            epoch=plan.epoch,
        )
        return reply.replayed_instances

    def finalize(self) -> ClusterStats:
        """Fold control-plane and chaos rollups into the stats."""
        stats = self.stats
        stats.breaker_transitions = self._control.breaker_transitions()
        stats.shard_health = self._control.health_card()
        stats.heartbeats = self._control.heartbeats
        stats.heartbeats_missed = self._control.heartbeats_missed
        stats.restarts = self._control.restarts_performed
        stats.replayed_instances = self._control.replayed_instances
        stats.faults_injected = dict(self._chaos.injected)
        stats.churn_epoch = self._plan.epoch
        return stats
