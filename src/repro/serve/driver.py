"""Deterministic closed-loop serving driver (virtual-time replay).

Measuring "offered RPS vs p99 latency vs utility retention" with real
sleeps is noisy and slow: a 10x-overload point would spend most of its
wall-clock waiting out the schedule.  The replay driver instead runs
the *same* admission / batching / scoring components as the asyncio
server against a :class:`~repro.resilience.clock.SimulatedClock`:

* arrivals are ingested at their exact scheduled virtual times;
* a flushed batch's *real* scoring cost (measured on a separate
  wall-clock :class:`~repro.resilience.clock.SystemClock`) is applied
  to the virtual clock as the batch's service time;
* queue waits, deadlines, and latencies are all virtual-clock readings.

Offered load is therefore exact (no sleep jitter), queueing dynamics
are faithfully reproduced (work queues up exactly when the offered
rate exceeds the measured service rate), and the entire sweep runs at
compute speed.  Decisions are identical to the asyncio server under
the same interleaving because both run the same components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.entities import Customer
from repro.obs.recorder import recorder
from repro.resilience.clock import Clock, SimulatedClock, SystemClock
from repro.serve import admission as _admission
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.batcher import BatchScorer, MicroBatcher
from repro.serve.loadgen import ScheduledArrival
from repro.serve.queueing import RequestQueue
from repro.serve.request import (
    EXPIRED,
    RATE_LIMITED,
    SERVED,
    SHED,
    AdRequest,
    Decision,
    ServeStats,
)
from repro.serve.server import default_estimator

#: Expiry is strict (``now > deadline``), so the replay loop targets a
#: point just *past* each deadline -- landing exactly on one would
#: neither drop the request nor advance the clock, stalling the loop.
_DEADLINE_STEP = 1e-9


@dataclass
class ServeConfig:
    """Knobs of one serving episode (see ``docs/serving.md``).

    Attributes:
        max_batch: Flush when this many requests are queued.
        max_wait: Flush when the oldest request waited this long (s).
        queue_depth: Bounded queue capacity (0 sheds everything).
        rate: Token-bucket sustained rate (requests/s); ``None`` off.
        burst: Token-bucket size (default ``max(1, rate)``).
        deadline: Per-request deadline in seconds; ``None`` off.
        warm: Warm engines outside the measured path on first use.
    """

    max_batch: int = 32
    max_wait: float = 0.005
    queue_depth: int = 256
    rate: Optional[float] = None
    burst: Optional[float] = None
    deadline: Optional[float] = None
    warm: bool = True


@dataclass
class ServeResult:
    """Outcome of one (replayed or live) serving episode.

    Attributes:
        stats: The episode's counters and latency samples.
        decisions: Terminal decision of every request, schedule order.
        duration: Virtual seconds from first arrival to last
            resolution.
        offered_rps: Mean offered arrival rate of the schedule.
    """

    stats: ServeStats
    decisions: List[Decision] = field(default_factory=list)
    duration: float = 0.0
    offered_rps: float = 0.0

    @property
    def utility(self) -> float:
        """Total committed utility."""
        return self.stats.utility

    @property
    def achieved_rps(self) -> float:
        """Served requests per virtual second."""
        if self.duration <= 0:
            return 0.0
        return self.stats.served / self.duration

    def card(self) -> Dict[str, object]:
        """Flat summary for the CLI and benchmark reports."""
        card = self.stats.card()
        card["offered_rps"] = round(self.offered_rps, 3)
        card["achieved_rps"] = round(self.achieved_rps, 3)
        card["duration"] = self.duration
        return card


class ReplayDriver:
    """Virtual-time executor of one schedule against the serve stack."""

    def __init__(
        self,
        problem,
        algorithm,
        config: Optional[ServeConfig] = None,
        shard_plan=None,
        sharded_engine=None,
        estimator: Optional[Callable[[Customer], float]] = None,
        cost_clock: Optional[Clock] = None,
        moves=None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self._problem = problem
        #: Optional trajectory move schedule, keyed by submission index
        #: (the serve-side analogue of the stream's arrival tick).
        self._moves = moves
        self.clock = SimulatedClock()
        self._cost_clock: Clock = (
            cost_clock if cost_clock is not None else SystemClock()
        )
        self.scorer = BatchScorer(
            problem,
            algorithm,
            shard_plan=shard_plan,
            sharded_engine=sharded_engine,
            warm=self.config.warm,
        )
        bucket = (
            TokenBucket(
                self.config.rate, burst=self.config.burst, clock=self.clock
            )
            if self.config.rate is not None
            else None
        )
        self.controller = AdmissionController(
            RequestQueue(self.config.queue_depth), bucket
        )
        self.batcher = MicroBatcher(
            max_batch=self.config.max_batch, max_wait=self.config.max_wait
        )
        self.estimator = (
            estimator if estimator is not None else default_estimator
        )
        self.stats = self.scorer.stats
        self._seq = 0
        self._decisions: Dict[int, Decision] = {}

    def run(self, schedule: Sequence[ScheduledArrival]) -> ServeResult:
        """Replay one schedule to completion (queue fully drained)."""
        queue = self.controller.queue
        clock = self.clock
        index = 0
        #: Customer id -> this episode's entity of a relocated customer.
        relocated: Dict[int, Customer] = {}
        while True:
            now = clock.now()
            for request in queue.drop_expired(now):
                self._drop(request, EXPIRED)
            if self.batcher.due(queue, now):
                self._flush(now)
                continue
            targets = []
            if index < len(schedule):
                targets.append(schedule[index].time)
            next_flush = self.batcher.next_flush(queue)
            if next_flush is not None:
                targets.append(next_flush)
            next_deadline = queue.next_deadline()
            if next_deadline is not None:
                targets.append(next_deadline + _DEADLINE_STEP)
            if not targets:
                if len(queue):
                    self._flush(now)
                    continue
                break
            target = min(targets)
            if target > now:
                clock.advance(target - now)
            now = clock.now()
            while index < len(schedule) and schedule[index].time <= now:
                customer = schedule[index].customer
                if self._moves is not None:
                    moved = self._moves.relocate(
                        index, relocated, self._problem.customers_by_id
                    )
                    if moved:
                        recorder().count("serve.customer_moves", len(moved))
                    customer = relocated.get(customer.customer_id, customer)
                self._submit(customer)
                index += 1
        decisions = [
            self._decisions[rid] for rid in sorted(self._decisions)
        ]
        duration = clock.now()
        offered = 0.0
        if schedule and schedule[-1].time > 0:
            offered = len(schedule) / schedule[-1].time
        return ServeResult(
            stats=self.stats,
            decisions=decisions,
            duration=duration,
            offered_rps=offered,
        )

    # -- internals ------------------------------------------------------
    def _submit(self, customer: Customer) -> None:
        rec = recorder()
        now = self.clock.now()
        self._seq += 1
        deadline = self.config.deadline
        request = AdRequest(
            request_id=self._seq,
            customer=customer,
            arrival_time=now,
            deadline=None if deadline is None else now + deadline,
            estimated_utility=self.estimator(customer),
        )
        self.stats.submitted += 1
        rec.count("serve.requests")
        verdict, victim = self.controller.offer(request)
        if verdict == _admission.RATE_LIMITED:
            self.stats.rate_limited += 1
            rec.count("serve.rate_limited")
            self._decisions[request.request_id] = Decision(
                request.request_id, customer.customer_id, RATE_LIMITED
            )
            return
        if verdict == _admission.SHED:
            self._drop(request, SHED)
            return
        if victim is not None:
            self._drop(victim, SHED)
        rec.gauge("serve.queue_depth", float(len(self.controller.queue)))

    def _drop(self, request: AdRequest, status: str) -> None:
        rec = recorder()
        if status == EXPIRED:
            self.stats.expired += 1
            rec.count("serve.deadline_drops")
        else:
            self.stats.shed += 1
            rec.count("serve.shed")
        self._decisions[request.request_id] = Decision(
            request.request_id, request.customer.customer_id, status
        )

    def _flush(self, now: float) -> None:
        queue = self.controller.queue
        batch = queue.pop_batch(self.batcher.max_batch)
        live: List[AdRequest] = []
        for request in batch:
            if request.expired(now):
                self._drop(request, EXPIRED)
            else:
                live.append(request)
        recorder().gauge("serve.queue_depth", float(len(queue)))
        if not live:
            return
        cost_start = self._cost_clock.now()
        results = self.scorer.score(live)
        self.clock.advance(self._cost_clock.now() - cost_start)
        end = self.clock.now()
        for request in live:
            instances, shard = results[request.request_id]
            latency = end - request.arrival_time
            self.stats.latencies.append(latency)
            recorder().observe("serve.latency_seconds", latency)
            self._decisions[request.request_id] = Decision(
                request_id=request.request_id,
                customer_id=request.customer.customer_id,
                status=SERVED,
                instances=instances,
                latency=latency,
                batch_size=len(live),
                shard=shard,
            )


def utility_estimator(problem) -> Callable[[Customer], float]:
    """An engine-backed expected-utility estimator for the shed policy.

    Precomputes, per customer, the sum of its top-:math:`a_i`
    full-budget per-vendor best utilities -- an upper bound on what
    serving the customer can add.  Falls back to the cheap
    capacity-times-view-probability prior when the problem has no
    compute engine (scalar-only models, or the million-user tier where
    building the global table is exactly what we avoid).
    """
    engine = problem.acquire_engine()
    if engine is None:
        return default_estimator
    row_best = engine.utilities().max(axis=1).tolist()
    estimates: Dict[int, float] = {}
    for customer in problem.customers:
        cid = customer.customer_id
        vendors = engine.vendors_in_range(cid)
        if not vendors:
            estimates[cid] = 0.0
            continue
        values = sorted(
            (
                row_best[pos]
                for pos in (
                    engine.edge_position(cid, vid) for vid in vendors
                )
                if pos is not None
            ),
            reverse=True,
        )
        estimates[cid] = float(sum(values[: customer.capacity]))

    def estimate(customer: Customer) -> float:
        value = estimates.get(customer.customer_id)
        if value is None:
            return default_estimator(customer)
        return value

    return estimate
