"""The asyncio serving loop: concurrent submits, micro-batch flushes.

:class:`AdServer` is the front door of the serving stack.  Concurrent
callers ``await submit(customer)``; requests pass the admission
controller (token bucket + bounded value-aware queue), wait in the
queue until the :class:`~repro.serve.batcher.MicroBatcher` declares a
flush (batch full or ``max_wait`` elapsed), and are then scored
batch-at-a-time by the :class:`~repro.serve.batcher.BatchScorer` --
one engine kernel call per routed shard -- with every caller's future
resolved to a terminal :class:`~repro.serve.request.Decision`.

All *semantic* time (arrival stamps, deadlines, latency accounting,
flush timers) reads the injected :class:`repro.resilience.clock.Clock`;
the event loop is only used to wait.  With the default
:class:`~repro.resilience.clock.SystemClock` the two agree; tests that
need frozen time drive :meth:`flush_now` directly instead of running
the background task (see ``tests/serve``), and the deterministic
closed-loop driver (:mod:`repro.serve.driver`) reuses the admission /
batching / scoring components without any event loop at all.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional

from repro.core.entities import Customer
from repro.obs.recorder import recorder
from repro.resilience.clock import Clock, SystemClock
from repro.serve import admission as _admission
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.batcher import BatchScorer, MicroBatcher
from repro.serve.queueing import RequestQueue
from repro.serve.request import (
    CANCELLED,
    EXPIRED,
    RATE_LIMITED,
    SERVED,
    SHED,
    AdRequest,
    Decision,
)


def default_estimator(customer: Customer) -> float:
    """Cheap expected-utility prior for the shed policy: capacity times
    view probability (both factors scale every utility the customer can
    contribute)."""
    return customer.capacity * customer.view_probability


class AdServer:
    """Asyncio request loop over the batching/admission components.

    Args:
        scorer: The batch scorer (owns the committed assignment).
        batcher: The flush policy.
        controller: The admission gate.
        clock: Semantic clock (arrivals, deadlines, latencies).
        estimator: Expected-utility estimate for the shed policy.
    """

    def __init__(
        self,
        scorer: BatchScorer,
        batcher: MicroBatcher,
        controller: AdmissionController,
        clock: Optional[Clock] = None,
        estimator: Callable[[Customer], float] = default_estimator,
    ) -> None:
        self.scorer = scorer
        self.batcher = batcher
        self.controller = controller
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.estimator = estimator
        self.stats = scorer.stats
        self._pending: Dict[int, "asyncio.Future[Decision]"] = {}
        self._seq = 0
        self._wake: Optional[asyncio.Event] = None
        self._task: Optional["asyncio.Task[None]"] = None
        self._closed = False

    @classmethod
    def create(
        cls,
        problem,
        algorithm,
        max_batch: int = 32,
        max_wait: float = 0.005,
        queue_depth: int = 256,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        shard_plan=None,
        sharded_engine=None,
        clock: Optional[Clock] = None,
        estimator: Callable[[Customer], float] = default_estimator,
        warm: bool = True,
    ) -> "AdServer":
        """Wire a server from scratch with the standard components."""
        clock = clock if clock is not None else SystemClock()
        scorer = BatchScorer(
            problem,
            algorithm,
            shard_plan=shard_plan,
            sharded_engine=sharded_engine,
            warm=warm,
        )
        batcher = MicroBatcher(max_batch=max_batch, max_wait=max_wait)
        bucket = (
            TokenBucket(rate, burst=burst, clock=clock)
            if rate is not None
            else None
        )
        controller = AdmissionController(RequestQueue(queue_depth), bucket)
        return cls(
            scorer, batcher, controller, clock=clock, estimator=estimator
        )

    # -- lifecycle ------------------------------------------------------
    async def __aenter__(self) -> "AdServer":
        self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose(drain=exc == (None, None, None))

    def start(self) -> None:
        """Start the background flush task (idempotent)."""
        if self._task is None or self._task.done():
            self._wake = asyncio.Event()
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def drain(self) -> None:
        """Flush until the queue is empty (in-flight work completes)."""
        while len(self.controller.queue):
            self.flush_now()
            await asyncio.sleep(0)

    async def aclose(self, drain: bool = True) -> None:
        """Stop the server.

        Args:
            drain: Flush queued requests before stopping (every pending
                future resolves to a real decision); when false, queued
                requests resolve as :data:`CANCELLED`.
        """
        if self._closed:
            return
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if drain:
            while len(self.controller.queue):
                self.flush_now()
        else:
            for request in self.controller.queue.pop_batch(
                len(self.controller.queue)
            ):
                self._resolve_dropped(request, CANCELLED)

    # -- request path ---------------------------------------------------
    async def submit(
        self, customer: Customer, deadline: Optional[float] = None
    ) -> Decision:
        """Submit one ad request; resolves when the request reaches a
        terminal state (served, shed, rate-limited, expired, or
        cancelled at shutdown).

        Args:
            customer: The arriving customer.
            deadline: Seconds (on the serving clock) the caller is
                willing to wait; late work is dropped, not served.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        rec = recorder()
        now = self.clock.now()
        self._seq += 1
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
            return Decision(
                request.request_id, customer.customer_id, RATE_LIMITED
            )
        if verdict == _admission.SHED:
            self.stats.shed += 1
            rec.count("serve.shed")
            return Decision(request.request_id, customer.customer_id, SHED)
        future: "asyncio.Future[Decision]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[request.request_id] = future
        if victim is not None:
            self._resolve_dropped(victim, SHED)
        rec.gauge("serve.queue_depth", float(len(self.controller.queue)))
        if self._wake is not None:
            self._wake.set()
        return await future

    # -- flushing -------------------------------------------------------
    def flush_now(self) -> List[Decision]:
        """Flush one batch immediately (test/drain entry point)."""
        return self._flush(self.clock.now())

    def _flush(self, now: float) -> List[Decision]:
        rec = recorder()
        queue = self.controller.queue
        decisions: List[Decision] = []
        for request in queue.drop_expired(now):
            decisions.append(self._resolve_dropped(request, EXPIRED))
        batch = queue.pop_batch(self.batcher.max_batch)
        live: List[AdRequest] = []
        for request in batch:
            if request.expired(now):
                decisions.append(self._resolve_dropped(request, EXPIRED))
            else:
                live.append(request)
        rec.gauge("serve.queue_depth", float(len(queue)))
        if not live:
            return decisions
        results = self.scorer.score(live)
        end = self.clock.now()
        for request in live:
            instances, shard = results[request.request_id]
            latency = end - request.arrival_time
            self.stats.latencies.append(latency)
            rec.observe("serve.latency_seconds", latency)
            decision = Decision(
                request_id=request.request_id,
                customer_id=request.customer.customer_id,
                status=SERVED,
                instances=instances,
                latency=latency,
                batch_size=len(live),
                shard=shard,
            )
            decisions.append(decision)
            self._resolve(request.request_id, decision)
        return decisions

    def _resolve_dropped(self, request: AdRequest, status: str) -> Decision:
        rec = recorder()
        if status == EXPIRED:
            self.stats.expired += 1
            rec.count("serve.deadline_drops")
        elif status == SHED:
            self.stats.shed += 1
            rec.count("serve.shed")
        elif status == CANCELLED:
            self.stats.cancelled += 1
            rec.count("serve.cancelled")
        decision = Decision(
            request.request_id, request.customer.customer_id, status
        )
        self._resolve(request.request_id, decision)
        return decision

    def _resolve(self, request_id: int, decision: Decision) -> None:
        future = self._pending.pop(request_id, None)
        if future is not None and not future.done():
            future.set_result(decision)

    async def _run(self) -> None:
        """Background flush loop.

        Semantic time comes from the injected clock; the event loop
        only supplies the *waiting*.  Each iteration either flushes a
        due batch or sleeps until the earliest of (next flush timer,
        next queued deadline, a wake from ``submit``).
        """
        queue = self.controller.queue
        while True:
            now = self.clock.now()
            expired = queue.drop_expired(now)
            for request in expired:
                self._resolve_dropped(request, EXPIRED)
            if self.batcher.due(queue, now):
                self._flush(now)
                continue
            targets = [
                t
                for t in (self.batcher.next_flush(queue), queue.next_deadline())
                if t is not None
            ]
            timeout = max(0.0, min(targets) - now) if targets else None
            if self._wake is None:  # pragma: no cover - start() sets it
                return
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
