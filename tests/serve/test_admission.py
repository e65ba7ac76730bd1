"""Admission-control edge cases (ISSUE 9 satellite).

Zero-capacity queues, all-requests-shed, token bursts exactly at the
bucket boundary, and value-aware eviction -- all on a frozen
:class:`~repro.resilience.clock.SimulatedClock`, so every verdict is
deterministic.
"""

from __future__ import annotations

import pytest

from repro.resilience.clock import SimulatedClock
from repro.serve.admission import (
    ADMITTED,
    RATE_LIMITED,
    SHED,
    AdmissionController,
    TokenBucket,
)
from repro.serve.queueing import RequestQueue
from repro.serve.request import AdRequest
from tests.conftest import random_tabular_problem


def _request(request_id: int, value: float, deadline=None) -> AdRequest:
    customer = random_tabular_problem(seed=0, n_customers=1).customers[0]
    return AdRequest(
        request_id=request_id,
        customer=customer,
        arrival_time=0.0,
        deadline=deadline,
        estimated_utility=value,
    )


class TestRequestQueue:
    def test_zero_capacity_sheds_everything(self):
        queue = RequestQueue(0)
        for i in range(5):
            request = _request(i, value=float(i))
            assert queue.offer(request) is request
        assert len(queue) == 0
        assert queue.pop_batch(10) == []

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            RequestQueue(-1)

    def test_fifo_order_preserved(self):
        queue = RequestQueue(8)
        requests = [_request(i, value=1.0) for i in range(5)]
        for request in requests:
            assert queue.offer(request) is None
        assert queue.pop_batch(3) == requests[:3]
        assert queue.pop_batch(10) == requests[3:]

    def test_overflow_sheds_lowest_value_queued(self):
        queue = RequestQueue(2)
        low = _request(1, value=0.1)
        high = _request(2, value=5.0)
        queue.offer(low)
        queue.offer(high)
        newcomer = _request(3, value=1.0)
        assert queue.offer(newcomer) is low  # cheapest queued evicted
        assert queue.pop_batch(10) == [high, newcomer]

    def test_overflow_sheds_new_request_when_cheapest(self):
        queue = RequestQueue(2)
        queue.offer(_request(1, value=2.0))
        queue.offer(_request(2, value=3.0))
        cheap = _request(3, value=0.5)
        assert queue.offer(cheap) is cheap
        assert len(queue) == 2

    def test_value_tie_prefers_shedding_newer(self):
        queue = RequestQueue(1)
        old = _request(1, value=1.0)
        new = _request(2, value=1.0)
        queue.offer(old)
        assert queue.offer(new) is new  # equal value never evicts older
        assert queue.pop_batch(1) == [old]

    def test_drop_expired_only_removes_past_deadlines(self):
        queue = RequestQueue(8)
        keep = _request(1, value=1.0, deadline=10.0)
        drop = _request(2, value=1.0, deadline=0.5)
        boundary = _request(3, value=1.0, deadline=1.0)
        for request in (keep, drop, boundary):
            queue.offer(request)
        # Deadline exactly at `now` is not yet expired (strict >).
        assert queue.drop_expired(1.0) == [drop]
        assert queue.pop_batch(10) == [keep, boundary]

    def test_next_deadline_is_earliest(self):
        queue = RequestQueue(8)
        queue.offer(_request(1, value=1.0))
        assert queue.next_deadline() is None
        queue.offer(_request(2, value=1.0, deadline=4.0))
        queue.offer(_request(3, value=1.0, deadline=2.0))
        assert queue.next_deadline() == 2.0

    def test_deadlines_tracked_through_every_exit(self):
        # Eviction, batch pops and expiry all leave the queue; the
        # deadline bookkeeping must follow each of them.
        queue = RequestQueue(2)
        queue.offer(_request(1, value=1.0, deadline=3.0))
        queue.offer(_request(2, value=5.0))
        assert queue.offer(_request(3, value=9.0)).request_id == 1
        assert queue.next_deadline() is None
        assert queue.drop_expired(100.0) == []
        queue.pop_batch(2)
        queue.offer(_request(4, value=1.0, deadline=1.0))
        queue.offer(_request(5, value=1.0, deadline=7.0))
        assert queue.next_deadline() == 1.0
        assert [r.request_id for r in queue.drop_expired(2.0)] == [4]
        assert queue.next_deadline() == 7.0
        queue.pop_batch(1)
        assert queue.next_deadline() is None
        queue.offer(_request(6, value=1.0, deadline=2.0))
        assert queue.next_deadline() == 2.0


class TestTokenBucket:
    def test_burst_exactly_at_boundary_fully_admitted(self):
        clock = SimulatedClock()
        bucket = TokenBucket(rate=10.0, burst=5, clock=clock)
        admitted = sum(bucket.try_acquire() for _ in range(5))
        assert admitted == 5  # the whole burst, nothing more
        assert not bucket.try_acquire()

    def test_refill_accumulates_to_burst_cap(self):
        clock = SimulatedClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        for _ in range(3):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # one token back at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(100.0)  # far past the cap: only `burst` tokens
        assert bucket.tokens == pytest.approx(3.0)

    def test_fractional_refills_hit_exact_boundary(self):
        """Many tiny refills must not strand the bucket just below one
        token (the _TOKEN_EPS tolerance)."""
        clock = SimulatedClock()
        bucket = TokenBucket(rate=1.0, burst=1, clock=clock)
        assert bucket.try_acquire()
        for _ in range(1000):  # 1000 x 1ms = exactly one token
            clock.advance(0.001)
            bucket.tokens
        assert bucket.try_acquire()

    def test_none_rate_never_limits(self):
        bucket = TokenBucket(rate=None, clock=SimulatedClock())
        assert all(bucket.try_acquire() for _ in range(1000))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestAdmissionController:
    def test_rate_limit_verdict(self):
        clock = SimulatedClock()
        controller = AdmissionController(
            RequestQueue(8), TokenBucket(rate=1.0, burst=1, clock=clock)
        )
        verdict, victim = controller.offer(_request(1, value=1.0))
        assert (verdict, victim) == (ADMITTED, None)
        verdict, victim = controller.offer(_request(2, value=1.0))
        assert (verdict, victim) == (RATE_LIMITED, None)
        clock.advance(1.0)
        verdict, _ = controller.offer(_request(3, value=1.0))
        assert verdict == ADMITTED

    def test_all_requests_shed_on_zero_capacity(self):
        controller = AdmissionController(RequestQueue(0))
        verdicts = [
            controller.offer(_request(i, value=float(i)))
            for i in range(10)
        ]
        assert all(v == (SHED, None) for v in verdicts)
        assert len(controller.queue) == 0

    def test_eviction_returns_victim_with_admitted_verdict(self):
        controller = AdmissionController(RequestQueue(1))
        low = _request(1, value=0.5)
        controller.offer(low)
        verdict, victim = controller.offer(_request(2, value=2.0))
        assert verdict == ADMITTED
        assert victim is low
