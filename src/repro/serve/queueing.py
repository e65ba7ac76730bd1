"""The bounded request queue with value-aware load shedding.

Requests wait here between admission and batching.  The queue is FIFO
in admission order (micro-batches must preserve arrival order so the
batched decisions match the sequential online algorithm), but when it
is full the *shed policy* is value-aware rather than tail-drop: the
request with the lowest expected utility -- whether that is the new
arrival or something already queued -- is dropped.  Under overload the
queue therefore retains the most valuable work, which is what the
utility-retention gate in ``benchmarks/bench_serve.py`` measures.

Implementation: an ordered dict keyed by admission sequence gives O(1)
FIFO pops, and a lazily-pruned min-heap over ``(estimated_utility,
request_id)`` finds the cheapest queued request without a scan.  Heap
entries for requests that already left the queue are tombstoned and
skipped on pop.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.serve.request import AdRequest


class RequestQueue:
    """A bounded FIFO with shed-lowest-expected-utility overflow.

    Args:
        capacity: Maximum queued requests.  A zero-capacity queue
            admits nothing (every offer is shed) -- the degenerate
            configuration the admission tests pin down.

    Raises:
        ValueError: If ``capacity`` is negative.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"queue capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._queue: "OrderedDict[int, AdRequest]" = OrderedDict()
        self._heap: List[Tuple[float, int]] = []
        # The queued requests that carry a deadline, in admission order:
        # the expiry scans walk only these (none at all when no request
        # has a deadline).
        self._deadlined: "OrderedDict[int, AdRequest]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def offer(self, request: AdRequest) -> Optional[AdRequest]:
        """Admit ``request``, shedding the cheapest request if full.

        Returns:
            The request that was shed to make room (possibly ``request``
            itself), or ``None`` when the queue had room.  Ties prefer
            shedding the *newer* request, so an equal-value arrival
            never evicts older queued work.
        """
        if self.capacity == 0:
            return request
        if len(self._queue) >= self.capacity:
            victim = self._peek_cheapest()
            if victim is None or request.estimated_utility <= victim.estimated_utility:
                return request
            self._remove(victim.request_id)
            self._push(request)
            return victim
        self._push(request)
        return None

    def pop_batch(self, max_size: int) -> List[AdRequest]:
        """Remove and return up to ``max_size`` requests in FIFO
        (admission) order."""
        batch: List[AdRequest] = []
        while self._queue and len(batch) < max_size:
            _, request = self._queue.popitem(last=False)
            self._deadlined.pop(request.request_id, None)
            batch.append(request)
        return batch

    def drop_expired(self, now: float) -> List[AdRequest]:
        """Remove and return every queued request whose deadline has
        passed at clock reading ``now``."""
        expired = [r for r in self._deadlined.values() if r.expired(now)]
        for request in expired:
            self._remove(request.request_id)
        return expired

    def oldest_arrival(self) -> Optional[float]:
        """Arrival time of the request at the head of the queue, or
        ``None`` when empty (drives the ``max_wait`` flush timer)."""
        for request in self._queue.values():
            return request.arrival_time
        return None

    def next_deadline(self) -> Optional[float]:
        """The earliest queued deadline, or ``None``."""
        return min(
            (r.deadline for r in self._deadlined.values()), default=None
        )

    # -- internals ------------------------------------------------------
    def _push(self, request: AdRequest) -> None:
        self._queue[request.request_id] = request
        if request.deadline is not None:
            self._deadlined[request.request_id] = request
        heapq.heappush(
            self._heap, (request.estimated_utility, request.request_id)
        )

    def _remove(self, request_id: int) -> None:
        # Heap entries become tombstones; _peek_cheapest prunes them.
        self._queue.pop(request_id, None)
        self._deadlined.pop(request_id, None)

    def _peek_cheapest(self) -> Optional[AdRequest]:
        while self._heap:
            _, request_id = self._heap[0]
            request = self._queue.get(request_id)
            if request is not None:
                return request
            heapq.heappop(self._heap)
        return None
