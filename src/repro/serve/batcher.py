"""Micro-batching and batched decision scoring.

:class:`MicroBatcher` decides *when* to flush the request queue (batch
full, or the oldest queued request has waited ``max_wait`` seconds) and
:class:`BatchScorer` decides *what* each flushed batch gets: it routes
the batch's customers to their shards, answers every candidate lookup
of a shard group in **one engine kernel call**
(:meth:`~repro.engine.engine.ComputeEngine.batch_best` over the
batch's gathered edge positions), and then decides each request in
arrival order with O-AFA's one decide step
(:meth:`~repro.algorithms.online_afa.OnlineAdaptiveFactorAware.decide`)
and commits it through the one pair-level commit
(:meth:`~repro.core.assignment.Assignment.commit`).

Exactness
---------

The scorer's decisions are *identical* to running the sequential
O-AFA loop (:class:`~repro.stream.simulator.OnlineSimulator`) over the
same arrivals in the same order:

* The vectorized phase snapshots per-vendor spend at flush time and
  answers every (request, candidate-vendor) best-type lookup against
  that snapshot from the same precomputed matrices as the scalar
  ``best_for_pair`` path, so any pair whose vendor state is untouched
  since the snapshot gets bit-for-bit the sequential answer.
* The decide phase walks requests in arrival order.  A snapshot answer
  stands only while its vendor's spend is unchanged, so a vendor
  *dirtied* by an earlier in-batch commit is re-scored by the decide
  step at the current state, and one the assignment has exhausted since
  the gather is skipped -- precisely what the sequential loop would
  have seen.
* A relocated customer (trajectory scenarios) is not held by the
  engine's rows, so it gets no snapshot answer and no engine lookup:
  the decide step scores it on the scalar path at its current
  location, as the sequential loop does.
* Vendors are partitioned across shards, so shard groups touch
  disjoint budgets and their relative order cannot change any
  decision.

Requests whose customers route to different shards therefore batch
safely together, and a batch of size 1 is byte-identical to the
synchronous simulator (the parity suite pins this down).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.core.assignment import COMMITTED, DUPLICATE, AdInstance, Assignment
from repro.obs.recorder import recorder
from repro.serve.request import AdRequest, ServeStats

#: Batch-size histogram bounds (requests per flush, power-of-two-ish).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class MicroBatcher:
    """Flush policy of the serving loop.

    Args:
        max_batch: Flush as soon as this many requests are queued.
        max_wait: Flush when the oldest queued request has waited this
            many seconds (clock units), even if the batch is not full.

    Raises:
        ValueError: On a non-positive ``max_batch`` or negative
            ``max_wait``.
    """

    def __init__(self, max_batch: int, max_wait: float) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.max_batch = max_batch
        self.max_wait = max_wait

    def due(self, queue, now: float) -> bool:
        """Whether the queue should flush at clock reading ``now``."""
        if len(queue) >= self.max_batch:
            return True
        oldest = queue.oldest_arrival()
        return oldest is not None and now >= oldest + self.max_wait

    def next_flush(self, queue) -> Optional[float]:
        """Clock reading of the next timer-driven flush, or ``None``
        when the queue is empty.  (A size-driven flush can always
        arrive earlier.)"""
        oldest = queue.oldest_arrival()
        if oldest is None:
            return None
        return oldest + self.max_wait


class BatchScorer:
    """Scores micro-batches with sequential-equivalent decisions.

    Args:
        problem: The full MUAA problem (budgets are authoritative
            here; commits always land on the global assignment).
        algorithm: The online algorithm.  The vectorized batch path
            requires O-AFA's own ``process_customer`` (a subclass may
            change the threshold only); any other algorithm is scored
            per request, which is exact by construction.
        shard_plan: Optional :class:`~repro.sharding.ShardPlan`; each
            request is routed to one shard and decided against that
            shard's view only, exactly like the synchronous stream.
        sharded_engine: Optional
            :class:`~repro.engine.sharded.ShardedEngine` supplying
            per-shard engines -- with an attached artifact store,
            shards are demand-paged from ``mmap`` the first time a
            batch routes to them.
        assignment: The committed assignment; a fresh one by default.
        warm: Warm each (shard) engine's batch structures on first
            use, so per-batch latency excludes one-time builds.
    """

    def __init__(
        self,
        problem,
        algorithm,
        shard_plan=None,
        sharded_engine=None,
        assignment: Optional[Assignment] = None,
        warm: bool = True,
    ) -> None:
        self._problem = problem
        self._algorithm = algorithm
        plan = shard_plan
        if plan is not None and plan.is_identity:
            plan = None  # identity plan == the global problem itself
        self._plan = plan
        self._sharded = sharded_engine
        self.assignment = (
            assignment if assignment is not None else problem.new_assignment()
        )
        self._warm = warm
        self._warmed: set = set()
        self.stats = ServeStats()

    # -- engine acquisition --------------------------------------------
    def _engine_for(self, shard: Optional[int], target):
        """The compute engine serving one shard group (or ``None``)."""
        if self._sharded is not None and shard is not None:
            engine = self._sharded.engine(shard)
        else:
            engine = target.acquire_engine()
        if engine is not None and self._warm and shard not in self._warmed:
            with recorder().span("serve.warm", shard=shard):
                engine.warm()
            self._warmed.add(shard)
        return engine

    def _target_for(self, shard: Optional[int]):
        if shard is None or self._plan is None:
            return self._problem
        return self._plan.problem_for(shard)

    # -- scoring -------------------------------------------------------
    def score(
        self, requests: Sequence[AdRequest]
    ) -> Dict[int, Tuple[Tuple[AdInstance, ...], Optional[int]]]:
        """Decide and commit one micro-batch.

        Returns:
            ``request_id -> (committed instances, shard)`` for every
            request in the batch.
        """
        results: Dict[int, Tuple[Tuple[AdInstance, ...], Optional[int]]] = {}
        if not requests:
            return results
        rec = recorder()
        self.stats.batches += 1
        self.stats.batch_sizes.append(len(requests))
        rec.observe(
            "serve.batch_size", float(len(requests)),
            buckets=BATCH_SIZE_BUCKETS,
        )
        if self._plan is None:
            with rec.span("serve.batch", size=len(requests)):
                self._score_group(None, self._problem, list(requests), results)
            return results
        # Route each request; vendors are partitioned across shards, so
        # group-at-a-time processing touches disjoint budgets and keeps
        # sequential-equivalence (see module docstring).
        groups: Dict[Optional[int], List[AdRequest]] = {}
        order: List[Optional[int]] = []
        for request in requests:
            shard = self._plan.route(request.customer)
            if shard not in groups:
                groups[shard] = []
                order.append(shard)
            groups[shard].append(request)
        with rec.span("serve.batch", size=len(requests), shards=len(order)):
            for shard in order:
                self._score_group(
                    shard, self._target_for(shard), groups[shard], results
                )
        return results

    def _score_group(
        self,
        shard: Optional[int],
        target,
        group: List[AdRequest],
        results: Dict[int, Tuple[Tuple[AdInstance, ...], Optional[int]]],
    ) -> None:
        engine = self._engine_for(shard, target)
        algorithm = self._algorithm
        # The kernel pre-scores candidates for O-AFA's own decide step
        # only; a subclass with its own process_customer (one that
        # learns from every arrival, say) is served request by request.
        if engine is None or getattr(
            type(algorithm), "process_customer", None
        ) is not OnlineAdaptiveFactorAware.process_customer:
            # Reference path: exact by construction (scalar-only models,
            # or algorithms the kernel does not model).
            for request in group:
                picked = algorithm.process_customer(
                    target, request.customer, self.assignment
                )
                self._commit(request, picked, shard, results)
            return

        budgets = target.budgets
        spend = self.assignment.spend_for_vendor

        # Phase A -- snapshot gather.  Collect the edge position of
        # every (request, candidate vendor) pair with the vendor's spend
        # at flush time, and answer all best-type lookups in ONE kernel
        # call.  Pairs outside the edge table get no snapshot answer.
        pairs: List[Tuple[int, int, float]] = []
        flat_positions: List[int] = []
        flat_remaining: List[float] = []
        gathered: List[List[int]] = []
        for request in group:
            customer = request.customer
            cid = customer.customer_id
            vendor_ids = target.valid_vendor_ids(customer, self.assignment)
            gathered.append(vendor_ids)
            if not target.holds(customer):
                continue  # relocated: scored at its location in decide
            for vid in vendor_ids:
                pos = engine.edge_position(cid, vid)
                if pos is not None:
                    spent = spend(vid)
                    pairs.append((cid, vid, spent))
                    flat_positions.append(pos)
                    flat_remaining.append(budgets[vid] - spent)
        snapshot = {}
        if flat_positions:
            with recorder().span(
                "serve.kernel", shard=shard, lookups=len(flat_positions)
            ):
                best_k, best_util, affordable = engine.batch_best(
                    flat_positions, flat_remaining
                )
            ad_types = target.ad_types
            snapshot = {
                (cid, vid): (ad_types[k] if ok else None, utility, spent)
                for (cid, vid, spent), k, utility, ok in zip(
                    pairs,
                    best_k.tolist(),
                    best_util.tolist(),
                    affordable.tolist(),
                )
            }

        # Phase B -- decide in arrival order.  An earlier in-batch
        # commit changes its vendor's spend, which voids that vendor's
        # snapshot answers: the decide step re-scores it at the current
        # state, exactly as the sequential loop would.
        exhausted = self.assignment.exhausted
        gathered_exhausted = len(exhausted)
        for request, vendor_ids in zip(group, gathered):
            if len(exhausted) > gathered_exhausted:
                # The sequential loop's candidate scan would have
                # skipped (and counted) vendors exhausted since.
                active = [vid for vid in vendor_ids if vid not in exhausted]
                target.churn.skips += len(vendor_ids) - len(active)
                vendor_ids = active
            picked = algorithm.decide(
                target, request.customer, self.assignment, vendor_ids, snapshot
            )
            self._commit(request, picked, shard, results)

    # -- committing ----------------------------------------------------
    def _commit(
        self,
        request: AdRequest,
        picked: Sequence[AdInstance],
        shard: Optional[int],
        results: Dict[int, Tuple[Tuple[AdInstance, ...], Optional[int]]],
    ) -> None:
        """Commit one request's decided instances through
        :meth:`~repro.core.assignment.Assignment.commit`, counting its
        outcomes (a vendor the commit exhausts counts as deactivated,
        exactly like the synchronous stream loop).
        """
        rec = recorder()
        stats = self.stats
        committed: List[AdInstance] = []
        for instance in picked:
            outcome = self.assignment.commit(instance)
            if outcome == COMMITTED:
                committed.append(instance)
                stats.commits += 1
                stats.utility += instance.utility
                rec.count("serve.budget_commits")
                if instance.vendor_id in self.assignment.exhausted:
                    stats.vendors_deactivated += 1
                    rec.count("serve.vendors_deactivated")
            elif outcome == DUPLICATE:
                stats.duplicates_suppressed += 1
                rec.count("serve.duplicates_suppressed")
            else:
                stats.rejected_instances += 1
                rec.count("serve.rejected_instances")
        stats.served += 1
        results[request.request_id] = (tuple(committed), shard)
