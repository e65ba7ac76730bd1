"""The reconciliation approach, RECON (Section III, Algorithm 1).

Per vendor, the single-vendor problem (Eq. 8) -- an optional-class
multiple-choice knapsack over the vendor's valid customers -- is solved
with a pluggable MCKP backend (greedy LP-relaxation by default, matching
the paper's use of an LP solver with :math:`(1-\\varepsilon)`
guarantees).  The per-vendor solutions are unioned, which may leave some
customers over their ad limit; the reconciliation loop then visits the
violated customers in random order, repeatedly deletes their
lowest-utility instance, and lets the freed vendor greedily re-spend the
refund on other valid customers with spare capacity.  Theorem III.1
bounds the result at :math:`(1 - \\varepsilon)\\,\\theta` of optimal.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.algorithms.base import OfflineAlgorithm
from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import Vendor
from repro.core.problem import MUAAProblem
from repro.mckp.items import MCKPColumns, single_vendor_mckp
from repro.mckp.solvers import solve as solve_mckp
from repro.obs.recorder import recorder
from repro.parallel import parallel_map, pool_workers, recon_workers
from repro.parallel.shm import ship_columns

_EPS = 1e-9


class Reconciliation(OfflineAlgorithm):
    """Algorithm 1: per-vendor MCKP + capacity-violation reconciliation.

    Args:
        mckp_method: Backend for the single-vendor problems; one of
            :data:`repro.mckp.solvers.SOLVER_NAMES`.
        seed: RNG seed for the random order in which violated customers
            are reconciled (line 7 of Algorithm 1 picks randomly).
            The RNG state is derived from this seed alone -- never from
            worker scheduling -- so a fixed seed produces identical
            assignments at every ``jobs`` value.
        violation_order: Order in which violated customers are
            reconciled -- ``"random"`` (the paper's choice),
            ``"most-violated"`` (largest capacity excess first), or
            ``"least-excess"`` (smallest excess first).  Exposed for
            the reconciliation-order ablation; the guarantee of
            Theorem III.1 holds for any order.
        jobs: Worker processes for the per-vendor MCKP solves (the
            independent subproblems of Eq. 8).  ``1`` (default) keeps
            the serial path; vendor batches are chunked across workers
            and merged in vendor order, so assignments are
            byte-identical to serial at any value.
        shards: Solve through a spatial shard plan with this many
            shards: each shard's per-vendor MCKPs run against that
            shard's engine only (one ``ship_columns`` block per shard
            when ``jobs > 1``), the shard is released, and the usual
            reconciliation then restores the global capacity
            constraint on replicated customers.  ``1`` (default) keeps
            the original unsharded path byte-for-byte.
        shard_plan: Explicit :class:`~repro.sharding.ShardPlan`,
            overriding ``shards``.

    Raises:
        ValueError: On an unknown violation order.
    """

    name = "RECON"

    #: Accepted reconciliation orders.
    VIOLATION_ORDERS = ("random", "most-violated", "least-excess")

    def __init__(
        self,
        mckp_method: str = "greedy-lp",
        seed: Optional[int] = None,
        violation_order: str = "random",
        jobs: int = 1,
        shards: int = 1,
        shard_plan=None,
    ) -> None:
        if violation_order not in self.VIOLATION_ORDERS:
            raise ValueError(
                f"unknown violation order {violation_order!r}; choose "
                f"from {self.VIOLATION_ORDERS}"
            )
        self._mckp_method = mckp_method
        self._seed = seed
        self._violation_order = violation_order
        self._jobs = jobs
        self._shards = shards
        self._shard_plan = shard_plan
        #: Diagnostics of the last run (violations found, ads replaced).
        self.last_stats: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Single-vendor problems (lines 2-5)
    # ------------------------------------------------------------------
    def _solve_single_vendor(
        self, problem: MUAAProblem, vendor: Vendor
    ) -> List[AdInstance]:
        """Solve :math:`\\mathbb{M}_j` and return its chosen instances."""
        with recorder().span("recon.vendor", vendor_id=vendor.vendor_id):
            return self._solve_single_vendor_inner(problem, vendor)

    def _solve_single_vendor_inner(
        self, problem: MUAAProblem, vendor: Vendor
    ) -> List[AdInstance]:
        mckp = vendor_mckp(problem, vendor)
        if mckp is None:
            return []
        solution = solve_mckp(mckp, method=self._mckp_method)
        return [
            problem.make_instance(customer_id, vendor.vendor_id, item.item_id)
            for customer_id, item in solution.chosen.items()
        ]

    def _vendor_solutions(
        self, problem: MUAAProblem
    ) -> Iterator[List[AdInstance]]:
        """Per-vendor MCKP solutions, in vendor catalogue order.

        With ``jobs > 1`` and a built compute engine, vendor batches are
        solved in worker processes against shared-memory columns and
        merged back in vendor order; results are byte-identical to the
        serial loop.  Degrades to serial when the pool declines (one
        job, no shared memory, worker crash) or there is no engine.
        """
        chunks = self._parallel_vendor_solutions(problem)
        if chunks is not None:
            return iter(chunks)
        return (
            self._solve_single_vendor(problem, vendor)
            for vendor in problem.vendors
        )

    def _parallel_vendor_solutions(
        self, problem: MUAAProblem
    ) -> Optional[List[List[AdInstance]]]:
        """Fan the per-vendor solves across workers, or ``None``."""
        n_vendors = len(problem.vendors)
        if pool_workers(self._jobs, n_vendors) < 2:
            return None
        engine = problem.acquire_engine()
        if engine is None:
            # The scalar utility path cannot be shipped as columns;
            # stay on the serial reference loop.
            return None
        arrays = engine.arrays
        edges = engine.edges
        columns = {
            "utilities": engine.utilities(),
            "edge_customer": np.asarray(edges.customer_idx, dtype=np.int64),
            "vendor_starts": np.asarray(edges.vendor_starts, dtype=np.int64),
            "customer_ids": arrays.customer_ids,
            # Budgets and costs as the serial loop reads them (the
            # entities' float64 values, whatever the engine's dtype).
            "budget": np.array(
                [
                    problem.vendors_by_id[vendor_id].budget
                    for vendor_id in arrays.vendor_ids.tolist()
                ],
                dtype=np.float64,
            ),
            "type_cost": _type_costs(problem),
            "type_ids": arrays.type_ids,
        }
        with ship_columns(columns) as shipment:
            chunked = parallel_map(
                recon_workers.solve_vendor_span,
                vendor_spans(n_vendors, self._jobs),
                self._jobs,
                initializer=recon_workers.init_worker,
                initargs=(shipment.handle, self._mckp_method),
            )
        if chunked is None:
            return None
        vendor_ids = arrays.vendor_ids
        solutions: List[List[AdInstance]] = [None] * n_vendors  # type: ignore[list-item]
        for chunk in chunked:
            for vendor_row, choices in chunk:
                vendor_id = int(vendor_ids[vendor_row])
                solutions[vendor_row] = [
                    problem.make_instance(customer_id, vendor_id, type_id)
                    for customer_id, type_id in choices
                ]
        return solutions

    # ------------------------------------------------------------------
    # Reconciliation (lines 6-11)
    # ------------------------------------------------------------------
    def _resolve_plan(self, problem: MUAAProblem):
        """The active shard plan, or ``None`` for the unsharded path."""
        if self._shard_plan is None and self._shards <= 1:
            return None
        from repro.sharding import resolve_plan

        return resolve_plan(problem, self._shards, self._shard_plan)

    @staticmethod
    def _merge(
        instances: List[AdInstance],
        by_customer: Dict[int, List[AdInstance]],
        spend: Dict[int, float],
        assigned_pairs: Set[Tuple[int, int]],
    ) -> None:
        """Union one vendor's solution into the mutable global view."""
        for inst in instances:
            by_customer.setdefault(inst.customer_id, []).append(inst)
            spend[inst.vendor_id] += inst.cost
            assigned_pairs.add(inst.pair)

    def solve(self, problem: MUAAProblem) -> Assignment:
        rec = recorder()

        # Mutable global view: per-customer instance lists, per-vendor
        # spend.  Capacity may be violated here by design.
        by_customer: Dict[int, List[AdInstance]] = {}
        spend: Dict[int, float] = {v.vendor_id: 0.0 for v in problem.vendors}
        assigned_pairs: Set[Tuple[int, int]] = set()

        plan = self._resolve_plan(problem)
        if plan is not None:
            # Sharded collection: each shard's engine lives only while
            # its vendors are solved (release before the next build),
            # so peak memory is the largest shard's edge table.  Every
            # vendor's candidate set is fully inside its shard (cell
            # size >= max radius + customer replication), making the
            # per-vendor solutions identical to the unsharded ones.
            for shard in range(plan.n_shards):
                view = plan.problem_for(shard)
                with rec.span(
                    "recon.shard_mckp",
                    shard=shard,
                    n_vendors=len(view.vendors),
                ):
                    for instances in self._vendor_solutions(view):
                        self._merge(
                            instances, by_customer, spend, assigned_pairs
                        )
                plan.release(shard)
        else:
            with rec.span(
                "recon.vendor_mckp", n_vendors=len(problem.vendors)
            ):
                for instances in self._vendor_solutions(problem):
                    self._merge(
                        instances, by_customer, spend, assigned_pairs
                    )

        assignment, stats = reconcile_capacity(
            problem,
            by_customer,
            spend,
            assigned_pairs,
            seed=self._seed,
            violation_order=self._violation_order,
        )
        self.last_stats = stats
        return assignment


def vendor_spans(n_vendors: int, jobs: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` vendor-row ranges, one per worker task.

    Each worker gets about four spans (for load balancing) while the
    span count stays proportional to the worker count.  Concatenating
    per-span results in list order reproduces the full-range result.
    """
    size = max(1, -(-n_vendors // (pool_workers(jobs, n_vendors) * 4)))
    return [
        (lo, min(lo + size, n_vendors)) for lo in range(0, n_vendors, size)
    ]


def _type_costs(problem: MUAAProblem) -> np.ndarray:
    """The ad-type catalogue's costs as float64, in catalogue order."""
    return np.array([t.cost for t in problem.ad_types], dtype=np.float64)


def vendor_mckp(problem: MUAAProblem, vendor: Vendor) -> Optional[MCKPColumns]:
    """The single-vendor problem :math:`\\mathbb{M}_j` (Eq. 8) of one vendor.

    With a built engine, the vendor's candidates are one contiguous
    slice of the edge table, utilities pre-scored; otherwise they come
    from the range query and the scalar utility model.  A deactivated
    vendor offers no candidates (its engine segment is empty).
    """
    engine = problem.acquire_engine()
    if engine is not None:
        span = engine.vendor_edge_slice(vendor.vendor_id)
        utilities = engine.utilities()[span]
        customer_ids = engine.arrays.customer_ids[
            engine.edges.customer_idx[span]
        ]
    elif vendor.vendor_id in problem.churn.inactive:
        return None
    else:
        customer_ids = problem.valid_customer_ids(vendor)
        utilities = [
            [
                inst.utility
                for inst in problem.pair_instances(cid, vendor.vendor_id)
            ]
            for cid in customer_ids
        ]
    return single_vendor_mckp(
        utilities,
        customer_ids,
        _type_costs(problem),
        [t.type_id for t in problem.ad_types],
        vendor.budget,
    )


def reconcile_capacity(
    problem: MUAAProblem,
    by_customer: Dict[int, List[AdInstance]],
    spend: Dict[int, float],
    assigned_pairs: Set[Tuple[int, int]],
    seed: Optional[int] = None,
    violation_order: str = "random",
) -> Tuple[Assignment, Dict[str, float]]:
    """Lines 6-11 of Algorithm 1 as a reusable pass.

    Takes the unioned per-vendor solutions (which may violate customer
    capacities -- by per-vendor construction in the unsharded solver,
    or additionally via replicated customers in the sharded solvers)
    and restores feasibility: violated customers are visited in the
    configured order, their lowest-utility instances dropped, and each
    refunded vendor greedily re-spends its freed budget.

    The mutable inputs (``by_customer``, ``spend``, ``assigned_pairs``)
    are consumed and modified in place.

    Returns:
        The feasible assignment and the run's violation statistics.
    """
    rec = recorder()
    rng = np.random.default_rng(seed)

    # Canonical (sorted) base order: the reconciliation order must
    # be a function of the seed and the instance alone, never of
    # dict insertion order or worker scheduling -- ``seed=`` then
    # gives identical output at any ``jobs`` value.
    violated = sorted(
        cid
        for cid, instances in by_customer.items()
        if len(instances) > problem.capacities[cid]
    )
    if violation_order == "random":
        rng.shuffle(violated)
    else:
        reverse = violation_order == "most-violated"
        violated.sort(
            key=lambda cid: len(by_customer[cid]) - problem.capacities[cid],
            reverse=reverse,
        )
    n_violations = len(violated)
    n_replacements = 0

    # Per-vendor candidate queues for the greedy re-assignment,
    # built lazily the first time a vendor frees budget.
    vendor_candidates: Dict[int, List[AdInstance]] = {}
    vendor_cursor: Dict[int, int] = {}

    def candidates_for(vendor_id: int) -> List[AdInstance]:
        queue = vendor_candidates.get(vendor_id)
        if queue is None:
            vendor = problem.vendors_by_id[vendor_id]
            queue = [
                inst
                for cid in problem.valid_customer_ids(vendor)
                for inst in problem.pair_instances(cid, vendor_id)
                if inst.utility > 0
            ]
            queue.sort(key=lambda inst: -inst.efficiency)
            vendor_candidates[vendor_id] = queue
            vendor_cursor[vendor_id] = 0
        return queue

    def redistribute(vendor_id: int) -> None:
        """Line 11: greedily re-spend the vendor's freed budget."""
        nonlocal n_replacements
        budget = problem.budgets[vendor_id]
        queue = candidates_for(vendor_id)
        cursor = vendor_cursor[vendor_id]
        while cursor < len(queue):
            inst = queue[cursor]
            cid = inst.customer_id
            if (
                inst.pair not in assigned_pairs
                and spend[vendor_id] + inst.cost <= budget + _EPS
                and len(by_customer.get(cid, ()))
                < problem.capacities[cid]
            ):
                by_customer.setdefault(cid, []).append(inst)
                spend[vendor_id] += inst.cost
                assigned_pairs.add(inst.pair)
                n_replacements += 1
                cursor += 1
                continue
            if spend[vendor_id] + problem.min_cost > budget + _EPS:
                break  # no ad type is affordable any more
            cursor += 1
        vendor_cursor[vendor_id] = cursor

    with rec.span("recon.reconcile", n_violated=n_violations):
        for cid in violated:
            instances = by_customer[cid]
            capacity = problem.capacities[cid]
            # Line 8: sort the customer's instances by utility.
            instances.sort(key=lambda inst: -inst.utility)
            while len(instances) > capacity:
                # Line 10: drop the lowest-utility instance.
                dropped = instances.pop()
                spend[dropped.vendor_id] -= dropped.cost
                assigned_pairs.discard(dropped.pair)
                # Line 11: the vendor re-spends its refund elsewhere.
                redistribute(dropped.vendor_id)

    rec.count("recon.violated_customers", n_violations)
    rec.count("recon.replacement_ads", n_replacements)
    stats = {
        "violated_customers": float(n_violations),
        "replacement_ads": float(n_replacements),
    }

    assignment = problem.new_assignment()
    for instances in by_customer.values():
        for inst in instances:
            assignment.add(inst, strict=True)
    return assignment, stats
