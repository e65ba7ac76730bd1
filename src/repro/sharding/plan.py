"""Spatial shard plans: partitioning one MUAA problem into cell groups.

A :class:`ShardPlan` partitions the **vendors** of a problem into
spatial shards via :class:`~repro.spatial.grid_index.GridIndex` cells
whose side is at least the maximum advertising radius ``max r_j``.
That cell-size floor is what makes sharding exact rather than
approximate: a vendor's candidates all lie within its radius (the
Eq. 4 range constraint), so replicating every in-range customer into
the vendor's shard gives each shard the vendor's *complete* candidate
set.  Per-vendor subproblems solved inside a shard are therefore
identical to the ones the unsharded solver sees; only the *global*
customer-capacity constraint couples shards, and it is restored by a
cross-shard reconciliation pass (see ``docs/sharding.md``).

Invariants:

* every vendor belongs to exactly one shard;
* a shard's customer set is the union of its vendors' valid customers
  (a customer in range of vendors in several shards is **replicated**
  into each; capacity stays tracked globally by the solvers);
* per-shard problem views use global entity ids, so instances decided
  in a shard validate directly against the full problem;
* ``shards=1`` is the identity plan: :meth:`ShardPlan.problem_for`
  returns the original problem object itself, so nothing downstream
  can diverge byte-wise from the unsharded path.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Tuple

from repro.churn import (
    KIND_DEACTIVATE,
    KIND_INSERT,
    KIND_MIGRATE,
    KIND_RETIRE,
    ChurnEvent,
    ChurnLog,
    ShardDelta,
    VendorJoin,
)
from repro.core.entities import Customer, Vendor
from repro.core.problem import MUAAProblem
from repro.exceptions import InvalidProblemError
from repro.spatial.grid_index import GridIndex
from repro.spatial.queries import valid_vendors

#: Version of the :meth:`ShardPlan.to_metadata` document layout.
#: v2 adds ``churn_epoch``; v1 documents still load (epoch 0).
METADATA_SCHEMA_VERSION = 2

#: Floor on the shard cell size, mirroring the spatial-query backends.
_MIN_CELL = 1e-6


class ShardPlan:
    """A spatial partition of one problem's vendors into shards.

    Build with :meth:`ShardPlan.build` (grid-driven) or
    :meth:`ShardPlan.from_metadata` (a previously serialised grouping).
    The plan owns lazily-built per-shard :class:`MUAAProblem` views;
    :meth:`release` drops a view (and its compute engine) so peak
    memory stays bounded by the largest shard plus bookkeeping.
    """

    def __init__(
        self,
        problem: MUAAProblem,
        cell_size: float,
        shard_vendor_ids: Sequence[Sequence[int]],
        churn_epoch: int = 0,
    ) -> None:
        if not shard_vendor_ids:
            raise InvalidProblemError("a shard plan needs at least one shard")
        self._problem = problem
        self._cell_size = float(cell_size)
        self._shard_vendor_ids: List[List[int]] = [
            list(ids) for ids in shard_vendor_ids
        ]
        self._identity = len(self._shard_vendor_ids) == 1

        seen: Dict[int, int] = {}
        for shard, ids in enumerate(self._shard_vendor_ids):
            for vendor_id in ids:
                if vendor_id not in problem.vendors_by_id:
                    raise InvalidProblemError(
                        f"shard {shard}: unknown vendor id {vendor_id}"
                    )
                if vendor_id in seen:
                    raise InvalidProblemError(
                        f"vendor {vendor_id} appears in shards "
                        f"{seen[vendor_id]} and {shard}"
                    )
                seen[vendor_id] = shard
        if len(seen) != len(problem.vendors):
            missing = set(problem.vendors_by_id) - set(seen)
            raise InvalidProblemError(
                f"shard plan misses vendors {sorted(missing)[:5]}"
            )
        #: vendor id -> its (single) shard index.
        self.shard_of_vendor: Dict[int, int] = seen

        self._shard_customer_ids: List[List[int]] = []
        self._shards_of_customer: Dict[int, List[int]] = {}
        self._edge_counts: Optional[List[int]] = None
        self._cell_owner: Dict[Tuple[int, int], int] = {}
        self._views: Dict[int, MUAAProblem] = {}
        # Incremental-churn bookkeeping: per-shard customer refcounts
        # (how many of a shard's vendors have the customer in range),
        # per-vendor candidate degrees, and the global customer row
        # order that keeps membership lists deterministic.
        self._refs: List[Dict[int, int]] = []
        self._vendor_degrees: Dict[int, int] = {}
        self._customer_rows: Dict[int, int] = {
            c.customer_id: row for row, c in enumerate(problem.customers)
        }
        #: Per-shard structural version, bumped whenever churn changes
        #: the shard's vendor/customer sets (consumed by caching layers).
        self.shard_versions: List[int] = [0] * len(self._shard_vendor_ids)
        self._churn_log = ChurnLog(base=churn_epoch)
        self._finalize()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        problem: MUAAProblem,
        shards: int,
        cell_size: Optional[float] = None,
    ) -> "ShardPlan":
        """Partition ``problem`` into at most ``shards`` spatial shards.

        Vendors are binned into grid cells of side
        ``max(extent / ceil(sqrt(shards)), max_radius)`` -- never below
        the maximum advertising radius, so each vendor's candidate set
        is contained in its own shard once customers are replicated.
        Occupied cells (in lexicographic order) are grouped into
        contiguous runs balanced by vendor count; sparse or clustered
        instances may therefore yield fewer shards than requested.

        Args:
            problem: The instance to partition.
            shards: Requested shard count (values below 1 are clamped).
            cell_size: Explicit cell side, overriding the heuristic.
                Still floored at the maximum vendor radius.

        Raises:
            InvalidProblemError: On a non-finite explicit cell size.
        """
        shards = max(1, int(shards))
        if shards == 1 or not problem.vendors:
            return cls.identity(problem)
        if cell_size is not None and not (
            math.isfinite(cell_size) and cell_size > 0
        ):
            raise InvalidProblemError(
                f"shard cell_size must be finite and positive, "
                f"got {cell_size}"
            )
        cell = cls._heuristic_cell(problem, shards, cell_size)
        grid = GridIndex.build(
            [(v.vendor_id, v.location) for v in problem.vendors], cell
        )
        cells = grid.cells()
        counts = [len(grid.points_in_cell(c)) for c in cells]
        groups = _balanced_groups(counts, shards)
        shard_vendor_ids: List[List[int]] = []
        rows = {v.vendor_id: row for row, v in enumerate(problem.vendors)}
        for group in groups:
            ids = [
                vendor_id
                for cell_pos in group
                for vendor_id in grid.points_in_cell(cells[cell_pos])
            ]
            # Catalogue order inside the shard: per-vendor work then
            # runs in the same relative order as the unsharded loops.
            ids.sort(key=rows.__getitem__)
            shard_vendor_ids.append(ids)
        return cls(problem, cell, shard_vendor_ids)

    @classmethod
    def identity(cls, problem: MUAAProblem) -> "ShardPlan":
        """The single-shard plan: shard 0 *is* the original problem."""
        cell = problem.max_radius if problem.max_radius > 0 else 1.0
        return cls(
            problem, cell, [[v.vendor_id for v in problem.vendors]]
        )

    @staticmethod
    def _heuristic_cell(
        problem: MUAAProblem, shards: int, cell_size: Optional[float]
    ) -> float:
        """Cell side: requested split of the extent, floored at max r_j."""
        locations = [v.location for v in problem.vendors] + [
            c.location for c in problem.customers
        ]
        xs = [p[0] for p in locations]
        ys = [p[1] for p in locations]
        extent = max(max(xs) - min(xs), max(ys) - min(ys), _MIN_CELL)
        k = max(1, math.ceil(math.sqrt(shards)))
        wanted = cell_size if cell_size is not None else extent / k
        return max(wanted, problem.max_radius, _MIN_CELL)

    def _finalize(self) -> None:
        """Derive customer memberships, replication, and cell owners."""
        problem = self._problem
        if self._identity:
            self._shard_customer_ids = [
                [c.customer_id for c in problem.customers]
            ]
            self._shards_of_customer = {
                c.customer_id: [0] for c in problem.customers
            }
            self._refs = [{}]
            return
        customer_rows = self._customer_rows
        edge_counts: List[int] = []
        for shard, vendor_ids in enumerate(self._shard_vendor_ids):
            refs: Dict[int, int] = {}
            n_edges = 0
            for vendor_id in vendor_ids:
                vendor = problem.vendors_by_id[vendor_id]
                in_range = problem.valid_customer_ids(vendor)
                n_edges += len(in_range)
                self._vendor_degrees[vendor_id] = len(in_range)
                for customer_id in in_range:
                    refs[customer_id] = refs.get(customer_id, 0) + 1
                cell = self._cell_index(vendor.location)
                self._cell_owner.setdefault(cell, shard)
            ordered = sorted(refs, key=customer_rows.__getitem__)
            self._refs.append(refs)
            self._shard_customer_ids.append(ordered)
            edge_counts.append(n_edges)
            for customer_id in ordered:
                self._shards_of_customer.setdefault(
                    customer_id, []
                ).append(shard)
        self._edge_counts = edge_counts

    def _cell_index(self, point: Tuple[float, float]) -> Tuple[int, int]:
        return (
            int(math.floor(point[0] / self._cell_size)),
            int(math.floor(point[1] / self._cell_size)),
        )

    def cell_of(self, point: Tuple[float, float]) -> Tuple[int, int]:
        """The partition-grid cell of a point (public form of the
        routing/migration cell key)."""
        return self._cell_index(point)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def problem(self) -> MUAAProblem:
        """The underlying (full) problem."""
        return self._problem

    @property
    def n_shards(self) -> int:
        """Number of shards actually materialised (may be below the
        requested count on sparse or clustered instances)."""
        return len(self._shard_vendor_ids)

    @property
    def is_identity(self) -> bool:
        """True for the trivial single-shard plan."""
        return self._identity

    @property
    def cell_size(self) -> float:
        """Side of the partition cells (>= the maximum vendor radius)."""
        return self._cell_size

    @property
    def epoch(self) -> int:
        """The plan's churn epoch: the number of churn events applied
        (plus any epoch inherited from serialised metadata)."""
        return self._churn_log.epoch

    @property
    def churn_log(self) -> ChurnLog:
        """The versioned log of churn events applied to this plan."""
        return self._churn_log

    def vendor_ids(self, shard: int) -> List[int]:
        """Vendor ids of one shard, in global catalogue order."""
        return list(self._shard_vendor_ids[shard])

    def customer_ids(self, shard: int) -> List[int]:
        """Customer ids of one shard, in global catalogue order."""
        return list(self._shard_customer_ids[shard])

    def shards_of_customer(self, customer_id: int) -> List[int]:
        """Shards holding (a replica of) one customer; may be empty."""
        return list(self._shards_of_customer.get(customer_id, ()))

    @property
    def replicated_customers(self) -> int:
        """Customers present in more than one shard."""
        if self._identity:
            return 0
        return sum(
            1
            for shards in self._shards_of_customer.values()
            if len(shards) > 1
        )

    def shard_sizes(self) -> List[Tuple[int, int]]:
        """``(n_vendors, n_customers)`` per shard."""
        return [
            (len(v), len(c))
            for v, c in zip(self._shard_vendor_ids, self._shard_customer_ids)
        ]

    def edge_counts(self) -> List[int]:
        """Candidate-edge (valid pair) count per shard.

        Computed during plan construction from the same range queries
        the engines will run, so the peak-memory profile of a plan is
        known *before* any shard engine is built.
        """
        if self._edge_counts is None:
            counts = []
            for vendor_ids in self._shard_vendor_ids:
                counts.append(
                    sum(
                        len(
                            self._problem.valid_customer_ids(
                                self._problem.vendors_by_id[vendor_id]
                            )
                        )
                        for vendor_id in vendor_ids
                    )
                )
            self._edge_counts = counts
        return list(self._edge_counts)

    def card(self) -> str:
        """A human-readable shard card for CLI/info output."""
        sizes = self.shard_sizes()
        edges = self.edge_counts()
        lines = [
            f"shards:         {self.n_shards} "
            f"(cell size {self._cell_size:.4f})",
            f"replicated:     {self.replicated_customers} customers "
            f"in >1 shard",
        ]
        for shard, ((n_vendors, n_customers), n_edges) in enumerate(
            zip(sizes, edges)
        ):
            lines.append(
                f"  shard {shard}:      {n_vendors:5d} vendors "
                f"{n_customers:6d} customers {n_edges:8d} edges"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Views and routing
    # ------------------------------------------------------------------
    def problem_for(self, shard: int) -> MUAAProblem:
        """The (cached) per-shard problem view.

        Shard views share the full problem's ad catalogue, utility
        model, pair validator, backend and parallel configuration, and
        keep global entity ids; the identity plan returns the original
        problem object itself.
        """
        if self._identity:
            return self._problem
        view = self._views.get(shard)
        if view is None:
            problem = self._problem
            view = MUAAProblem(
                customers=[
                    problem.customers_by_id[cid]
                    for cid in self._shard_customer_ids[shard]
                ],
                vendors=[
                    problem.vendors_by_id[vid]
                    for vid in self._shard_vendor_ids[shard]
                ],
                ad_types=problem.ad_types,
                utility_model=problem.utility_model,
                pair_validator=problem.pair_validator,
                spatial_backend=problem.spatial_backend,
                use_engine=problem._use_engine,
                parallel=problem.parallel_config,
                churn=problem.churn,
                dtype=problem.dtype_policy,
            )
            self._views[shard] = view
        return view

    def resident_view(self, shard: int) -> Optional[MUAAProblem]:
        """The shard's cached view if currently materialised, else
        ``None`` -- never triggers a build (unlike :meth:`problem_for`).
        The identity plan's view is always the problem itself."""
        if self._identity:
            return self._problem
        return self._views.get(shard)

    def release(self, shard: int) -> None:
        """Drop a shard's cached view (and with it its engine state).

        A no-op for the identity plan, which aliases the original
        problem and must never tear it down.
        """
        if not self._identity:
            self._views.pop(shard, None)

    def release_all(self) -> None:
        """Drop every cached shard view."""
        if not self._identity:
            self._views.clear()

    @property
    def resident_shards(self) -> List[int]:
        """Shards whose views are currently materialised."""
        if self._identity:
            return [0]
        return sorted(self._views)

    def route(self, customer: Customer) -> Optional[int]:
        """The shard that should serve one arriving customer.

        Preference order: a *member* shard owning the customer's grid
        cell; else the customer's first member shard; else the owner of
        the customer's cell (for customers outside every vendor's
        range the spatial prior is still the best guess); else ``None``
        (serve from the full problem).

        A relocated entity (trajectory scenarios: its id is held at
        another location) routes as a customer first seen at its
        current location would: its members are the shards whose
        vendors cover that location.  The plan itself never changes.
        """
        if self._identity:
            return 0
        problem, customer_id = self._problem, customer.customer_id
        if problem.holds(customer) or (
            customer_id not in problem.customers_by_id
        ):
            members = self._shards_of_customer.get(customer_id)
        else:
            members = self._covering_shards(customer)
        cell_owner = self._cell_owner.get(
            self._cell_index(customer.location)
        )
        if members:
            if cell_owner is not None and cell_owner in members:
                return cell_owner
            return members[0]
        return cell_owner

    def _covering_shards(self, customer: Customer) -> List[int]:
        """Shards with a vendor whose range contains ``customer``'s
        location, ascending (inactive vendors count, as in membership)."""
        problem = self._problem
        if problem.pair_validator is not None:
            in_range = [
                v.vendor_id
                for v in problem.vendors
                if problem.pair_validator(customer, v)
            ]
        else:
            in_range = valid_vendors(
                customer,
                problem.vendors_by_id,
                problem.vendor_index,
                problem.max_radius,
            )
        return sorted(
            {
                self.shard_of_vendor[vid]
                for vid in in_range
                if vid in self.shard_of_vendor
            }
        )

    # ------------------------------------------------------------------
    # Live churn (incremental membership; see docs/incremental.md)
    # ------------------------------------------------------------------
    def _attach_vendors(
        self, shard: int, joining: Sequence[Tuple[Vendor, Sequence[int]]]
    ) -> List[VendorJoin]:
        """Record vendors joining ``shard`` (each with its in-range
        customers), in one pass: shard vendor list (kept in global
        catalogue order), customer refcounts/membership, replication,
        and edge counts.  Returns one :class:`VendorJoin` per vendor:
        its insertion position in the shard's vendor list and the
        customers it brings into the shard."""
        customers_by_id = self._problem.customers_by_id
        rows = {
            v.vendor_id: row for row, v in enumerate(self._problem.vendors)
        }
        ids = self._shard_vendor_ids[shard]
        keys = [rows[vid] for vid in ids]
        refs = self._refs[shard]
        joins: List[VendorJoin] = []
        admitted: List[int] = []
        for vendor, in_range in joining:
            key = rows[vendor.vendor_id]
            position = bisect_left(keys, key)
            keys.insert(position, key)
            ids.insert(position, vendor.vendor_id)
            fresh = [cid for cid in in_range if cid not in refs]
            for cid in in_range:
                refs[cid] = refs.get(cid, 0) + 1
            admitted.extend(fresh)
            self._vendor_degrees[vendor.vendor_id] = len(in_range)
            if self._edge_counts is not None:
                self._edge_counts[shard] += len(in_range)
            joins.append(
                VendorJoin(
                    vendor=vendor,
                    position=position,
                    admit=tuple(customers_by_id[cid] for cid in fresh),
                )
            )
        if admitted:
            members = self._shard_customer_ids[shard]
            members.extend(admitted)
            members.sort(key=self._customer_rows.__getitem__)
            for cid in admitted:
                insort(self._shards_of_customer.setdefault(cid, []), shard)
        return joins

    def _detach_vendors(
        self, shard: int, leaving: Dict[int, Sequence[int]]
    ) -> None:
        """Record vendors leaving ``shard`` (vendor id -> in-range
        customers), in one pass; customers whose refcount drops to zero
        leave the shard's membership/replication maps."""
        ids = self._shard_vendor_ids[shard]
        ids[:] = [vid for vid in ids if vid not in leaving]
        refs = self._refs[shard]
        dropped = set()
        for vendor_id, in_range in leaving.items():
            for cid in in_range:
                count = refs.get(cid, 0) - 1
                if count <= 0:
                    refs.pop(cid, None)
                    dropped.add(cid)
                else:
                    refs[cid] = count
            degree = self._vendor_degrees.pop(vendor_id, len(in_range))
            if self._edge_counts is not None:
                self._edge_counts[shard] -= degree
        if not dropped:
            return
        members = self._shard_customer_ids[shard]
        members[:] = [cid for cid in members if cid not in dropped]
        for cid in dropped:
            shards = self._shards_of_customer.get(cid)
            if shards is not None and shard in shards:
                shards.remove(shard)
                if not shards:
                    del self._shards_of_customer[cid]

    def _splice_views(
        self, deltas: Sequence[ShardDelta], bases=None
    ) -> None:
        """Apply each delta to its shard's resident view (if any)."""
        for delta in deltas:
            view = self._views.get(delta.shard)
            if view is not None:
                view.apply_delta(delta, bases)

    def _commit_event(
        self, event: ChurnEvent, touched: Sequence[int]
    ) -> int:
        """Log one applied event, sync the shared epoch, and bump the
        structural version of every touched shard."""
        epoch = self._churn_log.append(event)
        self._problem.churn.epoch = epoch
        for shard in touched:
            self.shard_versions[shard] += 1
        return epoch

    def migrate_cells(
        self,
        cells: Sequence[Tuple[int, int]],
        src: int,
        dst: int,
        _event: Optional[ChurnEvent] = None,
    ) -> List[ShardDelta]:
        """Move every ``src`` vendor located in ``cells`` to ``dst``,
        rebalancing online.

        Membership, routing, replication and cached views are updated
        incrementally -- untouched shards are not rebuilt, and the two
        touched shards' resident views are spliced (vendors retired
        from ``src``; customers admitted once and vendors inserted into
        ``dst`` at catalogue positions) rather than rebuilt.  Live
        vendors carry their pair bases from the ``src`` engine, so
        nothing is re-scored; a deactivated vendor stays deactivated
        (the ``dst`` delta lists it in ``deactivate``).  The event is
        appended to the churn log (one epoch tick).

        Returns the per-shard deltas (for ``src`` and ``dst``) so a
        cluster episode can forward them to out-of-process workers.
        """
        if self._identity:
            raise InvalidProblemError(
                "cell migration needs a non-identity shard plan"
            )
        n = self.n_shards
        if not (0 <= src < n and 0 <= dst < n) or src == dst:
            raise InvalidProblemError(
                f"invalid migration {src} -> {dst} with {n} shards"
            )
        problem = self._problem
        cell_set = {tuple(cell) for cell in cells}
        moved = [
            vid
            for vid in self._shard_vendor_ids[src]
            if self._cell_index(problem.vendors_by_id[vid].location)
            in cell_set
        ]
        event = _event or ChurnEvent(
            kind=KIND_MIGRATE, cells=tuple(sorted(cell_set)), src=src, dst=dst
        )
        if not moved:
            self._commit_event(event, ())
            return []
        in_range = {
            vid: problem.valid_customer_ids(problem.vendors_by_id[vid])
            for vid in moved
        }
        self._detach_vendors(src, in_range)
        joins = self._attach_vendors(
            dst, [(problem.vendors_by_id[vid], in_range[vid]) for vid in moved]
        )
        for vid in moved:
            self.shard_of_vendor[vid] = dst
        for cell in cell_set:
            self._cell_owner[cell] = dst
        epoch = self._commit_event(event, (src, dst))
        deltas = [
            ShardDelta(shard=src, epoch=epoch, retire=tuple(moved)),
            ShardDelta(
                shard=dst,
                epoch=epoch,
                join=tuple(joins),
                deactivate=tuple(
                    vid for vid in moved if vid in problem.churn.inactive
                ),
            ),
        ]
        # The source engine's scored segments travel with their vendors
        # (taken before the source view retires them).
        src_view, bases = self._views.get(src), {}
        if (
            dst in self._views
            and src_view is not None
            and src_view.engine is not None
        ):
            for vid in moved:
                carried = src_view.engine.segment_bases(vid)
                if carried is not None:
                    bases[vid] = carried
        self._splice_views(deltas, bases)
        return deltas

    def apply_churn(self, event: ChurnEvent) -> List[ShardDelta]:
        """Apply one churn event through the plan, bumping the epoch.

        The global problem, the plan's membership/routing maps, and any
        resident shard views are all updated incrementally; the
        returned :class:`ShardDelta` payloads let a cluster episode
        bring out-of-process shard workers to the same epoch.
        """
        problem = self._problem
        if event.kind == KIND_MIGRATE:
            return self.migrate_cells(
                event.cells, event.src, event.dst, _event=event
            )
        if event.kind == KIND_INSERT:
            vendor = event.vendor
            if self._identity:
                if problem.insert_vendor(vendor):
                    self._shard_vendor_ids[0].append(vendor.vendor_id)
                    self.shard_of_vendor[vendor.vendor_id] = 0
                epoch = self._commit_event(event, (0,))
                return [
                    ShardDelta(
                        shard=0, epoch=epoch,
                        join=(VendorJoin(vendor=vendor),),
                    )
                ]
            if vendor.vendor_id in problem.vendors_by_id:
                epoch = self._commit_event(event, ())
                return []
            cell = self._cell_index(vendor.location)
            dst = self._cell_owner.get(cell)
            if dst is None:
                counts = self.edge_counts()
                dst = counts.index(min(counts))
            problem.insert_vendor(vendor)
            (join,) = self._attach_vendors(
                dst, [(vendor, problem.valid_customer_ids(vendor))]
            )
            self.shard_of_vendor[vendor.vendor_id] = dst
            self._cell_owner.setdefault(cell, dst)
            epoch = self._commit_event(event, (dst,))
            deltas = [ShardDelta(shard=dst, epoch=epoch, join=(join,))]
            self._splice_views(deltas)
            return deltas
        if event.kind == KIND_RETIRE:
            vendor_id = event.vendor_id
            problem.churn.inactive.discard(vendor_id)
            if self._identity:
                if problem.retire_vendor(vendor_id):
                    self._shard_vendor_ids[0].remove(vendor_id)
                    self.shard_of_vendor.pop(vendor_id, None)
                epoch = self._commit_event(event, (0,))
                return [
                    ShardDelta(shard=0, epoch=epoch, retire=(vendor_id,))
                ]
            shard = self.shard_of_vendor.pop(vendor_id, None)
            if shard is None:
                epoch = self._commit_event(event, ())
                return []
            vendor = problem.vendors_by_id[vendor_id]
            self._detach_vendors(
                shard, {vendor_id: problem.valid_customer_ids(vendor)}
            )
            problem.retire_vendor(vendor_id)
            epoch = self._commit_event(event, (shard,))
            deltas = [ShardDelta(shard=shard, epoch=epoch, retire=(vendor_id,))]
            self._splice_views(deltas)
            return deltas
        if event.kind == KIND_DEACTIVATE:
            vendor_id = event.vendor_id
            shard = 0 if self._identity else self.shard_of_vendor.get(
                vendor_id
            )
            problem.deactivate_vendors([vendor_id])
            # Set-only at the membership level: no structural change,
            # so no version bump and untouched caches stay valid.
            epoch = self._commit_event(event, ())
            if shard is None:
                return []
            deltas = [
                ShardDelta(shard=shard, epoch=epoch, deactivate=(vendor_id,))
            ]
            self._splice_views(deltas)
            return deltas
        raise InvalidProblemError(f"unknown churn event kind {event.kind!r}")

    # ------------------------------------------------------------------
    # Metadata round-trip
    # ------------------------------------------------------------------
    def to_metadata(self) -> Dict:
        """A JSON-ready document describing the partition.

        Only the vendor grouping and cell size are stored; customer
        memberships, replication and edge counts are derived, so a
        reloaded plan is rebuilt from the same invariants rather than
        trusted from the document.
        """
        return {
            "schema_version": METADATA_SCHEMA_VERSION,
            "n_shards": self.n_shards,
            "cell_size": self._cell_size,
            "shard_vendors": [list(ids) for ids in self._shard_vendor_ids],
            "churn_epoch": self.epoch,
        }

    @classmethod
    def from_metadata(cls, problem: MUAAProblem, doc: Dict) -> "ShardPlan":
        """Rebuild a plan from :meth:`to_metadata` output.

        Accepts schema versions 1 (pre-churn; epoch 0) and 2.  The
        vendor grouping stored is the *post-churn* one, so a reloaded
        plan reproduces the current partition without replaying events.

        Raises:
            InvalidProblemError: On an unknown schema version, a vendor
                id the problem does not know, or an incomplete cover.
        """
        version = doc.get("schema_version")
        if version not in (1, METADATA_SCHEMA_VERSION):
            raise InvalidProblemError(
                f"unsupported shard-plan schema version {version!r}"
            )
        shard_vendors = doc.get("shard_vendors")
        if not isinstance(shard_vendors, list) or not shard_vendors:
            raise InvalidProblemError("shard metadata misses shard_vendors")
        return cls(
            problem,
            float(doc["cell_size"]),
            shard_vendors,
            churn_epoch=int(doc.get("churn_epoch", 0)),
        )

    def save(self, path) -> "Path":
        """Persist the plan as a store artifact (see ``docs/scale.md``).

        Delegates to :func:`repro.store.save_plan`: the
        :meth:`to_metadata` document wrapped in a provenance envelope
        (dtype policy, git sha, churn epoch).
        """
        from repro.store import save_plan

        return save_plan(self, path)

    @classmethod
    def load(cls, path, problem: MUAAProblem) -> "ShardPlan":
        """Rebuild a saved plan against ``problem``.

        Delegates to :func:`repro.store.load_plan`, which validates the
        envelope (kind, store schema, churn epoch) before handing the
        inner document to :meth:`from_metadata`.
        """
        from repro.store import load_plan

        return load_plan(path, problem)


def _balanced_groups(counts: Sequence[int], shards: int) -> List[List[int]]:
    """Group contiguous cell positions into at most ``shards`` runs.

    Cells (already in lexicographic order) are walked once; a group is
    closed when adding the next cell would move its vendor count away
    from the adaptive target ``remaining / shards_left``, while always
    leaving at least one cell for every remaining shard.  Deterministic
    in the cell counts alone.
    """
    groups: List[List[int]] = []
    remaining = sum(counts)
    position = 0
    n_cells = len(counts)
    for group_index in range(shards):
        if position >= n_cells:
            break
        shards_left = shards - group_index
        target = remaining / shards_left
        group: List[int] = []
        acc = 0
        while position < n_cells:
            if group and (n_cells - position) <= (shards_left - 1):
                break
            step = counts[position]
            if group and abs(acc + step - target) >= abs(acc - target):
                break
            group.append(position)
            acc += step
            position += 1
        groups.append(group)
        remaining -= acc
    return groups


def resolve_plan(
    problem: MUAAProblem,
    shards: int = 1,
    shard_plan: Optional[ShardPlan] = None,
) -> Optional[ShardPlan]:
    """The active plan for a solver call, or ``None`` for unsharded.

    A supplied plan wins over a ``shards`` count; identity plans (and
    ``shards <= 1``) resolve to ``None`` so callers fall through to
    their original, byte-identical code path.
    """
    if shard_plan is not None:
        if shard_plan.problem is not problem:
            raise InvalidProblemError(
                "shard plan was built for a different problem instance"
            )
        return None if shard_plan.is_identity else shard_plan
    if shards <= 1:
        return None
    plan = ShardPlan.build(problem, shards)
    return None if plan.is_identity else plan
