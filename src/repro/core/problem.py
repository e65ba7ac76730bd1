"""The MUAA problem instance (Definition 5).

:class:`MUAAProblem` bundles customers, vendors, the ad-type catalogue
and a utility model, and provides the derived quantities every
algorithm needs: valid-pair range queries (via the spatial grid index),
per-instance utilities and budget efficiencies, and fresh
constraint-tracking assignment sets.

Utility evaluation has two implementations behind one interface: the
scalar :class:`~repro.utility.model.UtilityModel` reference path, and
the columnar :class:`~repro.engine.ComputeEngine` that scores the whole
candidate-edge table in vectorized passes.  Batch entry points
(:meth:`MUAAProblem.warm_utilities`,
:meth:`MUAAProblem.candidate_instances`) build the engine on demand via
:meth:`MUAAProblem.acquire_engine`; point lookups
(:meth:`MUAAProblem.pair_instances`,
:meth:`MUAAProblem.best_instance_for_pair`) use it only once built, so
purely online access patterns keep their scalar latency profile.

The instance holds no run state.  A run's spend and exhausted vendors
live on its :class:`~repro.core.assignment.Assignment`; a customer
relocated mid-run (trajectory scenarios) is an entity the run passes
in, scored at its own location (see :meth:`MUAAProblem.holds`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.churn import (
    KIND_DEACTIVATE,
    KIND_INSERT,
    KIND_RETIRE,
    ChurnEvent,
    ChurnState,
    ShardDelta,
    VendorJoin,
)
from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import AdType, Customer, Vendor, distance
from repro.exceptions import InvalidProblemError
from repro.spatial.grid_index import GridIndex
from repro.spatial.queries import (
    build_customer_index,
    build_vendor_index,
    valid_customers,
    valid_vendors,
)
from repro.utility.model import UtilityModel


class MUAAProblem:
    """A maximum-utility ad assignment instance.

    Args:
        customers: The spatial customers :math:`U_\\varphi`.
        vendors: The spatial vendors :math:`V_\\varphi`.
        ad_types: The ad-type catalogue :math:`T`.
        utility_model: Evaluator for Eq. 4 utilities.
        pair_validator: Optional override of the range constraint: a
            predicate on ``(customer, vendor)`` replacing the geometric
            :math:`d(u_i, v_j) \\le r_j` check.  Used when validity is
            given by external data (e.g. the paper's worked example,
            whose distances come from a table rather than coordinates).
            When set, range queries fall back to exhaustive scans, so
            this is intended for small instances.
        spatial_backend: ``"grid"`` (default) or ``"kdtree"`` -- the
            index used for customer-side range queries.  Both are
            exact; the grid is tuned by the max vendor radius, the
            KD-tree is parameter-free (see
            ``benchmarks/bench_spatial_backends.py``).
        use_engine: Allow the columnar compute engine for batch utility
            evaluation when the utility model has a vectorized kernel.
            Disable to force the scalar reference path everywhere
            (parity tests, fault-injection wrappers, baselines).
        churn: Optional shared :class:`~repro.churn.ChurnState`.  Shard
            views pass their parent's state so a vendor deactivated
            anywhere is skipped by every view's candidate scans;
            omitted, the problem gets a private state.
        slot_map: Optional :class:`~repro.scenario.slots.SlotMap` when
            the vendor catalogue is slot-expanded (each base vendor
            split into per-slot vendors; see ``docs/scenarios.md``).
            Purely descriptive bookkeeping -- slot-vendors are ordinary
            vendors to every kernel and solver.
        dtype: Column-width policy for the compute engine -- ``None``
            or ``"float64"`` for the bitwise parity reference,
            ``"float32"`` for half-width columns (see
            ``docs/scale.md``), or a
            :class:`~repro.engine.dtypes.DtypePolicy`.

    Raises:
        InvalidProblemError: On duplicate ids, an empty catalogue, or
            an unknown spatial backend.
    """

    def __init__(
        self,
        customers: Sequence[Customer],
        vendors: Sequence[Vendor],
        ad_types: Sequence[AdType],
        utility_model: UtilityModel,
        pair_validator: Optional[
            Callable[[Customer, Vendor], bool]
        ] = None,
        spatial_backend: str = "grid",
        use_engine: bool = True,
        churn: Optional[ChurnState] = None,
        dtype=None,
        slot_map=None,
    ) -> None:
        if spatial_backend not in ("grid", "kdtree"):
            raise InvalidProblemError(
                f"unknown spatial backend {spatial_backend!r}"
            )
        if not ad_types:
            raise InvalidProblemError("a MUAA problem needs at least one ad type")
        self.customers: List[Customer] = list(customers)
        self.vendors: List[Vendor] = list(vendors)
        self.ad_types: List[AdType] = list(ad_types)
        self.utility_model = utility_model

        self.customers_by_id: Dict[int, Customer] = {
            c.customer_id: c for c in self.customers
        }
        self.vendors_by_id: Dict[int, Vendor] = {
            v.vendor_id: v for v in self.vendors
        }
        self.ad_types_by_id: Dict[int, AdType] = {
            t.type_id: t for t in self.ad_types
        }
        if len(self.customers_by_id) != len(self.customers):
            raise InvalidProblemError("duplicate customer ids")
        if len(self.vendors_by_id) != len(self.vendors):
            raise InvalidProblemError("duplicate vendor ids")
        if len(self.ad_types_by_id) != len(self.ad_types):
            raise InvalidProblemError("duplicate ad type ids")

        # Deferred import: validation.py imports this module for the
        # assignment checker, so the entity gate is bound at call time.
        from repro.core.validation import validate_problem_entities

        validate_problem_entities(self.customers, self.vendors)

        self.capacities: Dict[int, int] = {
            c.customer_id: c.capacity for c in self.customers
        }
        self.budgets: Dict[int, float] = {
            v.vendor_id: v.budget for v in self.vendors
        }
        self.max_radius: float = max((v.radius for v in self.vendors), default=0.0)
        #: Cheapest ad price; a vendor below this cannot afford any ad.
        self.min_cost: float = min(t.cost for t in self.ad_types)

        self._pair_validator = pair_validator
        self._spatial_backend = spatial_backend
        self._customer_index = None
        self._vendor_index: Optional[GridIndex] = None
        self._use_engine = use_engine
        self._engine = None
        self._engine_miss = None
        self._engine_unsupported = False
        #: Churn bookkeeping (deactivated vendors, skip/epoch counters),
        #: shared with shard views of this problem.
        self.churn: ChurnState = churn if churn is not None else ChurnState()
        #: Slot-expansion bookkeeping (``None`` for single-slot problems).
        self.slot_map = slot_map
        # Deferred import keeps repro.core free of a hard engine import
        # at module load; the policy is a tiny frozen descriptor.
        from repro.engine.dtypes import resolve_policy

        #: Column-width policy the compute engine builds with
        #: (``docs/scale.md``); ``float64`` is the parity reference.
        self.dtype_policy = resolve_policy(dtype)

    # ------------------------------------------------------------------
    # Columnar compute engine
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The built :class:`~repro.engine.ComputeEngine`, or ``None``.

        Point lookups consult this without triggering a build, so the
        engine only pays off after a batch entry point (or an explicit
        :meth:`acquire_engine`) has constructed it.
        """
        return self._engine

    def acquire_engine(self):
        """Build (once) and return the compute engine, or ``None``.

        Returns ``None`` when the engine is disabled for this problem
        or the utility model has no vectorized kernel; callers fall
        back to the scalar reference path.
        """
        if (
            self._engine is None
            and self._use_engine
            and not self._engine_unsupported
        ):
            from repro.engine import ComputeEngine
            from repro.engine.engine import MISS
            from repro.store.cache import active_cache

            cache = active_cache()
            engine = cache.fetch(self) if cache is not None else None
            if engine is None:
                engine = ComputeEngine.create(self)
                if engine is not None and cache is not None:
                    cache.store(self, engine)
            if engine is None:
                self._engine_unsupported = True
            else:
                self._engine = engine
                self._engine_miss = MISS
        return self._engine

    def adopt_engine(self, engine) -> None:
        """Install a pre-built compute engine for this problem.

        Shard worker processes reconstruct their engine from columns
        shipped over shared memory
        (:meth:`repro.engine.ComputeEngine.from_prescored`) instead of
        re-scoring locally; this hands the result to the problem so
        every point lookup rides it.  The engine must have been built
        against this problem's entities.
        """
        from repro.engine.engine import MISS

        self._engine = engine
        self._engine_miss = MISS
        self._engine_unsupported = False

    def drop_engine(self) -> None:
        """Discard the built compute engine (if any).

        The next batch entry point rebuilds from scratch -- the cold
        path churn's incremental splices are parity-tested against.
        """
        self._engine = None
        self._engine_miss = None
        self._engine_unsupported = False

    def _engine_base(
        self, customer_id: int, vendor_id: int
    ) -> Optional[float]:
        """The pair base from the built engine, or ``None`` (engine not
        built, or the pair is not a range-valid candidate)."""
        if self._engine is None:
            return None
        return self._engine.pair_base(customer_id, vendor_id)

    # ------------------------------------------------------------------
    # Relocated customers (trajectory scenarios)
    # ------------------------------------------------------------------
    def holds(self, customer: Customer) -> bool:
        """Whether ``customer`` stands where this instance holds it.

        The engine scored its rows at the held locations, so they serve
        only a held entity.  An entity relocated mid-run (a trajectory
        move the run keeps to itself) is not held: scans and Eq. 4
        scoring take the scalar path on the entity.  O(1), no copies.
        """
        held = self.customers_by_id.get(customer.customer_id)
        return held is customer or (
            held is not None and held.location == customer.location
        )

    def _resolve(
        self, customer: Union[int, Customer]
    ) -> Tuple[int, Optional[Customer]]:
        """``(customer_id, relocated entity or None)`` for a customer id
        or an arriving entity (a held entity counts as its id)."""
        if isinstance(customer, Customer):
            if self.holds(customer):
                return customer.customer_id, None
            return customer.customer_id, customer
        return customer, None

    # ------------------------------------------------------------------
    # Spatial queries (constraint 1 of Definition 5)
    # ------------------------------------------------------------------
    @property
    def pair_validator(self):
        """The custom pair validator, or ``None`` for the range check."""
        return self._pair_validator

    @property
    def spatial_backend(self) -> str:
        """The configured spatial index backend (``grid``/``kdtree``)."""
        return self._spatial_backend

    @property
    def customer_index(self):
        """Spatial index over customer locations (built lazily)."""
        if self._customer_index is None:
            if self._spatial_backend == "kdtree":
                from repro.spatial.kdtree import KDTree

                self._customer_index = KDTree(
                    [(c.customer_id, c.location) for c in self.customers]
                )
            else:
                cell = self.max_radius if self.max_radius > 0 else 1.0
                self._customer_index = build_customer_index(
                    self.customers, cell
                )
        return self._customer_index

    def grid_cell_size(self) -> float:
        """Cell size the grid customer index uses (or would use).

        Matches :attr:`customer_index` exactly -- including the
        degenerate-radius floor -- but without building the index, so
        the vectorized edge enumeration can size its grid for a
        million customers without a per-point insertion pass.
        """
        if self._customer_index is not None and hasattr(
            self._customer_index, "cell_size"
        ):
            return self._customer_index.cell_size
        cell = self.max_radius if self.max_radius > 0 else 1.0
        return max(cell, 1e-6)

    @property
    def vendor_index(self) -> GridIndex:
        """Grid index over vendor locations (built lazily)."""
        if self._vendor_index is None:
            self._vendor_index = build_vendor_index(self.vendors)
        return self._vendor_index

    def valid_customer_ids(self, vendor: Vendor) -> List[int]:
        """Customers inside ``vendor``'s advertising radius."""
        if self._pair_validator is not None:
            return [
                c.customer_id for c in self.customers
                if self._pair_validator(c, vendor)
            ]
        return valid_customers(vendor, self.customer_index)

    def valid_vendor_ids(
        self, customer: Customer, assignment: Optional[Assignment] = None
    ) -> List[int]:
        """Vendors whose advertising area contains ``customer``.

        With a built compute engine and a held customer (see
        :meth:`holds`) this reads the precomputed candidate-edge
        adjacency (same set as the spatial query, in vendor catalogue
        order) instead of re-running the range query per call.  Vendors
        deactivated in the shared :class:`~repro.churn.ChurnState`
        (explicit ``deactivate`` events), and those ``assignment`` has
        exhausted in this run, are filtered out; each skip is counted
        in ``churn.skips``.
        """
        if (
            self._engine is not None
            and self._engine.edges_built
            and self.holds(customer)
        ):
            vendors = self._engine.vendors_in_range(customer.customer_id)
            if vendors is not None:
                return self._filter_inactive(list(vendors), assignment)
        if self._pair_validator is not None:
            return self._filter_inactive([
                v.vendor_id for v in self.vendors
                if self._pair_validator(customer, v)
            ], assignment)
        return self._filter_inactive(valid_vendors(
            customer, self.vendors_by_id, self.vendor_index, self.max_radius
        ), assignment)

    def _filter_inactive(
        self, vendor_ids: List[int], assignment: Optional[Assignment]
    ) -> List[int]:
        """Drop deactivated and exhausted vendors from a candidate scan,
        counting the skips (surfaced in ``ResilienceStats`` and obs)."""
        inactive = self.churn.inactive
        exhausted = assignment.exhausted if assignment is not None else ()
        if not inactive and not exhausted:
            return vendor_ids
        active = [
            vid for vid in vendor_ids
            if vid not in inactive and vid not in exhausted
        ]
        skipped = len(vendor_ids) - len(active)
        if skipped:
            self.churn.skips += skipped
        return active

    def is_valid_pair(self, customer: Customer, vendor: Vendor) -> bool:
        """Range check :math:`d(u_i, v_j) \\le r_j` (or the custom
        validator when one was supplied)."""
        if self._pair_validator is not None:
            return self._pair_validator(customer, vendor)
        return distance(customer, vendor) <= vendor.radius

    # ------------------------------------------------------------------
    # Utilities and candidate enumeration
    # ------------------------------------------------------------------
    # Scoring methods take a customer id, or an arriving entity (a
    # relocated one is scored at its own location; see :meth:`holds`).
    def utility(
        self, customer: Union[int, Customer], vendor_id: int, type_id: int
    ) -> float:
        """Utility :math:`\\lambda_{ijk}` by entity ids."""
        customer_id, relocated = self._resolve(customer)
        if relocated is None:
            base = self._engine_base(customer_id, vendor_id)
            if base is not None:
                return base * self.ad_types_by_id[type_id].effectiveness
        return self.utility_model.utility(
            relocated or self.customers_by_id[customer_id],
            self.vendors_by_id[vendor_id],
            self.ad_types_by_id[type_id],
        )

    def efficiency(
        self, customer: Union[int, Customer], vendor_id: int, type_id: int
    ) -> float:
        """Budget efficiency :math:`\\gamma_{ijk}` by entity ids."""
        ad_type = self.ad_types_by_id[type_id]
        return self.utility(customer, vendor_id, type_id) / ad_type.cost

    def make_instance(
        self, customer: Union[int, Customer], vendor_id: int, type_id: int
    ) -> AdInstance:
        """Build an :class:`AdInstance` with its evaluated utility/cost."""
        ad_type = self.ad_types_by_id[type_id]
        return AdInstance(
            customer_id=self._resolve(customer)[0],
            vendor_id=vendor_id,
            type_id=type_id,
            utility=self.utility(customer, vendor_id, type_id),
            cost=ad_type.cost,
        )

    def pair_instances(
        self, customer: Union[int, Customer], vendor_id: int
    ) -> List[AdInstance]:
        """All ad-type choices for one valid pair, utility pre-evaluated."""
        customer_id, relocated = self._resolve(customer)
        if relocated is None:
            base = self._engine_base(customer_id, vendor_id)
            if base is not None:
                return self._engine.pair_instances(
                    customer_id, vendor_id, base
                )
        customer = relocated or self.customers_by_id[customer_id]
        vendor = self.vendors_by_id[vendor_id]
        if self.utility_model.type_sensitive:
            return [
                AdInstance(
                    customer_id=customer_id,
                    vendor_id=vendor_id,
                    type_id=t.type_id,
                    utility=self.utility_model.utility(customer, vendor, t),
                    cost=t.cost,
                )
                for t in self.ad_types
            ]
        base = self.utility_model.pair_base(customer, vendor)
        return [
            AdInstance(
                customer_id=customer_id,
                vendor_id=vendor_id,
                type_id=t.type_id,
                utility=base * t.effectiveness,
                cost=t.cost,
            )
            for t in self.ad_types
        ]

    def best_instance_for_pair(
        self,
        customer: Union[int, Customer],
        vendor_id: int,
        by: str = "efficiency",
        max_cost: Optional[float] = None,
    ) -> Optional[AdInstance]:
        """The "best" ad type for a pair (line 4 of Algorithm 2).

        Args:
            customer: The customer id, or the arriving entity.
            vendor_id: The vendor.
            by: ``"efficiency"`` ranks by :math:`\\gamma_{ijk}` (the
                O-AFA criterion); ``"utility"`` ranks by
                :math:`\\lambda_{ijk}`.
            max_cost: When given, only ad types affordable within this
                remaining budget are considered.

        Returns:
            The best instance, or ``None`` when no type is affordable.
        """
        customer_id, relocated = self._resolve(customer)
        if self._engine is not None and relocated is None:
            hit = self._engine.best_for_pair(
                customer_id, vendor_id, by=by, max_cost=max_cost
            )
            if hit is not self._engine_miss:
                return hit
        choices = self.pair_instances(relocated or customer_id, vendor_id)
        if max_cost is not None:
            choices = [c for c in choices if c.cost <= max_cost + 1e-9]
        if not choices:
            return None
        if by == "efficiency":
            return max(choices, key=lambda inst: inst.efficiency)
        if by == "utility":
            return max(choices, key=lambda inst: inst.utility)
        raise ValueError(f"unknown ranking criterion {by!r}")

    def candidate_instances(self) -> Iterator[AdInstance]:
        """Every valid ad instance :math:`\\langle u_i, v_j, \\tau_k \\rangle`.

        Enumerates range-valid pairs through the vendor-side index, so
        the cost is proportional to the number of valid pairs rather
        than :math:`m \\cdot n`; deactivated vendors
        (``churn.inactive``) offer none.  A batch entry point: builds
        the compute engine when the utility model supports it, scoring
        the whole candidate-edge table in vectorized passes.
        """
        engine = self.acquire_engine()
        if engine is not None:
            bases = engine.pair_bases
            arrays = engine.arrays
            for pos, (customer_id, vendor_id) in enumerate(
                engine.edges.iter_pairs(arrays)
            ):
                yield from engine.pair_instances(
                    customer_id, vendor_id, float(bases[pos])
                )
            return
        for vendor in self._active_vendors():
            for customer_id in self.valid_customer_ids(vendor):
                yield from self.pair_instances(customer_id, vendor.vendor_id)

    def valid_pairs(self) -> Iterator[Tuple[int, int]]:
        """Every range-valid ``(customer_id, vendor_id)`` pair of an
        active (not deactivated) vendor.

        Reuses the engine's edge table when one has already been built
        (the table enumerates pairs in exactly this vendor-major order);
        otherwise runs the range queries directly.
        """
        engine = self._engine
        if engine is not None and engine.edges_built:
            yield from engine.edges.iter_pairs(engine.arrays)
            return
        for vendor in self._active_vendors():
            for customer_id in self.valid_customer_ids(vendor):
                yield (customer_id, vendor.vendor_id)

    def _active_vendors(self) -> List[Vendor]:
        """The catalogue without the deactivated vendors -- the vendors
        whose segments a built engine's table holds."""
        inactive = self.churn.inactive
        return [v for v in self.vendors if v.vendor_id not in inactive]

    def warm_utilities(self) -> int:
        """Evaluate (and cache) the pair base of every valid pair.

        Utility evaluation (Eqs. 4-5) is shared preprocessing for all
        algorithms; warming it up front makes algorithm timings compare
        assignment work rather than who touched a pair first.  A batch
        entry point: with a vectorized utility model this builds the
        compute engine and scores every candidate edge in one pass per
        time bucket.

        Returns:
            The number of valid pairs evaluated.
        """
        engine = self.acquire_engine()
        if engine is not None:
            return engine.warm()
        count = 0
        for customer_id, vendor_id in self.valid_pairs():
            self.utility_model.pair_base(
                self.customers_by_id[customer_id],
                self.vendors_by_id[vendor_id],
            )
            count += 1
        return count

    # ------------------------------------------------------------------
    # Assignments
    # ------------------------------------------------------------------
    def new_assignment(self) -> Assignment:
        """A fresh assignment tracking this problem's capacities/budgets
        and the vendors a run exhausts (below the cheapest ad price)."""
        assignment = Assignment(
            capacities=self.capacities, budgets=self.budgets
        )
        assignment.min_cost = self.min_cost
        return assignment

    # ------------------------------------------------------------------
    # Churn (live vendor joins/leaves; see docs/incremental.md)
    # ------------------------------------------------------------------
    def _delta(self, **parts) -> ShardDelta:
        """A delta against this (un-sharded) problem, shard 0 of the
        identity plan."""
        return ShardDelta(shard=0, epoch=self.churn.epoch, **parts)

    def insert_vendor(
        self, vendor: Vendor, position: Optional[int] = None
    ) -> bool:
        """Add a joining vendor at catalogue ``position`` (default:
        end) through :meth:`apply_delta`.  Idempotent: ``False`` when
        the vendor is already present."""
        if vendor.vendor_id in self.vendors_by_id:
            return False
        self.apply_delta(
            self._delta(join=(VendorJoin(vendor=vendor, position=position),))
        )
        return True

    def retire_vendor(self, vendor_id: int) -> bool:
        """Remove a leaving vendor through :meth:`apply_delta`.
        Idempotent: ``False`` for an unknown vendor."""
        if vendor_id not in self.vendors_by_id:
            return False
        self.apply_delta(self._delta(retire=(vendor_id,)))
        return True

    def deactivate_vendors(self, vendor_ids: Sequence[int]) -> int:
        """Mark vendors inactive (a ``deactivate`` churn event) through
        :meth:`apply_delta`.  Returns the number newly deactivated."""
        before = self.churn.deactivations
        self.apply_delta(self._delta(deactivate=tuple(vendor_ids)))
        return self.churn.deactivations - before

    def apply_delta(
        self, delta: ShardDelta, bases: Optional[Dict[int, tuple]] = None
    ) -> None:
        """Apply one :class:`~repro.churn.ShardDelta` to this instance
        (the problem itself, a plan's shard view, or a cluster worker's
        copy of one) -- the one way the catalogue changes.

        Retires leave the catalogue; their ``budgets`` entries stay,
        since live assignments still account spend against them, and so
        does a deactivation in the shared ``churn.inactive``: a vendor
        leaving one shard view for another (cell migration) stays
        dormant, and only a ``retire`` event forgets it.  Joins admit
        their new customers and enter at their catalogue positions
        (``None`` appends).  ``budgets`` and ``capacities`` are shared
        by reference with live assignments, so joins and admits are
        servable at once.  Vendors in ``deactivate`` join
        ``churn.inactive``, so candidate scans skip them.

        Vendor joins and retires leave the customer index alone (its
        cell size is frozen; range queries stay exact for any radius).
        A built grid customer index takes the admits in place (a cell
        lists points in insertion order, so this equals a rebuild); a
        KD-tree index is dropped for lazy rebuild.  So a cold engine
        rebuild on this same problem object reproduces the splice bit
        for bit.  A built compute engine then makes
        one splice for the whole delta
        (:meth:`~repro.engine.ComputeEngine.apply_delta`), with the
        carried pair bases of ``bases`` (vendor id -> the source
        engine's :meth:`~repro.engine.ComputeEngine.segment_bases`).
        Idempotent, like every delta primitive.
        """
        gone = {vid for vid in delta.retire if vid in self.vendors_by_id}
        for vid in gone:
            del self.vendors_by_id[vid]
        if gone:
            self.vendors[:] = [
                v for v in self.vendors if v.vendor_id not in gone
            ]
        admits = {
            c.customer_id: c
            for join in delta.join
            for c in join.admit
            if c.customer_id not in self.customers_by_id
        }
        for customer in admits.values():
            self.customers.append(customer)
            self.customers_by_id[customer.customer_id] = customer
            self.capacities[customer.customer_id] = customer.capacity
            if isinstance(self._customer_index, GridIndex):
                self._customer_index.insert(
                    customer.customer_id, customer.location
                )
        if admits and not isinstance(self._customer_index, GridIndex):
            self._customer_index = None
        joined = False
        for join in delta.join:
            vendor = join.vendor
            if vendor.vendor_id in self.vendors_by_id:
                continue
            position = join.position
            self.vendors.insert(
                len(self.vendors) if position is None else position, vendor
            )
            self.vendors_by_id[vendor.vendor_id] = vendor
            self.budgets[vendor.vendor_id] = vendor.budget
            self.max_radius = max(self.max_radius, vendor.radius)
            joined = True
        if gone or joined:
            self._vendor_index = None
        fresh = [
            vid for vid in dict.fromkeys(delta.deactivate)
            if vid in self.vendors_by_id and vid not in self.churn.inactive
        ]
        self.churn.inactive.update(fresh)
        self.churn.deactivations += len(fresh)
        if self._engine is not None:
            self._engine.apply_delta(delta, bases)

    def apply_churn(self, event: ChurnEvent) -> int:
        """Apply one churn event directly to this (un-sharded) problem
        through :meth:`apply_delta` and bump the epoch.  ``migrate``
        events are shard-level -- route those through
        ``ShardPlan.apply_churn``."""
        if event.kind == KIND_INSERT:
            self.insert_vendor(event.vendor)
        elif event.kind == KIND_RETIRE:
            self.retire_vendor(event.vendor_id)
            self.churn.inactive.discard(event.vendor_id)
        elif event.kind == KIND_DEACTIVATE:
            self.deactivate_vendors([event.vendor_id])
        else:
            raise ValueError(
                f"{event.kind!r} events require a ShardPlan to apply"
            )
        self.churn.epoch += 1
        return self.churn.epoch

    def theta(self) -> float:
        """The bound factor :math:`\\theta = \\min_i a_i / n_i^c` of
        Theorems III.1/IV.1, where :math:`n_i^c` is the larger of the
        number of valid vendors of :math:`u_i` and the capacity
        :math:`a_i`."""
        theta = 1.0
        for customer in self.customers:
            n_valid = len(self.valid_vendor_ids(customer))
            n_c = max(n_valid, customer.capacity)
            if n_c > 0 and customer.capacity > 0:
                theta = min(theta, customer.capacity / n_c)
        return theta
