"""The columnar compute engine shared by every solver.

:class:`ComputeEngine` ties the pieces together: it owns the
:class:`~repro.engine.arrays.ProblemArrays` columns of one problem, the
:class:`~repro.engine.edges.CandidateEdges` table (built on demand from
the spatial index), and the vectorized Eq. 4/5 pair bases of every edge
(computed once, in one pass per time bucket).  On top of those it
offers the point lookups the online algorithms need -- pair base, best
ad type for a pair, per-pair instance lists -- at dictionary-lookup
cost, plus whole-table utility/efficiency matrices for the offline
solvers.

The scalar ``UtilityModel`` API remains the reference implementation;
the engine exists only for models with a vectorized kernel (see
:func:`repro.engine.kernels.pair_bases`) and reproduces their values to
float rounding.  Use :meth:`ComputeEngine.create` -- it returns ``None``
for unsupported models so callers can fall back to the scalar path.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.churn import ShardDelta
from repro.core.assignment import AdInstance
from repro.engine.arrays import ProblemArrays
from repro.engine.edges import (
    CandidateEdges,
    build_candidate_edges,
    vendor_segment,
)
from repro.engine.kernels import pair_bases as _kernel_pair_bases
from repro.obs.recorder import recorder
from repro.utility.model import TabularUtilityModel, TaxonomyUtilityModel

#: Cost-affordability tolerance, identical to the scalar
#: ``MUAAProblem.best_instance_for_pair`` filter.
_COST_EPS = 1e-9

#: Sentinel for "this pair is not a candidate edge" -- distinct from
#: ``None``, which means "no ad type is affordable".
MISS = object()


def supports_vectorization(model) -> bool:
    """Whether a utility model has a vectorized engine kernel.

    True exactly for the stock :class:`TaxonomyUtilityModel` and
    :class:`TabularUtilityModel` (not subclasses, not decorated models,
    not type-sensitive models) -- anything else keeps the scalar
    reference path.
    """
    return not model.type_sensitive and type(model) in (
        TaxonomyUtilityModel,
        TabularUtilityModel,
    )


class ComputeEngine:
    """Vectorized candidate-edge pipeline of one MUAA problem.

    Build via :meth:`create`; all heavy state (edge table, pair bases,
    lookup maps) is constructed lazily and cached, so an engine that is
    never used batch-wise costs only the columnar entity copy.
    """

    def __init__(self, problem, arrays: ProblemArrays) -> None:
        self._problem = problem
        self._arrays = arrays
        self._edges: Optional[CandidateEdges] = None
        self._bases: Optional[np.ndarray] = None
        # Two-level point index: (customer_id, vendor_id) -> offset
        # *within the vendor's segment*, plus vendor id -> absolute
        # segment start.  Deltas only touch the affected vendors' keys
        # plus the O(n) start map -- never the O(E) pair map.
        self._edge_pos: Optional[Dict[Tuple[int, int], int]] = None
        self._seg_start: Optional[Dict[int, int]] = None
        #: Deactivated vendors (rows kept, segments spliced out) ->
        #: their in-range customer ids, which the adjacency keeps
        #: listing so candidate scans count the skip.
        self._cleared: Dict[int, List[int]] = {}
        self._utilities: Optional[np.ndarray] = None
        # Point-lookup accelerators (plain Python containers; indexing
        # numpy scalars per online decision is measurably slower).
        self._util_rows: Optional[List[List[float]]] = None
        self._adjacency: Optional[Dict[int, List[int]]] = None
        # Affordability is a threshold on the K type costs, so the
        # affordable set is one of at most K+1 cost-sorted prefixes
        # ("levels"); level L covers the L cheapest types.
        by_cost = sorted((c, k) for k, c in enumerate(arrays.type_cost.tolist()))
        self._sorted_costs: List[float] = [c for c, _ in by_cost]
        self._level_cols: List[Tuple[int, ...]] = [
            tuple(sorted(k for _, k in by_cost[:level]))
            for level in range(len(by_cost) + 1)
        ]
        self._level_tables: Dict[str, List[Optional[List[int]]]] = {
            "efficiency": [None] * (len(by_cost) + 1),
            "utility": [None] * (len(by_cost) + 1),
        }
        #: :class:`~repro.engine.pruning.PruneCertificate` of the last
        #: :meth:`prune` call (or the one loaded from an artifact).
        self.certificate = None

    @classmethod
    def create(cls, problem) -> Optional["ComputeEngine"]:
        """An engine for ``problem``, or ``None`` when its utility model
        has no vectorized kernel."""
        if not supports_vectorization(problem.utility_model):
            return None
        arrays = ProblemArrays.from_problem(problem)
        if type(problem.utility_model) is TaxonomyUtilityModel and (
            arrays.interests is None or arrays.tags is None
        ):
            return None
        return cls(problem, arrays)

    @classmethod
    def from_prescored(
        cls,
        problem,
        edges: CandidateEdges,
        bases: np.ndarray,
    ) -> Optional["ComputeEngine"]:
        """An engine whose edge table and pair bases were computed
        elsewhere (typically shipped into a worker process over shared
        memory; the arrays may be read-only views into that block).

        The caller asserts that ``edges``/``bases`` were built for
        exactly this problem's entities; everything downstream (edge
        index, utility rows, level tables) derives from them locally.
        Returns ``None`` when the utility model has no vectorized
        kernel, mirroring :meth:`create`.
        """
        engine = cls.create(problem)
        if engine is None:
            return None
        engine.install(edges, bases)
        return engine

    def install(
        self, edges: CandidateEdges, bases: Optional[np.ndarray] = None
    ) -> None:
        """Take a whole candidate table -- a cold build, or columns
        shipped or loaded from elsewhere -- and splice the problem's
        deactivated vendors out of it through :meth:`apply_delta`, the
        same splice a ``deactivate`` delta makes on a built table."""
        self._edges = edges
        self._bases = None if bases is None else np.asarray(bases)
        churn = self._problem.churn
        dormant = tuple(
            vid for vid in self._arrays.vendor_ids.tolist()
            if vid in churn.inactive
        )
        if dormant:
            self.apply_delta(
                ShardDelta(shard=0, epoch=churn.epoch, deactivate=dormant)
            )

    # ------------------------------------------------------------------
    # Columnar state
    # ------------------------------------------------------------------
    @property
    def arrays(self) -> ProblemArrays:
        """The structure-of-arrays entity columns."""
        return self._arrays

    @property
    def dtype_policy(self):
        """The :class:`~repro.engine.dtypes.DtypePolicy` the columns
        were built with."""
        return self._arrays.policy

    @property
    def problem(self):
        """The problem this engine was built for."""
        return self._problem

    @property
    def edges_built(self) -> bool:
        """Whether the edge table has been materialised yet."""
        return self._edges is not None

    @property
    def edges(self) -> CandidateEdges:
        """The candidate-edge table (built on first access)."""
        if self._edges is None:
            rec = recorder()
            with rec.span("engine.build_edges"):
                self.install(
                    build_candidate_edges(self._problem, self._arrays)
                )
            rec.gauge("engine.candidate_edges", len(self._edges))
        return self._edges

    @property
    def num_edges(self) -> int:
        """Number of range-valid candidate pairs."""
        return len(self.edges)

    @property
    def pair_bases(self) -> np.ndarray:
        """``(E,)`` Eq. 4 pair bases, aligned with :attr:`edges`."""
        if self._bases is None:
            edges = self.edges  # build outside the scoring span
            with recorder().span("engine.pair_bases", n_edges=len(edges)):
                bases = _kernel_pair_bases(
                    self._problem.utility_model, self._arrays, edges
                )
            if bases is None:  # pragma: no cover - guarded by create()
                raise RuntimeError(
                    "engine created for a model without a vectorized kernel"
                )
            self._bases = bases
        return self._bases

    def _point_index(
        self,
    ) -> Tuple[Dict[Tuple[int, int], int], Dict[int, int]]:
        """Build (once) the two-level point index.

        Returns the ``(customer_id, vendor_id) -> segment offset`` map
        and the ``vendor_id -> absolute segment start`` map.  Absolute
        edge positions are ``seg_start[vid] + offset``, so splicing one
        vendor's segment shifts only the O(n) start map, not the O(E)
        pair map.
        """
        if self._edge_pos is None:
            edges = self.edges
            cids = self._arrays.customer_ids[edges.customer_idx].tolist()
            vendor_ids = self._arrays.vendor_ids.tolist()
            starts = edges.vendor_starts
            pos_map: Dict[Tuple[int, int], int] = {}
            seg_start: Dict[int, int] = {}
            for row, vid in enumerate(vendor_ids):
                lo = int(starts[row])
                hi = int(starts[row + 1])
                seg_start[vid] = lo
                for off in range(hi - lo):
                    pos_map[(cids[lo + off], vid)] = off
            self._edge_pos = pos_map
            self._seg_start = seg_start
        return self._edge_pos, self._seg_start

    @property
    def edge_index(self) -> Dict[Tuple[int, int], int]:
        """``(customer_id, vendor_id)`` -> absolute edge position.

        Derived on demand from the two-level point index the hot path
        uses (per-segment offsets plus per-vendor starts); churn deltas
        keep that index O(segment) per splice instead of rebuilding an
        O(E) flat map.
        """
        edge_pos, seg_start = self._point_index()
        return {
            (cid, vid): seg_start[vid] + off
            for (cid, vid), off in edge_pos.items()
        }

    def utilities(self) -> np.ndarray:
        """``(E, K)`` utilities :math:`\\lambda_{ijk}` of every candidate
        instance (edge-major, ad types in catalogue order)."""
        if self._utilities is None:
            self._utilities = (
                self.pair_bases[:, None]
                * self._arrays.type_effectiveness[None, :]
            )
        return self._utilities

    def efficiencies(self) -> np.ndarray:
        """``(E, K)`` budget efficiencies :math:`\\gamma_{ijk}`."""
        return self.utilities() / self._arrays.type_cost[None, :]

    def warm(self) -> int:
        """Materialise every batch structure and point-lookup table.

        Called by ``MUAAProblem.warm_utilities`` so the one-time builds
        (edge table, pair bases, edge index, utility rows, best-type
        tables) happen during warm-up rather than inside an online
        decision loop.  Returns the number of candidate edges.
        """
        self._point_index()
        if self._util_rows is None:
            self._util_rows = self.utilities().tolist()
        full = len(self._sorted_costs)
        for by in ("efficiency", "utility"):
            self._level_table(by, full)
        self._vendor_adjacency()
        return self.num_edges

    def _vendor_adjacency(self) -> Dict[int, List[int]]:
        """``customer_id`` -> vendor ids in range of it.

        Derived from the edge table (so a custom pair validator is
        honoured) plus the deactivated vendors' kept in-range customers
        (so a scan counts their skip whenever the adjacency was built),
        with vendors in catalogue (row) order -- the vendor-major table
        visits rows in ascending order, which churn splices preserve.
        The scalar grid query returns the same *set* in grid-cell
        order; order is immaterial to the online solvers, which score
        every listed vendor independently before ranking.
        """
        if self._adjacency is None:
            edges = self.edges
            cids = self._arrays.customer_ids[edges.customer_idx].tolist()
            vids = self._arrays.vendor_ids[edges.vendor_idx].tolist()
            adjacency: Dict[int, List[int]] = {
                cid: [] for cid in self._arrays.customer_ids.tolist()
            }
            for cid, vid in zip(cids, vids):
                adjacency[cid].append(vid)
            self._adjacency = adjacency
            for vid, in_range in self._cleared.items():
                self._list_vendor(vid, in_range)
        return self._adjacency

    def _list_vendor(self, vendor_id: int, customer_ids: List[int]) -> None:
        """Add a vendor to its in-range customers' adjacency lists at
        its catalogue (row) position; scans from the right so catalogue
        appends stay O(1)."""
        vendor_index = self._arrays.vendor_index
        row = vendor_index[vendor_id]
        for cid in customer_ids:
            listed = self._adjacency.setdefault(cid, [])
            i = len(listed)
            while i > 0 and vendor_index[listed[i - 1]] > row:
                i -= 1
            listed.insert(i, vendor_id)

    def vendors_in_range(self, customer_id: int) -> Optional[List[int]]:
        """Vendor ids of one customer's candidate edges, or ``None``
        for a customer the problem does not know (callers fall back to
        the scalar spatial query)."""
        return self._vendor_adjacency().get(customer_id)

    def vendor_edge_slice(self, vendor_id: int) -> slice:
        """The contiguous edge range of one vendor (vendor-major table)."""
        return self.edges.vendor_slice(self._arrays.vendor_index[vendor_id])

    # ------------------------------------------------------------------
    # Point lookups (the online algorithms' hot path)
    # ------------------------------------------------------------------
    def pair_base(self, customer_id: int, vendor_id: int) -> Optional[float]:
        """The cached pair base, or ``None`` when the pair is not a
        range-valid candidate (callers fall back to the scalar model)."""
        edge_pos = self._edge_pos
        if edge_pos is None:
            edge_pos, _ = self._point_index()
        off = edge_pos.get((customer_id, vendor_id))
        if off is None:
            return None
        return float(self.pair_bases[self._seg_start[vendor_id] + off])

    def pair_instances(
        self, customer_id: int, vendor_id: int, base: float
    ) -> List[AdInstance]:
        """All ad-type choices of one pair from its pair base."""
        return [
            AdInstance(
                customer_id=customer_id,
                vendor_id=vendor_id,
                type_id=ad_type.type_id,
                utility=base * ad_type.effectiveness,
                cost=ad_type.cost,
            )
            for ad_type in self._problem.ad_types
        ]

    def _level_table(self, by: str, level: int) -> List[int]:
        """Per-edge best ad-type index over affordability level ``level``
        (the ``level`` cheapest types), computed once per level.

        ``np.argmax`` returns the *first* maximum, which is exactly the
        scalar loop's strict-``>`` tie-breaking over catalogue order
        (each level's columns are kept in ascending catalogue order).
        Efficiencies are divided out for the level's columns only
        (elementwise, so bitwise the :meth:`efficiencies` columns).
        """
        cached = self._level_tables[by][level]
        if cached is None:
            cached = self._best_types(self.utilities(), by, level)
            self._level_tables[by][level] = cached
        return cached

    def _best_types(
        self, utilities: np.ndarray, by: str, level: int
    ) -> List[int]:
        """Best ad-type index per row of ``utilities`` over level
        ``level`` -- the one argmax path of every level-table entry,
        whether built whole or spliced in per segment."""
        cols = list(self._level_cols[level])
        matrix = utilities
        if len(cols) != matrix.shape[1]:
            matrix = matrix[:, cols]
        if by == "efficiency":
            matrix = matrix / self._arrays.type_cost[cols]
        return np.asarray(cols)[np.argmax(matrix, axis=1)].tolist()

    def best_for_pair(
        self,
        customer_id: int,
        vendor_id: int,
        by: str = "efficiency",
        max_cost: Optional[float] = None,
    ):
        """Point lookup for the online hot path.

        Returns :data:`MISS` when the pair is not a candidate edge
        (callers fall back to the scalar model), ``None`` when no ad
        type is affordable, and the best :class:`AdInstance` otherwise.
        The answer is always a precomputed table read: the affordable
        set depends only on where ``max_cost`` falls among the K type
        costs, so a bisection picks the level and the level's argmax
        table gives the type.
        """
        edge_pos = self._edge_pos
        if edge_pos is None:
            edge_pos, _ = self._point_index()
        off = edge_pos.get((customer_id, vendor_id))
        if off is None:
            return MISS
        pos = self._seg_start[vendor_id] + off
        if max_cost is None:
            level = len(self._sorted_costs)
        else:
            level = bisect_right(self._sorted_costs, max_cost + _COST_EPS)
            if level == 0:
                # Scalar path returns None on an empty affordable set
                # *before* validating ``by`` -- preserve that order.
                return None
        tables = self._level_tables.get(by)
        if tables is None:
            raise ValueError(f"unknown ranking criterion {by!r}")
        table = tables[level]
        if table is None:
            table = self._level_table(by, level)
        k = table[pos]
        rows = self._util_rows
        if rows is None:
            rows = self._util_rows = self.utilities().tolist()
        ad_type = self._problem.ad_types[k]
        return AdInstance(
            customer_id=customer_id,
            vendor_id=vendor_id,
            type_id=ad_type.type_id,
            utility=rows[pos][k],
            cost=ad_type.cost,
        )

    def edge_position(self, customer_id: int, vendor_id: int) -> Optional[int]:
        """Absolute edge-table position of one pair, or ``None`` when
        the pair is not a candidate edge.  The batch entry point for
        callers that gather many pairs at once (:meth:`batch_best`)."""
        edge_pos = self._edge_pos
        if edge_pos is None:
            edge_pos, _ = self._point_index()
        off = edge_pos.get((customer_id, vendor_id))
        if off is None:
            return None
        return self._seg_start[vendor_id] + off

    def batch_best(
        self,
        positions: Sequence[int],
        remaining: Sequence[float],
        by: str = "efficiency",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`best_for_pair` over many edges at once.

        One gather over the precomputed utility/efficiency matrices
        answers a whole micro-batch of lookups in a single kernel call
        (the serving front-end's per-batch scoring path).

        Args:
            positions: Absolute edge positions (:meth:`edge_position`).
            remaining: Per-position remaining vendor budget.
            by: Ranking criterion, as in :meth:`best_for_pair`.

        Returns:
            ``(best_type, utility, affordable)`` arrays aligned with
            ``positions``: the best ad-type *index* (catalogue order),
            its utility, and whether any type was affordable at all
            (``best_type``/``utility`` are meaningless where
            ``affordable`` is false).  Selection is over the same
            matrices as the scalar level tables -- affordability is the
            same :data:`_COST_EPS`-tolerant cost threshold and
            ``argmax`` breaks ties toward the lowest catalogue index --
            so each row reproduces :meth:`best_for_pair` exactly.  Only
            the gathered rows are divided by the type costs, which is
            elementwise and so bitwise the full efficiency matrix's rows.
        """
        if by not in ("efficiency", "utility"):
            raise ValueError(f"unknown ranking criterion {by!r}")
        pos = np.asarray(positions, dtype=np.int64)
        rem = np.asarray(remaining, dtype=np.float64)
        type_cost = self._arrays.type_cost[None, :]
        affordable = type_cost <= rem[:, None] + _COST_EPS
        gathered = self.utilities()[pos]
        scores = gathered / type_cost if by == "efficiency" else gathered
        masked = np.where(affordable, scores, -np.inf)
        best = np.argmax(masked, axis=1)
        utility = gathered[np.arange(len(pos)), best]
        return best, utility, affordable.any(axis=1)

    # ------------------------------------------------------------------
    # Churn deltas (one splice per delta; see docs/incremental.md)
    # ------------------------------------------------------------------
    @property
    def cleared_vendors(self) -> Set[int]:
        """Deactivated vendors: rows kept, segments spliced out."""
        return set(self._cleared)

    def segment_bases(
        self, vendor_id: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(customer_ids, pair_bases)`` of one vendor's live segment,
        for another engine to carry (a cell migration between shard
        views), or ``None`` when there is nothing to carry: bases not
        scored, vendor unknown, or its segment cleared."""
        row = self._arrays.vendor_index.get(vendor_id)
        if row is None or self._bases is None or vendor_id in self._cleared:
            return None
        seg = self._edges.vendor_slice(row)
        return (
            self._arrays.customer_ids[self._edges.customer_idx[seg]],
            self._bases[seg],
        )

    def _gather_bases(
        self, seg_rows: np.ndarray, carried: Tuple[np.ndarray, np.ndarray]
    ) -> Optional[np.ndarray]:
        """Carried pair bases reordered into this engine's segment
        order, or ``None`` unless they cover exactly the segment's
        customers (a pruned source keeps fewer).  A pair base depends
        only on the pair, so the gather is bitwise a re-score."""
        customer_ids, bases = carried
        wanted = self._arrays.customer_ids[seg_rows]
        if len(wanted) != len(customer_ids):
            return None
        order = np.argsort(customer_ids)
        found = np.searchsorted(customer_ids[order], wanted)
        at = order[np.minimum(found, len(order) - 1)]
        if not np.array_equal(customer_ids[at], wanted):
            return None
        return bases[at]

    def _join_bases(
        self,
        joins: List[Tuple[int, np.ndarray, np.ndarray, List[int]]],
        carried: Dict[int, Tuple[np.ndarray, np.ndarray]],
    ) -> List[np.ndarray]:
        """Pair bases of the joining segments: the carried ones where
        they cover the segment, the rest scored in one kernel call.

        The kernels reduce per edge with fixed-order ``einsum``
        accumulations, so scoring segments on their own is bitwise equal
        to the same rows of a cold full-table pass.
        """
        arrays = self._arrays
        out: List[Optional[np.ndarray]] = []
        for vid, rows, _, _ in joins:
            got = None
            if vid in carried:
                got = self._gather_bases(rows, carried[vid])
            if got is None and not len(rows):
                got = np.zeros(0, dtype=self._bases.dtype)
            out.append(got)
        todo = [j for j, got in enumerate(out) if got is None]
        if todo:
            lengths = [len(joins[j][1]) for j in todo]
            vendor_rows = [arrays.vendor_index[joins[j][0]] for j in todo]
            bounds = np.cumsum([0] + lengths)
            scored = _kernel_pair_bases(
                self._problem.utility_model,
                arrays,
                CandidateEdges(
                    customer_idx=np.concatenate(
                        [joins[j][1] for j in todo]
                    ),
                    vendor_idx=np.repeat(
                        np.asarray(vendor_rows, dtype=arrays.index_dtype),
                        lengths,
                    ),
                    distance=np.concatenate([joins[j][2] for j in todo]),
                    vendor_starts=bounds.astype(np.int64),
                ),
            )
            if scored is None:  # pragma: no cover - guarded by create()
                raise RuntimeError(
                    "engine created for a model without a vectorized kernel"
                )
            for j, lo, hi in zip(todo, bounds[:-1], bounds[1:]):
                out[j] = scored[lo:hi]
        return out

    def apply_delta(
        self,
        delta: ShardDelta,
        bases: Optional[Dict[int, Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> None:
        """Splice one :class:`~repro.churn.ShardDelta` into the engine.

        The problem applies the delta to its catalogue first
        (``MUAAProblem.apply_delta``); the engine follows in one pass.
        Vendor columns are laid out in the problem's new catalogue
        order and the delta's admitted customers appended.  With a
        built table, each per-edge structure is rewritten once from the
        kept runs of segments and the joining vendors' new segments:
        the edge table, pair bases and utilities are concatenated anew,
        the utility rows and built level tables are spliced in place
        (so a catalogue-end join or retire moves nothing), and the
        point index and adjacency change only at the affected vendors'
        keys.

        A joining segment is enumerated by the scalar range query (the
        per-vendor order of a cold build).  It takes its carried pair
        bases from ``bases`` (vendor id -> another engine's
        :meth:`segment_bases`) when they cover it; the other joining
        segments are scored (:meth:`_join_bases`).  A vendor listed in
        ``delta.deactivate``, joining or not, keeps its row but loses
        its segment; its in-range customer ids are kept for the
        adjacency.  A cold build applies ``churn.inactive`` through this
        same splice (:meth:`install`), so a spliced engine is bitwise a
        cold rebuild.  Idempotent, like every delta primitive.
        """
        old = self._arrays
        admits = {
            c.customer_id: c
            for join in delta.join
            for c in join.admit
            if c.customer_id not in old.customer_index
        }
        arrays = old.with_customers_appended(list(admits.values()))
        arrays = arrays.with_vendors(self._problem.vendors)
        self._arrays = arrays
        edges = self._edges
        if edges is None:
            return
        with recorder().span(
            "engine.splice", shard=delta.shard, epoch=delta.epoch
        ):
            starts = edges.vendor_starts.tolist()
            deactivate = set(delta.deactivate)
            # The splice as edits of the old per-edge columns, in table
            # order: ``(lo, hi, j)`` puts joining segment ``j`` (``None``:
            # nothing) in place of old positions ``lo:hi``.
            edits: List[Tuple[int, int, Optional[int]]] = []
            counts: List[int] = []
            joins: List[Tuple[int, np.ndarray, np.ndarray, List[int]]] = []
            listed: List[Tuple[int, List[int]]] = []  # adjacency gains
            delisted: List[Tuple[int, List[int]]] = []  # adjacency losses
            unindexed: List[Tuple[int, List[int]]] = []  # point-index losses
            at = 0  # old position after the last kept segment

            def customers_of(lo: int, hi: int) -> List[int]:
                return old.customer_ids[edges.customer_idx[lo:hi]].tolist()

            for vid in arrays.vendor_ids.tolist():
                old_row = old.vendor_index.get(vid)
                if old_row is None:
                    rows, dist = vendor_segment(
                        self._problem, arrays, self._problem.vendors_by_id[vid]
                    )
                    in_range = arrays.customer_ids[rows].tolist()
                    listed.append((vid, in_range))
                    if vid in deactivate:
                        self._cleared[vid] = in_range
                        counts.append(0)
                    else:
                        edits.append((at, at, len(joins)))
                        joins.append((vid, rows, dist, in_range))
                        counts.append(len(rows))
                    continue
                lo, at = starts[old_row], starts[old_row + 1]
                if vid in deactivate and vid not in self._cleared:
                    self._cleared[vid] = customers_of(lo, at)
                    unindexed.append((vid, self._cleared[vid]))
                    edits.append((lo, at, None))
                    counts.append(0)
                else:
                    counts.append(at - lo)
            for vid, old_row in old.vendor_index.items():
                if vid in arrays.vendor_index:
                    continue
                in_range = self._cleared.pop(vid, None)
                if in_range is None:
                    lo, hi = starts[old_row], starts[old_row + 1]
                    in_range = customers_of(lo, hi)
                    unindexed.append((vid, in_range))
                    edits.append((lo, hi, None))
                delisted.append((vid, in_range))
            # Stable: insertions at one position keep catalogue order and
            # precede a removal starting there.
            edits.sort(key=lambda edit: edit[:2])

            def stitch(column: np.ndarray, fresh: List) -> np.ndarray:
                pieces, kept_from = [], 0
                for lo, hi, j in edits:
                    pieces.append(column[kept_from:lo])
                    if j is not None:
                        pieces.append(fresh[j])
                    kept_from = hi
                pieces.append(column[kept_from:])
                return np.concatenate(pieces)

            def stitch_in_place(column: List, fresh: List) -> None:
                for lo, hi, j in reversed(edits):
                    column[lo:hi] = () if j is None else fresh[j]

            vendor_starts = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=vendor_starts[1:])
            self._edges = CandidateEdges(
                customer_idx=stitch(
                    edges.customer_idx, [join[1] for join in joins]
                ),
                vendor_idx=np.repeat(
                    np.arange(len(counts), dtype=edges.vendor_idx.dtype),
                    counts,
                ),
                distance=stitch(edges.distance, [join[2] for join in joins]),
                vendor_starts=vendor_starts,
            )
            if self._bases is not None:
                fresh = self._join_bases(joins, bases or {})
                self._bases = stitch(self._bases, fresh)
                # All joining rows at once, cut back per segment.
                bounds = np.cumsum([0] + [len(seg) for seg in fresh])
                utilities = (
                    np.concatenate([self._bases[:0]] + fresh)[:, None]
                    * arrays.type_effectiveness[None, :]
                )

                def per_join(values) -> List:
                    return [
                        values[lo:hi] for lo, hi in zip(bounds, bounds[1:])
                    ]

                if self._utilities is not None:
                    self._utilities = stitch(
                        self._utilities, per_join(utilities)
                    )
                if self._util_rows is not None:
                    stitch_in_place(
                        self._util_rows, per_join(utilities.tolist())
                    )
                for by, tables in self._level_tables.items():
                    for level, table in enumerate(tables):
                        if table is not None:
                            stitch_in_place(table, per_join(
                                self._best_types(utilities, by, level)
                            ))
            if self._edge_pos is not None:
                for vid, in_range in unindexed:
                    for cid in in_range:
                        self._edge_pos.pop((cid, vid), None)
                for vid, _, _, in_range in joins:
                    for off, cid in enumerate(in_range):
                        self._edge_pos[(cid, vid)] = off
                self._seg_start = dict(
                    zip(arrays.vendor_ids.tolist(), vendor_starts[:-1].tolist())
                )
            if self._adjacency is not None:
                for cid in admits:
                    self._adjacency.setdefault(cid, [])
                for vid, in_range in delisted:
                    for cid in in_range:
                        vendors = self._adjacency.get(cid)
                        if vendors is not None and vid in vendors:
                            vendors.remove(vid)
                for vid, in_range in listed:
                    self._list_vendor(vid, in_range)

    # ------------------------------------------------------------------
    # Certified pruning and artifact persistence (docs/scale.md)
    # ------------------------------------------------------------------
    def prune(self, level: str = "exact"):
        """Drop candidate edges that provably never enter a solution.

        Delegates to :func:`repro.engine.pruning.prune_engine`; the
        returned :class:`~repro.engine.pruning.PruneCertificate` is
        also stored on :attr:`certificate` and travels with saved
        artifacts.  ``level="exact"`` is utility-neutral for every
        solver; ``level="lp"`` additionally drops edges below the
        vendor LP marginal (bound-preserving, heuristic trajectories
        may shift).
        """
        from repro.engine.pruning import prune_engine

        return prune_engine(self, level=level)

    def save(self, path, extra: Optional[dict] = None):
        """Persist the built edge table and pair bases to ``path`` in
        the mmap-able column format of :mod:`repro.store`."""
        from repro.store import save_engine

        return save_engine(self, path, extra=extra)

    @classmethod
    def load(cls, path, problem, mmap: bool = True) -> "ComputeEngine":
        """Attach a saved engine artifact to ``problem``.

        Columns are memory-mapped read-only by default, so the load is
        O(pages touched) instead of O(build); see
        :func:`repro.store.load_engine` for the validation performed.
        """
        from repro.store import load_engine

        return load_engine(path, problem, mmap=mmap)
