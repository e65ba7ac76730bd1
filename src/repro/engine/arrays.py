"""Columnar (structure-of-arrays) view of a MUAA problem instance.

:class:`ProblemArrays` lays the entity attributes of a
:class:`~repro.core.problem.MUAAProblem` out as NumPy columns --
customer/vendor coordinates, capacities, budgets, probabilities, arrival
times, interest/tag matrices, and the ad-type catalogue -- so the Eq. 4/5
kernels in :mod:`repro.engine.kernels` can score whole candidate-edge
tables in a handful of array passes instead of one Python call per pair.

The arrays are a *view* in spirit: values are copied out of the frozen
entity objects once, never mutated, and indexed positionally.  The
``customer_index`` / ``vendor_index`` maps translate entity ids to row
positions (ids are arbitrary ints; rows are dense).

Churn deltas (``docs/incremental.md``) never mutate columns in place --
the ``with_*`` methods return a new :class:`ProblemArrays` with freshly
allocated rows spliced in or out, so engines whose columns are
read-only shared-memory views stay valid after a delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.entities import Customer, Vendor
from repro.engine.dtypes import FLOAT64, DtypePolicy, resolve_policy


def _stack_vectors(
    vectors: Sequence[Optional[np.ndarray]], dtype=float
) -> Optional[np.ndarray]:
    """Stack per-entity tag vectors into a matrix, or ``None`` when any
    entity lacks a vector or the lengths are inconsistent."""
    if not vectors or any(v is None for v in vectors):
        return None
    length = vectors[0].shape
    if any(v.shape != length for v in vectors):
        return None
    return np.stack([np.asarray(v, dtype=dtype) for v in vectors])


@dataclass(frozen=True)
class ProblemArrays:
    """Structure-of-arrays columns of one MUAA instance.

    Attributes:
        customer_ids: ``(m,)`` entity ids, in problem customer order.
        customer_xy: ``(m, 2)`` customer locations.
        capacity: ``(m,)`` ad limits :math:`a_i`.
        view_probability: ``(m,)`` view probabilities :math:`p_i`.
        arrival_time: ``(m,)`` arrival hours :math:`\\varphi`.
        interests: ``(m, T)`` interest matrix :math:`\\psi_i`, or
            ``None`` when any customer lacks a vector (tabular models).
        vendor_ids: ``(n,)`` entity ids, in problem vendor order.
        vendor_xy: ``(n, 2)`` vendor locations.
        radius: ``(n,)`` advertising radii :math:`r_j`.
        budget: ``(n,)`` budgets :math:`B_j`.
        tags: ``(n, T)`` vendor tag matrix :math:`\\psi_j`, or ``None``.
        type_ids: ``(K,)`` ad-type ids, in catalogue order.
        type_cost: ``(K,)`` prices :math:`c_k`.
        type_effectiveness: ``(K,)`` effectivenesses :math:`\\beta_k`.
        customer_index: customer id -> row position.
        vendor_index: vendor id -> row position.
    """

    customer_ids: np.ndarray
    customer_xy: np.ndarray
    capacity: np.ndarray
    view_probability: np.ndarray
    arrival_time: np.ndarray
    interests: Optional[np.ndarray]
    vendor_ids: np.ndarray
    vendor_xy: np.ndarray
    radius: np.ndarray
    budget: np.ndarray
    tags: Optional[np.ndarray]
    type_ids: np.ndarray
    type_cost: np.ndarray
    type_effectiveness: np.ndarray
    customer_index: Dict[int, int] = field(repr=False)
    vendor_index: Dict[int, int] = field(repr=False)
    policy: DtypePolicy = FLOAT64

    @property
    def n_customers(self) -> int:
        return len(self.customer_ids)

    @property
    def n_vendors(self) -> int:
        return len(self.vendor_ids)

    @property
    def n_types(self) -> int:
        return len(self.type_ids)

    @property
    def float_dtype(self) -> np.dtype:
        """Dtype of the floating columns under the active policy."""
        return self.policy.float_dtype

    @property
    def index_dtype(self) -> np.dtype:
        """Dtype of edge-table index columns under the active policy."""
        return self.policy.index_dtype

    @classmethod
    def from_problem(cls, problem) -> "ProblemArrays":
        """Extract the columns of a :class:`MUAAProblem`."""
        return cls.from_entities(
            problem.customers,
            problem.vendors,
            problem.ad_types,
            policy=getattr(problem, "dtype_policy", None),
        )

    @classmethod
    def from_entities(
        cls,
        customers: Sequence[Customer],
        vendors: Sequence[Vendor],
        ad_types: Sequence,
        policy: Optional[DtypePolicy] = None,
    ) -> "ProblemArrays":
        """Build columns straight from entity sequences."""
        policy = resolve_policy(policy)
        fdt = policy.float_dtype
        idt = policy.id_dtype
        customer_ids = np.array(
            [c.customer_id for c in customers], dtype=idt
        )
        vendor_ids = np.array([v.vendor_id for v in vendors], dtype=idt)
        return cls(
            customer_ids=customer_ids,
            customer_xy=np.array(
                [c.location for c in customers], dtype=fdt
            ).reshape(len(customers), 2),
            capacity=np.array([c.capacity for c in customers], dtype=idt),
            view_probability=np.array(
                [c.view_probability for c in customers], dtype=fdt
            ),
            arrival_time=np.array(
                [c.arrival_time for c in customers], dtype=fdt
            ),
            interests=_stack_vectors(
                [c.interests for c in customers], dtype=fdt
            ),
            vendor_ids=vendor_ids,
            vendor_xy=np.array(
                [v.location for v in vendors], dtype=fdt
            ).reshape(len(vendors), 2),
            radius=np.array([v.radius for v in vendors], dtype=fdt),
            budget=np.array([v.budget for v in vendors], dtype=fdt),
            tags=_stack_vectors([v.tags for v in vendors], dtype=fdt),
            type_ids=np.array([t.type_id for t in ad_types], dtype=idt),
            type_cost=np.array([t.cost for t in ad_types], dtype=fdt),
            type_effectiveness=np.array(
                [t.effectiveness for t in ad_types], dtype=fdt
            ),
            customer_index={
                int(cid): row for row, cid in enumerate(customer_ids)
            },
            vendor_index={int(vid): row for row, vid in enumerate(vendor_ids)},
            policy=policy,
        )

    # ------------------------------------------------------------------
    # Delta splices (fresh arrays; originals are never written to)
    # ------------------------------------------------------------------
    def with_vendors(self, vendors: Sequence[Vendor]) -> "ProblemArrays":
        """Columns with the vendor rows laid out as ``vendors`` (a new
        catalogue order after joins and retires): the rows of vendors
        already present are gathered, joining vendors' rows are built
        from their entities in the existing columns' dtypes.

        Raises:
            ValueError: When the tag matrix exists but a joining vendor
                has no compatible tag vector (the vectorized kernels
                would silently lose their inputs otherwise).
        """
        index = self.vendor_index
        fresh = [v for v in vendors if v.vendor_id not in index]
        if not fresh and [v.vendor_id for v in vendors] == (
            self.vendor_ids.tolist()
        ):
            return self
        gather, next_row = [], self.n_vendors
        for vendor in vendors:
            row = index.get(vendor.vendor_id)
            if row is None:
                row, next_row = next_row, next_row + 1
            gather.append(row)

        def laid_out(column: np.ndarray, values) -> np.ndarray:
            values = np.asarray(values, dtype=column.dtype).reshape(
                (len(fresh),) + column.shape[1:]
            )
            return np.concatenate([column, values])[gather]

        tags = self.tags
        if tags is not None:
            for vendor in fresh:
                if vendor.tags is None or np.shape(vendor.tags) != (
                    tags.shape[1:]
                ):
                    raise ValueError(
                        f"vendor {vendor.vendor_id}: tag vector "
                        "incompatible with the existing "
                        f"({tags.shape[1]},) tag matrix"
                    )
            tags = laid_out(tags, [v.tags for v in fresh])
        vendor_ids = laid_out(self.vendor_ids, [v.vendor_id for v in fresh])
        return replace(
            self,
            vendor_ids=vendor_ids,
            vendor_xy=laid_out(self.vendor_xy, [v.location for v in fresh]),
            radius=laid_out(self.radius, [v.radius for v in fresh]),
            budget=laid_out(self.budget, [v.budget for v in fresh]),
            tags=tags,
            vendor_index={
                int(vid): pos for pos, vid in enumerate(vendor_ids.tolist())
            },
        )

    def with_customers_appended(
        self, customers: Sequence[Customer]
    ) -> "ProblemArrays":
        """Columns with new customer rows appended (shard-view admits).

        Appending (rather than positional insertion) keeps existing edge
        ``customer_idx`` references valid; per-customer queries do not
        depend on customer row order.
        """
        if not customers:
            return self
        interests = self.interests
        if interests is not None:
            vectors = [
                None if c.interests is None
                else np.asarray(c.interests, dtype=interests.dtype)
                for c in customers
            ]
            if any(
                v is None or v.shape != interests.shape[1:] for v in vectors
            ):
                raise ValueError(
                    "admitted customers lack interest vectors compatible "
                    f"with the existing ({interests.shape[1]},) matrix"
                )
            interests = np.concatenate([interests, np.stack(vectors)])
        customer_index = dict(self.customer_index)
        base = len(self.customer_ids)
        for offset, customer in enumerate(customers):
            customer_index[int(customer.customer_id)] = base + offset
        return replace(
            self,
            customer_ids=np.concatenate([
                self.customer_ids,
                np.array(
                    [c.customer_id for c in customers],
                    dtype=self.customer_ids.dtype,
                ),
            ]),
            customer_xy=np.concatenate([
                self.customer_xy,
                np.array(
                    [c.location for c in customers],
                    dtype=self.customer_xy.dtype,
                ).reshape(len(customers), 2),
            ]),
            capacity=np.concatenate([
                self.capacity,
                np.array(
                    [c.capacity for c in customers],
                    dtype=self.capacity.dtype,
                ),
            ]),
            view_probability=np.concatenate([
                self.view_probability,
                np.array(
                    [c.view_probability for c in customers],
                    dtype=self.view_probability.dtype,
                ),
            ]),
            arrival_time=np.concatenate([
                self.arrival_time,
                np.array(
                    [c.arrival_time for c in customers],
                    dtype=self.arrival_time.dtype,
                ),
            ]),
            interests=interests,
            customer_index=customer_index,
        )
