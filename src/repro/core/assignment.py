"""Ad assignment instances and constraint-tracking assignment sets.

An :class:`AdInstance` is the triple :math:`\\langle u_i, v_j, \\tau_k
\\rangle` of Definition 4 together with its evaluated utility and cost.
An :class:`Assignment` is the instance set :math:`\\mathbb{I}` of the
MUAA problem; it maintains running per-customer counts, per-vendor spend
and the set of assigned customer-vendor pairs, so feasibility of adding
one more instance is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.exceptions import ConstraintViolationError

#: Outcomes of :meth:`Assignment.commit`.
COMMITTED, DUPLICATE, REJECTED = "committed", "duplicate", "rejected"


@dataclass(frozen=True)
class AdInstance:
    """One assigned ad: vendor ``vendor_id`` sends customer ``customer_id``
    an ad of type ``type_id``.

    Attributes:
        customer_id: The receiving customer :math:`u_i`.
        vendor_id: The advertising vendor :math:`v_j`.
        type_id: The ad type :math:`\\tau_k`.
        utility: Evaluated utility :math:`\\lambda_{ijk}` (Eq. 4).
        cost: Ad price :math:`c_k` charged to the vendor's budget.
    """

    customer_id: int
    vendor_id: int
    type_id: int
    utility: float
    cost: float

    @property
    def efficiency(self) -> float:
        """Budget efficiency :math:`\\gamma_{ijk} = \\lambda_{ijk} / c_k`."""
        return self.utility / self.cost

    @property
    def pair(self) -> Tuple[int, int]:
        """The customer-vendor pair key."""
        return (self.customer_id, self.vendor_id)


class Assignment:
    """A mutable ad assignment instance set with O(1) feasibility checks.

    The class tracks three of the four MUAA constraints incrementally
    (capacity, budget, one-ad-per-pair); the range constraint depends on
    geometry and is enforced by the caller or by
    :func:`repro.core.validation.validate_assignment`.

    Args:
        capacities: Per-customer ad limits :math:`a_i`, keyed by id.
        budgets: Per-vendor budgets :math:`B_j`, keyed by id.

    Attributes:
        min_cost: Cheapest ad price, or ``None``.  When set (a run's
            assignment from :meth:`~repro.core.problem.MUAAProblem.
            new_assignment`), :meth:`commit` records every vendor left
            unable to afford it in ``exhausted``.
        exhausted: Vendors whose remaining budget fell below
            ``min_cost`` in this run; candidate scans skip them.
    """

    def __init__(
        self,
        capacities: Optional[Dict[int, int]] = None,
        budgets: Optional[Dict[int, float]] = None,
    ) -> None:
        self._instances: Dict[Tuple[int, int], AdInstance] = {}
        self._capacities = capacities
        self._budgets = budgets
        self._ads_per_customer: Dict[int, int] = {}
        self._spend_per_vendor: Dict[int, float] = {}
        self._total_utility = 0.0
        self.min_cost: Optional[float] = None
        self.exhausted: Set[int] = set()

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[AdInstance]:
        return iter(self._instances.values())

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return pair in self._instances

    @property
    def total_utility(self) -> float:
        """The overall utility :math:`\\sum \\lambda_{ijk}` of the set."""
        return self._total_utility

    def instances(self) -> List[AdInstance]:
        """All instances as a list (insertion order)."""
        return list(self._instances.values())

    def instance_for_pair(self, customer_id: int, vendor_id: int) -> Optional[AdInstance]:
        """The instance assigned to the pair, or ``None``."""
        return self._instances.get((customer_id, vendor_id))

    def ads_for_customer(self, customer_id: int) -> int:
        """Number of ads currently assigned to a customer."""
        return self._ads_per_customer.get(customer_id, 0)

    def spend_for_vendor(self, vendor_id: int) -> float:
        """Budget already consumed by a vendor's assigned ads."""
        return self._spend_per_vendor.get(vendor_id, 0.0)

    def remaining_budget(self, vendor_id: int) -> float:
        """Vendor budget still available (requires budgets at construction)."""
        if self._budgets is None:
            raise ConstraintViolationError(
                "remaining_budget requires budgets to be supplied"
            )
        return self._budgets[vendor_id] - self.spend_for_vendor(vendor_id)

    def customer_instances(self, customer_id: int) -> List[AdInstance]:
        """All instances addressed to one customer."""
        return [
            inst for inst in self._instances.values()
            if inst.customer_id == customer_id
        ]

    def vendor_instances(self, vendor_id: int) -> List[AdInstance]:
        """All instances funded by one vendor."""
        return [
            inst for inst in self._instances.values()
            if inst.vendor_id == vendor_id
        ]

    # ------------------------------------------------------------------
    # Feasibility and mutation
    # ------------------------------------------------------------------
    def can_add(self, instance: AdInstance) -> bool:
        """Whether adding ``instance`` keeps capacity/budget/pair feasible."""
        if instance.pair in self._instances:
            return False
        if self._capacities is not None:
            cap = self._capacities.get(instance.customer_id, 0)
            if self.ads_for_customer(instance.customer_id) + 1 > cap:
                return False
        if self._budgets is not None:
            budget = self._budgets.get(instance.vendor_id, 0.0)
            spent = self.spend_for_vendor(instance.vendor_id)
            # Tolerance guards float accumulation over many additions.
            if spent + instance.cost > budget + 1e-9:
                return False
        return True

    def add(self, instance: AdInstance, strict: bool = True) -> bool:
        """Add an instance.

        Args:
            instance: The ad instance to add.
            strict: When true, raise :class:`ConstraintViolationError` if
                the instance is infeasible; when false, return ``False``
                instead.

        Returns:
            ``True`` when the instance was added.
        """
        if not self.can_add(instance):
            if strict:
                raise ConstraintViolationError(
                    f"cannot add {instance}: capacity, budget, or pair "
                    "constraint violated"
                )
            return False
        self._instances[instance.pair] = instance
        self._ads_per_customer[instance.customer_id] = (
            self.ads_for_customer(instance.customer_id) + 1
        )
        self._spend_per_vendor[instance.vendor_id] = (
            self.spend_for_vendor(instance.vendor_id) + instance.cost
        )
        self._total_utility += instance.utility
        return True

    def commit(self, instance: AdInstance) -> str:
        """Idempotently commit one decided instance (every serving path
        commits here): ``DUPLICATE`` if the pair already holds this very
        instance (a re-delivery, not charged twice), ``REJECTED`` if it
        holds another or capacity/budget forbid it, else ``COMMITTED``.
        A committed vendor left unable to afford ``min_cost`` joins
        ``exhausted``; it could win no later ad, so skipping it in
        later scans changes no decision.
        """
        existing = self._instances.get(instance.pair)
        if existing is not None:
            return DUPLICATE if existing == instance else REJECTED
        if not self.add(instance, strict=False):
            return REJECTED
        vendor_id = instance.vendor_id
        if (
            self.min_cost is not None
            and self.remaining_budget(vendor_id) + 1e-9 < self.min_cost
        ):
            self.exhausted.add(vendor_id)
        return COMMITTED

    def remove(self, customer_id: int, vendor_id: int) -> AdInstance:
        """Remove and return the instance of a pair.

        Raises:
            KeyError: If the pair has no assigned instance.
        """
        instance = self._instances.pop((customer_id, vendor_id))
        self._ads_per_customer[customer_id] -= 1
        self._spend_per_vendor[vendor_id] -= instance.cost
        self._total_utility -= instance.utility
        return instance

    # ------------------------------------------------------------------
    # Set algebra used by RECON and the analysis
    # ------------------------------------------------------------------
    def merge(self, other: "Assignment", strict: bool = False) -> int:
        """Add every instance of ``other`` that remains feasible here.

        Returns:
            The number of instances actually added.
        """
        added = 0
        for instance in other:
            if self.add(instance, strict=strict):
                added += 1
        return added

    def violated_customers(self, capacities: Dict[int, int]) -> Set[int]:
        """Customers holding more ads than their capacity allows.

        Used by RECON after the union of per-vendor solutions, where the
        capacity constraint is deliberately not yet enforced.
        """
        return {
            cid for cid, count in self._ads_per_customer.items()
            if count > capacities.get(cid, 0)
        }


def union_unchecked(parts: List[Assignment]) -> Assignment:
    """Union per-vendor assignments *without* enforcing customer capacity.

    This constructs the intermediate state of Algorithm 1 (RECON) after
    all single-vendor problems are solved: budgets and pair-uniqueness
    hold by construction, but customers may be over capacity.
    """
    merged = Assignment()
    for part in parts:
        for instance in part:
            merged.add(instance, strict=True)
    return merged
