"""Data model for the multiple-choice knapsack problem (MCKP).

The single-vendor problem of Section III-A is an MCKP: each valid
customer of the vendor forms a *class*; the class's *items* are the ad
types, with cost :math:`c_k` and profit :math:`\\lambda_{ijk}`; at most
one item per class may be chosen, subject to the vendor budget.
Classes are *optional* -- choosing nothing from a class is allowed --
matching the :math:`\\sum_k x_{iok} \\le 1` constraint of Eq. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import InvalidProblemError


@dataclass(frozen=True)
class MCKPItem:
    """One selectable item of one class.

    Attributes:
        class_id: The class (customer) the item belongs to.
        item_id: Identity within the class (ad type id).
        cost: Knapsack weight :math:`c_k > 0`.
        profit: Objective contribution :math:`\\lambda_{ijk} \\ge 0`.
    """

    class_id: Hashable
    item_id: Hashable
    cost: float
    profit: float

    def __post_init__(self) -> None:
        if self.cost <= 0:
            raise InvalidProblemError(
                f"MCKP item {(self.class_id, self.item_id)}: cost must be "
                f"positive, got {self.cost}"
            )
        if self.profit < 0:
            raise InvalidProblemError(
                f"MCKP item {(self.class_id, self.item_id)}: profit must be "
                f"non-negative, got {self.profit}"
            )

    @property
    def efficiency(self) -> float:
        """Profit per unit of cost."""
        return self.profit / self.cost


@dataclass(frozen=True)
class MCKPInstance:
    """An MCKP instance: optional classes of items plus a budget.

    Attributes:
        classes: class_id -> items of that class.
        budget: Knapsack capacity :math:`B`.
    """

    classes: Mapping[Hashable, Tuple[MCKPItem, ...]]
    budget: float

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise InvalidProblemError(
                f"MCKP budget must be >= 0, got {self.budget}"
            )
        for class_id, items in self.classes.items():
            for item in items:
                if item.class_id != class_id:
                    raise InvalidProblemError(
                        f"item {item} filed under wrong class {class_id!r}"
                    )

    @classmethod
    def from_items(
        cls, items: Iterable[MCKPItem], budget: float
    ) -> "MCKPInstance":
        """Group a flat item list into classes."""
        classes: Dict[Hashable, List[MCKPItem]] = {}
        for item in items:
            classes.setdefault(item.class_id, []).append(item)
        return cls(
            classes={k: tuple(v) for k, v in classes.items()}, budget=budget
        )

    @property
    def n_classes(self) -> int:
        """Number of classes."""
        return len(self.classes)

    @property
    def n_items(self) -> int:
        """Total number of items across classes."""
        return sum(len(items) for items in self.classes.values())

    def all_items(self) -> List[MCKPItem]:
        """Every item, flattened."""
        return [item for items in self.classes.values() for item in items]


@dataclass(frozen=True, eq=False)
class MCKPColumns:
    """An MCKP instance stored column-wise over one shared item catalogue.

    Row ``r`` is class ``class_ids[r]``; column ``k`` is catalogue item
    ``item_ids[k]`` at cost ``cost[k]``.  This is the single-vendor
    problem's native layout (classes = customers, items = ad types), so
    the greedy LP-relaxation solves it without per-item objects.

    Attributes:
        profit: ``(n, K)`` float64 profits; ``NaN`` where the class
            offers no such item.
        cost: ``(K,)`` float64 item costs.
        budget: Knapsack capacity.
        class_ids: ``n`` class ids, in class order.
        item_ids: ``K`` item ids, in catalogue order.
    """

    profit: np.ndarray
    cost: np.ndarray
    budget: float
    class_ids: List[Hashable]
    item_ids: List[Hashable]

    def item(self, row: int, col: int) -> MCKPItem:
        """The item in class row ``row``, catalogue column ``col``."""
        return MCKPItem(
            class_id=self.class_ids[row],
            item_id=self.item_ids[col],
            cost=float(self.cost[col]),
            profit=float(self.profit[row, col]),
        )

    def to_instance(self) -> MCKPInstance:
        """The same problem as per-item objects (classes in row order,
        items in catalogue order), for the item-based backends."""
        rows, cols = np.nonzero(~np.isnan(self.profit))
        return MCKPInstance.from_items(
            [self.item(r, c) for r, c in zip(rows.tolist(), cols.tolist())],
            budget=self.budget,
        )


#: A single-vendor problem offers an ad type only when the vendor's
#: budget affords it alone (within this tolerance).
_AFFORD_EPS = 1e-9


def single_vendor_mckp(
    utilities: np.ndarray,
    customer_ids: Sequence[int],
    type_cost: np.ndarray,
    type_ids: Sequence[int],
    budget: float,
) -> Optional[MCKPColumns]:
    """One vendor's single-vendor problem (Eq. 8) as a column-wise MCKP.

    Args:
        utilities: ``(n, K)`` utilities of the vendor's candidate
            customers (any float dtype; widened to float64).
        customer_ids: The ``n`` candidate customer ids, in row order.
        type_cost: ``(K,)`` ad-type costs, in catalogue order.
        type_ids: The ``K`` ad-type ids, in catalogue order.
        budget: The vendor's budget.

    Returns:
        The MCKP with one class per customer offering every ad type of
        positive utility that the budget affords, or ``None`` when no
        customer is offered anything.
    """
    profit = np.array(utilities, dtype=np.float64).reshape(
        len(customer_ids), len(type_ids)
    )
    cost = np.asarray(type_cost, dtype=np.float64)
    offered = (profit > 0) & (cost <= budget + _AFFORD_EPS)
    if not offered.any():
        return None
    profit[~offered] = np.nan
    return MCKPColumns(
        profit=profit,
        cost=cost,
        budget=budget,
        class_ids=np.asarray(customer_ids).tolist(),
        item_ids=np.asarray(type_ids).tolist(),
    )


@dataclass
class MCKPSolution:
    """An (integral) MCKP solution.

    Attributes:
        chosen: class_id -> the selected item (absent classes chose
            nothing).
        total_profit: Sum of selected profits.
        total_cost: Sum of selected costs.
        upper_bound: An upper bound on the optimal profit when the
            solver provides one (the LP relaxation value), else ``None``.
    """

    chosen: Dict[Hashable, MCKPItem] = field(default_factory=dict)
    total_profit: float = 0.0
    total_cost: float = 0.0
    upper_bound: float = None  # type: ignore[assignment]

    def add(self, item: MCKPItem) -> None:
        """Select ``item`` for its class.

        Raises:
            InvalidProblemError: If the class already has a selection.
        """
        if item.class_id in self.chosen:
            raise InvalidProblemError(
                f"class {item.class_id!r} already has a selected item"
            )
        self.chosen[item.class_id] = item
        self.total_profit += item.profit
        self.total_cost += item.cost

    def is_feasible(self, instance: MCKPInstance, tolerance: float = 1e-9) -> bool:
        """Whether the solution respects the instance budget."""
        return self.total_cost <= instance.budget + tolerance
