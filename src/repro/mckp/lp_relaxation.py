"""Greedy LP-relaxation solver for the MCKP (Ibaraki [14] / Sinha-Zoltners [19]).

After LP-dominance filtering, each class is a chain of items with
decreasing incremental efficiencies.  The LP relaxation of MCKP is then
solved *exactly* by a single greedy sweep over all increments in
decreasing efficiency order, stopping at the budget; at most one
increment is taken fractionally.  Dropping the fractional increment
yields an integral solution whose profit is at least
``LP_opt - max_item_profit`` -- combined with the best-single-item
fallback this is the classical 1/2-approximation, and on the paper's
workloads (many small-cost items against a large budget) it is within
:math:`(1 - \\varepsilon)` of optimal because the fractional loss is one
item out of many.  An exact :math:`(1-\\varepsilon)` FPTAS is available
in :mod:`repro.mckp.dynamic_programming` for callers that need the
guarantee at any instance size.

The solver works column-wise (:func:`greedy_lp`): one row per class,
one column per item slot.  Dominance, the LP hull and the increments
are computed for every class at once, looping only over the (few)
columns; the budget sweep walks the sorted increments in Python and
stops after the handful the budget affords.  Every comparison and
subtraction is the one :func:`~repro.mckp.dominance.remove_lp_dominated`
and the classical item-by-item sweep make, in the same order, so the
chosen items, their order and the LP value are the same floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mckp.items import MCKPColumns, MCKPInstance, MCKPSolution

_EPS = 1e-12


def greedy_lp(
    profit: np.ndarray,
    cost: np.ndarray,
    budget: float,
    class_ids: Sequence[Hashable],
) -> Tuple[List[Tuple[int, int]], float, Optional[int], float]:
    """Solve the LP relaxation of a column-wise MCKP and round it.

    Args:
        profit: ``(n, m)`` float64 profits, one row per class; ``NaN``
            marks an empty item slot.
        cost: ``(m,)`` or ``(n, m)`` positive costs (ignored at empty
            slots).
        budget: Knapsack capacity.
        class_ids: ``n`` class ids; increments of equal efficiency are
            taken in ``str(class_id)`` order, then chain level.

    Returns:
        ``(chosen, lp_value, fractional_row, fraction)``: the
        ``(row, column)`` of each selected item in selection order (the
        order the sweep first reached each class), the exact LP
        optimum, and the row and fraction of the increment taken
        fractionally (``None`` and 0 when the LP optimum is integral).
    """
    budget = float(budget)
    n, m = profit.shape
    chosen: List[Tuple[int, int]] = []
    if n == 0 or m == 0:
        return chosen, 0.0, None, 0.0
    cost = np.broadcast_to(cost, (n, m))
    rows = np.arange(n)

    # Plain dominance per class, in (cost, -profit) order (stable), as a
    # scan over the sorted columns: an item survives when it beats the
    # last survivor's profit by more than the tolerance.
    order = np.lexsort((-profit, cost), axis=1)
    sorted_profit = profit[rows[:, None], order]
    sorted_cost = cost[rows[:, None], order]
    best = np.full(n, -1.0)
    on_chain = np.empty((n, m), dtype=bool)
    for j in range(m):
        survives = sorted_profit[:, j] > best + _EPS
        on_chain[:, j] = survives
        best = np.where(survives, sorted_profit[:, j], best)
    on_chain &= sorted_profit > _EPS

    # Upper convex hull with the origin (classes are optional): one
    # stack per class, every class pushed one column at a time.  A class
    # that does not push writes into its free slot above the stack,
    # which is never read.
    hull_cost = np.zeros((n, m + 1))
    hull_profit = np.zeros((n, m + 1))
    hull_col = np.zeros((n, m + 1), dtype=np.intp)
    top = np.ones(n, dtype=np.intp)
    for j in range(m):
        push = on_chain[:, j]
        c, p = sorted_cost[:, j], sorted_profit[:, j]
        popping = push & (top >= 2)
        while popping.any():
            c1, p1 = hull_cost[rows, top - 2], hull_profit[rows, top - 2]
            c2, p2 = hull_cost[rows, top - 1], hull_profit[rows, top - 1]
            # hull[-1] is LP-dominated unless the slope into it beats
            # the slope from hull[-2] straight to the new point.
            popping &= (p2 - p1) * (c - c1) <= (p - p1) * (c2 - c1) + _EPS
            top -= popping
            popping &= top >= 2
        hull_cost[rows, top] = c
        hull_profit[rows, top] = p
        hull_col[rows, top] = order[:, j]
        top += push

    # Increments up each chain (the origin precedes level 0), swept in
    # decreasing efficiency order until the budget runs out.
    remaining = budget
    lp_value = 0.0
    fraction = 0.0
    fractional_row: Optional[int] = None
    taken = {}
    inc_row, inc_level = np.nonzero(np.arange(m) < (top - 1)[:, None])
    if len(inc_row):
        inc_cost = (
            hull_cost[inc_row, inc_level + 1] - hull_cost[inc_row, inc_level]
        )
        inc_profit = (
            hull_profit[inc_row, inc_level + 1]
            - hull_profit[inc_row, inc_level]
        )
        neg_efficiency = -(inc_profit / inc_cost)
        sweep = np.argsort(neg_efficiency)
        ordered = neg_efficiency[sweep]
        if (ordered[1:] == ordered[:-1]).any():
            # Equal efficiencies go in str(class_id) order, then level.
            names = [str(class_id) for class_id in class_ids]
            position = {name: i for i, name in enumerate(sorted(set(names)))}
            rank = np.array([position[name] for name in names])
            sweep = np.lexsort((inc_level, rank[inc_row], neg_efficiency))
        for d_cost, d_profit, row, level in _rows_of(
            sweep, inc_cost, inc_profit, inc_row, inc_level
        ):
            if remaining <= _EPS:
                break
            if d_cost <= remaining + _EPS:
                taken[row] = level
                lp_value += d_profit
                remaining -= d_cost
            else:
                fraction = remaining / d_cost
                lp_value += fraction * d_profit
                fractional_row = row
                remaining = 0.0
                break
    chosen = [
        (row, int(hull_col[row, level + 1])) for row, level in taken.items()
    ]

    # Classical safeguard: the better of (greedy integral) and (best
    # single affordable item) is a 1/2-approximation even adversarially.
    single = ~np.isnan(profit) & (cost <= budget + _EPS)
    if single.any():
        # First occurrence of the largest profit, in class-major order.
        flat = int(np.argmax(np.where(single, profit, -np.inf)))
        row, col = divmod(flat, m)
        total = 0.0  # summed in selection order, as MCKPSolution.add does
        for r, c in chosen:
            total += float(profit[r, c])
        if float(profit[row, col]) > total:
            chosen = [(row, col)]

    return chosen, lp_value, fractional_row, fraction


def _rows_of(sweep: np.ndarray, *columns: np.ndarray) -> Iterator[tuple]:
    """Rows of ``columns`` in ``sweep`` order as Python scalars, converted
    in doubling chunks (the sweep usually stops within the first)."""
    lo, size = 0, 16
    while lo < len(sweep):
        picked = sweep[lo:lo + size]
        yield from zip(*(column[picked].tolist() for column in columns))
        lo += size
        size *= 2


@dataclass
class LPRelaxationResult:
    """Outcome of the greedy LP-relaxation sweep.

    Attributes:
        lp_value: Exact optimum of the LP relaxation (an upper bound on
            the integral optimum).
        integral: The greedy integral solution (fractional part dropped,
            best-single-item fallback applied).
        fractional_class: Class of the increment taken fractionally, or
            ``None`` when the LP optimum is integral.
        fraction: Fraction of the breaking increment taken (0 when
            integral).
    """

    lp_value: float
    integral: MCKPSolution
    fractional_class: Optional[Hashable]
    fraction: float


def solve_lp_relaxation(
    instance: Union[MCKPInstance, MCKPColumns],
) -> LPRelaxationResult:
    """Solve the MCKP LP relaxation exactly and round greedily.

    Returns:
        The LP value, the integral (rounded) solution with its
        ``upper_bound`` field set to the LP value, and the fractional
        remainder information.
    """
    if isinstance(instance, MCKPColumns):
        class_ids = instance.class_ids
        chosen, lp_value, fractional_row, fraction = greedy_lp(
            instance.profit, instance.cost, instance.budget, class_ids
        )
        item_at = instance.item
    else:
        class_ids = list(instance.classes)
        groups = list(instance.classes.values())
        width = max((len(items) for items in groups), default=0)
        profit = np.full((len(groups), width), np.nan)
        cost = np.ones((len(groups), width))
        for row, items in enumerate(groups):
            profit[row, : len(items)] = [item.profit for item in items]
            cost[row, : len(items)] = [item.cost for item in items]
        chosen, lp_value, fractional_row, fraction = greedy_lp(
            profit, cost, instance.budget, class_ids
        )
        item_at = lambda row, col: groups[row][col]  # noqa: E731

    integral = MCKPSolution(upper_bound=lp_value)
    for row, col in chosen:
        integral.add(item_at(row, col))
    return LPRelaxationResult(
        lp_value=lp_value,
        integral=integral,
        fractional_class=(
            None if fractional_row is None else class_ids[fractional_row]
        ),
        fraction=fraction,
    )


def solve_greedy(
    instance: Union[MCKPInstance, MCKPColumns],
) -> MCKPSolution:
    """Convenience wrapper returning just the integral solution."""
    return solve_lp_relaxation(instance).integral
