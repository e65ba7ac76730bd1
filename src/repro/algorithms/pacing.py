"""Budget-pacing online baseline (industry-standard competitor).

Production ad systems commonly *pace* budgets: a vendor's spend at any
point of the day should not exceed the elapsed fraction of the day
times its budget, so the budget lasts until closing time.  Pacing is
utility-oblivious about thresholds (any affordable ad within the pace
is accepted) which makes it the natural industrial counterpoint to
O-AFA's efficiency-based threshold: same goal (don't burn the budget
early), different mechanism.
"""

from __future__ import annotations

from typing import List

from repro.algorithms.base import OnlineAlgorithm
from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import Customer
from repro.core.problem import MUAAProblem

_EPS = 1e-9


class BudgetPacingOnline(OnlineAlgorithm):
    """Accept the best ad per vendor while spend stays on pace.

    The pace at hour :math:`h` allows a vendor to have spent at most
    ``budget * ((h - day_start) / day_length)`` (plus one ad of slack so
    the very first arrival can be served).

    Args:
        day_start: Hour the pacing clock starts.
        day_length: Hours over which each budget should last.
    """

    name = "PACING"

    def __init__(self, day_start: float = 0.0, day_length: float = 24.0) -> None:
        if day_length <= 0:
            raise ValueError(f"day_length must be positive, got {day_length}")
        self._day_start = day_start
        self._day_length = day_length

    def _allowed_spend(self, budget: float, hour: float) -> float:
        elapsed = (hour - self._day_start) % 24.0
        fraction = min(1.0, max(0.0, elapsed / self._day_length))
        return budget * fraction

    def process_customer(
        self,
        problem: MUAAProblem,
        customer: Customer,
        assignment: Assignment,
    ) -> List[AdInstance]:
        picked: List[AdInstance] = []
        for vendor_id in problem.valid_vendor_ids(customer, assignment):
            budget = problem.budgets[vendor_id]
            spent = assignment.spend_for_vendor(vendor_id)
            remaining = budget - spent
            if remaining < problem.min_cost - _EPS:
                continue
            allowed = self._allowed_spend(budget, customer.arrival_time)
            # One-ad slack: a perfectly paced vendor could otherwise
            # never serve the day's first arrivals.
            pace_room = allowed + problem.min_cost - spent
            if pace_room < problem.min_cost - _EPS:
                continue
            best = problem.best_instance_for_pair(
                customer,
                vendor_id,
                by="efficiency",
                max_cost=min(remaining, pace_room),
            )
            if best is not None and best.utility > 0:
                picked.append(best)
        if len(picked) > customer.capacity:
            picked.sort(key=lambda inst: -inst.efficiency)
            picked = picked[: customer.capacity]
        return picked
