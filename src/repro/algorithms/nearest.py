"""The NEAREST baseline of Section V-A.

When a customer appears, greedily take the ads of the *nearest* valid
vendors first, ignoring utility: for each vendor in increasing distance
order, send the cheapest affordable ad until the customer's capacity or
the vendors' budgets run out.
"""

from __future__ import annotations

from typing import List

from repro.algorithms.base import OnlineAlgorithm
from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import Customer, distance
from repro.core.problem import MUAAProblem


class NearestVendor(OnlineAlgorithm):
    """Distance-first online heuristic (utility-oblivious)."""

    name = "NEAREST"

    def process_customer(
        self,
        problem: MUAAProblem,
        customer: Customer,
        assignment: Assignment,
    ) -> List[AdInstance]:
        vendor_ids = problem.valid_vendor_ids(customer, assignment)
        vendor_ids.sort(
            key=lambda vid: distance(customer, problem.vendors_by_id[vid])
        )
        cheapest = min(problem.ad_types, key=lambda t: t.cost)
        picked: List[AdInstance] = []
        for vendor_id in vendor_ids:
            if len(picked) >= customer.capacity:
                break
            remaining = assignment.remaining_budget(vendor_id) - sum(
                inst.cost for inst in picked if inst.vendor_id == vendor_id
            )
            if cheapest.cost <= remaining + 1e-9:
                picked.append(
                    problem.make_instance(
                        customer, vendor_id, cheapest.type_id
                    )
                )
        return picked
