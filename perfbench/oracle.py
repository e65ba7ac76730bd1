"""Output checks the benchmark makes apart from the code paths it times.

Every check here reads only entities (customers, vendors, ad types) and
a scalar utility model that the caller builds fresh, so no cache or
column filled by the timed path can make a wrong answer look right:

* range: the customer lies within the vendor's radius;
* capacity: no customer receives more ads than its capacity;
* budget: no vendor spends more than its budget;
* one ad per (customer, vendor) pair;
* value: each instance's cost is its ad type's price and its utility
  equals Eq. 4 recomputed through the scalar model;
* total: the reported total utility is the sum of the recomputed
  utilities.

:func:`check_assignment` returns a list of human-readable violations;
an empty list means the assignment passed.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping

#: Relative tolerance of the Eq. 4 and total-utility comparisons.
REL_TOL = 1e-9

#: Slack on budget sums (the program commits with the same 1e-9).
BUDGET_EPS = 1e-9

#: Relative slack on the range test, so a pair exactly on the boundary
#: is not rejected for the last bit of a square root.
RANGE_SLACK = 1e-12

#: Violations listed in full before the rest are only counted.
MAX_LISTED = 20


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * max(abs(reference), 1e-300)


def check_assignment(
    instances: Iterable,
    customers: Mapping[int, object],
    vendors: Mapping[int, object],
    ad_types: Mapping[int, object],
    model,
    reported_total: float,
) -> List[str]:
    """Check one committed assignment against the MUAA constraints.

    Args:
        instances: The committed :class:`~repro.core.AdInstance` objects.
        customers: Customer id -> customer entity.
        vendors: Vendor id -> vendor entity; for a churned marketplace,
            every vendor that was ever live (retired ones included).
        ad_types: Ad type id -> ad type.
        model: A scalar utility model (``utility(customer, vendor,
            ad_type)``) built apart from the instance under test.
        reported_total: The total utility the timed path reported.

    Returns:
        The violations found; empty when the assignment is feasible and
        its values are exact.
    """
    problems: List[str] = []
    seen = set()
    ads: Dict[int, int] = {}
    spend: Dict[int, float] = {}
    total = 0.0
    for inst in instances:
        cid, vid, tid = inst.customer_id, inst.vendor_id, inst.type_id
        customer = customers.get(cid)
        vendor = vendors.get(vid)
        ad_type = ad_types.get(tid)
        if customer is None or vendor is None or ad_type is None:
            problems.append(f"({cid}, {vid}, {tid}): unknown entity")
            continue
        if (cid, vid) in seen:
            problems.append(f"({cid}, {vid}): more than one ad for the pair")
        seen.add((cid, vid))
        dist = math.hypot(
            customer.location[0] - vendor.location[0],
            customer.location[1] - vendor.location[1],
        )
        if dist > vendor.radius * (1.0 + RANGE_SLACK):
            problems.append(
                f"({cid}, {vid}): distance {dist!r} outside radius "
                f"{vendor.radius!r}"
            )
        if inst.cost != ad_type.cost:
            problems.append(
                f"({cid}, {vid}): cost {inst.cost!r} is not the price "
                f"{ad_type.cost!r} of type {tid}"
            )
        reference = model.utility(customer, vendor, ad_type)
        if not _close(inst.utility, reference):
            problems.append(
                f"({cid}, {vid}, {tid}): utility {inst.utility!r} != "
                f"Eq. 4 {reference!r}"
            )
        total += reference
        ads[cid] = ads.get(cid, 0) + 1
        spend[vid] = spend.get(vid, 0.0) + ad_type.cost
    for cid, count in ads.items():
        if count > customers[cid].capacity:
            problems.append(
                f"customer {cid}: {count} ads over capacity "
                f"{customers[cid].capacity}"
            )
    for vid, spent in spend.items():
        if spent > vendors[vid].budget + BUDGET_EPS:
            problems.append(
                f"vendor {vid}: spent {spent!r} over budget "
                f"{vendors[vid].budget!r}"
            )
    if not _close(reported_total, total):
        problems.append(
            f"reported utility {reported_total!r} != recomputed sum {total!r}"
        )
    if len(problems) > MAX_LISTED:
        extra = len(problems) - MAX_LISTED
        problems = problems[:MAX_LISTED] + [f"... and {extra} more"]
    return problems


def triples(instances: Iterable) -> List[tuple]:
    """Sorted ``(customer, vendor, type, utility)`` tuples: the identity
    of an assignment, for comparing two execution paths."""
    return sorted(
        (i.customer_id, i.vendor_id, i.type_id, i.utility) for i in instances
    )
