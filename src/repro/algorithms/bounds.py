"""Fast upper bounds on the MUAA optimum.

The paper's offline algorithms double as a way to "fast estimate the
upper bound of the maximum utility for a given MUAA problem instance"
(Section VI).  This module makes that explicit with two bounds:

* :func:`vendor_lp_bound` -- sum over vendors of the exact LP value of
  each single-vendor MCKP relaxation.  This relaxes only the customer
  capacity constraints, so it upper-bounds the optimum; it is the bound
  Theorem III.1's proof works against, computable in near-linear time
  via the greedy LP sweep.
* :func:`capacity_bound` -- per-customer: the sum of each customer's
  top-:math:`a_i` pair utilities (best type each), relaxing all budget
  constraints.
* :func:`combined_bound` -- the minimum of the two (both are valid).
* :func:`full_lp_bound` -- the exact LP relaxation of the whole MUAA
  ILP solved with the in-tree simplex; the tightest of the three but
  only practical on small instances.

Bounds let experiments report optimality gaps (``utility / bound``) on
instances where the exact solver is intractable.
"""

from __future__ import annotations

from typing import Dict, List

from repro.algorithms.recon import vendor_mckp
from repro.core.problem import MUAAProblem
from repro.lp.model import LinearProgram
from repro.mckp.lp_relaxation import solve_lp_relaxation


def vendor_lp_bound(problem: MUAAProblem) -> float:
    """Budget-respecting bound: capacity constraints relaxed.

    For each vendor, the exact LP optimum of its single-vendor MCKP
    (RECON's :func:`~repro.algorithms.recon.vendor_mckp`: all its valid
    customers, each free to take one ad) is an upper bound on what
    that vendor can contribute; their sum bounds the whole instance
    because dropping the capacity coupling can only increase the
    optimum.  A deactivated vendor contributes nothing.
    """
    total = 0.0
    for vendor in problem.vendors:
        mckp = vendor_mckp(problem, vendor)
        if mckp is not None:
            total += solve_lp_relaxation(mckp).lp_value
    return total


def capacity_bound(problem: MUAAProblem) -> float:
    """Capacity-respecting bound: budget constraints relaxed.

    Each customer can receive at most :math:`a_i` ads; with budgets
    dropped, the best it could contribute is the sum of its top-
    :math:`a_i` best-type pair utilities.
    """
    best_per_pair: Dict[int, List[float]] = {}
    for customer_id, vendor_id in problem.valid_pairs():
        best = problem.best_instance_for_pair(
            customer_id, vendor_id, by="utility"
        )
        if best is not None and best.utility > 0:
            best_per_pair.setdefault(customer_id, []).append(best.utility)
    total = 0.0
    for customer_id, utilities in best_per_pair.items():
        capacity = problem.capacities.get(customer_id, 0)
        utilities.sort(reverse=True)
        total += sum(utilities[:capacity])
    return total


def combined_bound(problem: MUAAProblem) -> float:
    """The tighter of :func:`vendor_lp_bound` and :func:`capacity_bound`."""
    return min(vendor_lp_bound(problem), capacity_bound(problem))


def full_lp_bound(problem: MUAAProblem) -> float:
    """Exact LP relaxation of the full MUAA ILP (small instances only).

    Builds Definition 5's linear program with one variable per valid
    ``(customer, vendor, type)`` triple and solves it with the in-tree
    simplex.  Dominates both quick bounds but costs a simplex solve
    over all valid triples.
    """
    lp = LinearProgram()
    by_customer: Dict[int, List] = {}
    by_vendor: Dict[int, List] = {}
    by_pair: Dict[tuple, List] = {}
    n_vars = 0
    for customer_id, vendor_id in problem.valid_pairs():
        for inst in problem.pair_instances(customer_id, vendor_id):
            if inst.utility <= 0:
                continue
            name = (customer_id, vendor_id, inst.type_id)
            lp.add_variable(name, objective=inst.utility)
            by_customer.setdefault(customer_id, []).append(name)
            by_vendor.setdefault(vendor_id, []).append((name, inst.cost))
            by_pair.setdefault((customer_id, vendor_id), []).append(name)
            n_vars += 1
    if n_vars == 0:
        return 0.0
    for customer_id, names in by_customer.items():
        lp.add_constraint(
            {name: 1.0 for name in names},
            bound=float(problem.capacities.get(customer_id, 0)),
        )
    for vendor_id, entries in by_vendor.items():
        lp.add_constraint(
            {name: cost for name, cost in entries},
            bound=problem.budgets[vendor_id],
        )
    for names in by_pair.values():
        lp.add_constraint({name: 1.0 for name in names}, bound=1.0)
    return lp.solve().objective
