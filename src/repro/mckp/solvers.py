"""Unified entry point for the MCKP solver backends.

RECON solves one MCKP per vendor; this dispatcher lets callers (and the
solver-ablation benchmark) pick the backend by name:

* ``"greedy-lp"`` -- greedy LP-relaxation rounding (fast, default);
* ``"fptas"``     -- profit-scaling DP with a (1-epsilon) guarantee;
* ``"dp"``        -- exact cost-axis DP (integer-ish costs);
* ``"bb"``        -- exact branch-and-bound (real costs);
* ``"lp-simplex"`` -- LP relaxation via the generic simplex, rounded the
  same way as ``greedy-lp`` (cross-validation path).
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from repro.exceptions import SolverError
from repro.lp.model import LinearProgram
from repro.mckp.branch_and_bound import solve_branch_and_bound
from repro.mckp.dynamic_programming import solve_dp_by_cost, solve_fptas
from repro.mckp.items import MCKPColumns, MCKPInstance, MCKPSolution
from repro.mckp.lp_relaxation import solve_greedy, solve_lp_relaxation

#: Names accepted by :func:`solve`.
SOLVER_NAMES = ("greedy-lp", "fptas", "dp", "bb", "lp-simplex")


def lp_value_via_simplex(instance: MCKPInstance) -> float:
    """Exact LP-relaxation value computed with the generic simplex.

    This is the cross-validation path: it must agree with
    :func:`repro.mckp.lp_relaxation.solve_lp_relaxation`'s ``lp_value``.
    """
    lp = LinearProgram()
    for class_id, items in instance.classes.items():
        for item in items:
            lp.add_variable((class_id, item.item_id), objective=item.profit)
    if lp.n_variables == 0:
        return 0.0
    # sum_k x_ik <= 1 per class.
    for class_id, items in instance.classes.items():
        lp.add_constraint(
            {(class_id, item.item_id): 1.0 for item in items}, bound=1.0
        )
    # Budget constraint.
    lp.add_constraint(
        {
            (class_id, item.item_id): item.cost
            for class_id, items in instance.classes.items()
            for item in items
        },
        bound=instance.budget,
    )
    # x <= 1 is implied by the class constraints; x >= 0 is built in.
    return lp.solve().objective


def _solve_via_simplex(instance: MCKPInstance) -> MCKPSolution:
    solution = solve_greedy(instance)
    solution.upper_bound = lp_value_via_simplex(instance)
    return solution


_BACKENDS: Dict[str, Callable[[MCKPInstance], MCKPSolution]] = {
    "greedy-lp": solve_greedy,
    "fptas": solve_fptas,
    "dp": solve_dp_by_cost,
    "bb": solve_branch_and_bound,
    "lp-simplex": _solve_via_simplex,
}


def solve(
    instance: Union[MCKPInstance, MCKPColumns], method: str = "greedy-lp"
) -> MCKPSolution:
    """Solve an MCKP instance with the named backend.

    ``greedy-lp`` solves a column-wise instance as it is; every other
    backend gets its per-item form.

    Raises:
        SolverError: On an unknown method name.
    """
    try:
        backend = _BACKENDS[method]
    except KeyError:
        raise SolverError(
            f"unknown MCKP solver {method!r}; choose from {SOLVER_NAMES}"
        ) from None
    if isinstance(instance, MCKPColumns) and method != "greedy-lp":
        instance = instance.to_instance()
    return backend(instance)
