"""Multiple-choice knapsack substrate for the single-vendor problems."""

from repro.mckp.branch_and_bound import solve_branch_and_bound
from repro.mckp.dominance import (
    incremental_efficiencies,
    remove_dominated,
    remove_lp_dominated,
)
from repro.mckp.dynamic_programming import solve_dp_by_cost, solve_fptas
from repro.mckp.items import (
    MCKPColumns,
    MCKPInstance,
    MCKPItem,
    MCKPSolution,
    single_vendor_mckp,
)
from repro.mckp.lp_relaxation import (
    LPRelaxationResult,
    greedy_lp,
    solve_greedy,
    solve_lp_relaxation,
)
from repro.mckp.solvers import SOLVER_NAMES, lp_value_via_simplex, solve

__all__ = [
    "solve_branch_and_bound",
    "incremental_efficiencies",
    "remove_dominated",
    "remove_lp_dominated",
    "solve_dp_by_cost",
    "solve_fptas",
    "MCKPColumns",
    "MCKPInstance",
    "MCKPItem",
    "MCKPSolution",
    "single_vendor_mckp",
    "LPRelaxationResult",
    "greedy_lp",
    "solve_greedy",
    "solve_lp_relaxation",
    "SOLVER_NAMES",
    "lp_value_via_simplex",
    "solve",
]
