"""repro: a full reproduction of "Maximizing the Utility in Location-Based
Mobile Advertising" (Cheng, Lian, Chen, Liu -- ICDE 2019).

The package implements the Maximum Utility Ad Assignment (MUAA) problem
end to end:

* the entity and utility model of Section II (taxonomy-driven interest
  vectors, activity-weighted Pearson preference, Eq. 4 utilities);
* the offline reconciliation algorithm RECON (Section III) on top of an
  in-tree multiple-choice-knapsack / LP substrate;
* the online adaptive factor-aware algorithm O-AFA (Section IV) with its
  exponential threshold and parameter calibration;
* every baseline of Section V (RANDOM, NEAREST, GREEDY) plus an exact
  solver for small instances; and
* the full experiment harness regenerating Figures 3-8.

Quickstart::

    from repro import synthetic_problem, run_panel
    problem = synthetic_problem()
    results = run_panel(problem)
    print(results["RECON"].total_utility)
"""

from repro.algorithms import (
    AdaptiveExponentialThreshold,
    ExactOptimal,
    GreedyEfficiency,
    NearestVendor,
    OnlineAdaptiveFactorAware,
    OnlineStaticThreshold,
    RandomAssignment,
    Reconciliation,
    calibrate_from_problem,
)
from repro.core import (
    AdInstance,
    AdType,
    Assignment,
    Customer,
    MUAAProblem,
    Vendor,
    validate_assignment,
)
from repro.datagen import (
    WorkloadConfig,
    default_ad_types,
    load_foursquare_tsv,
    problem_from_checkins,
    simulate_checkins,
    synthetic_problem,
)
from repro.experiments import run_panel, run_sweep
from repro.resilience import FaultPlan, ResilientBroker, SimulatedClock
from repro.sharding import ShardPlan
from repro.stream import OnlineSimulator
from repro.taxonomy import Taxonomy, foursquare_taxonomy
from repro.utility import TabularUtilityModel, TaxonomyUtilityModel

__version__ = "1.0.0"

__all__ = [
    "AdaptiveExponentialThreshold",
    "ExactOptimal",
    "GreedyEfficiency",
    "NearestVendor",
    "OnlineAdaptiveFactorAware",
    "OnlineStaticThreshold",
    "RandomAssignment",
    "Reconciliation",
    "calibrate_from_problem",
    "AdInstance",
    "AdType",
    "Assignment",
    "Customer",
    "MUAAProblem",
    "Vendor",
    "validate_assignment",
    "WorkloadConfig",
    "default_ad_types",
    "load_foursquare_tsv",
    "problem_from_checkins",
    "simulate_checkins",
    "synthetic_problem",
    "run_panel",
    "run_sweep",
    "FaultPlan",
    "ResilientBroker",
    "SimulatedClock",
    "ShardPlan",
    "OnlineSimulator",
    "Taxonomy",
    "foursquare_taxonomy",
    "TabularUtilityModel",
    "TaxonomyUtilityModel",
    "__version__",
]
