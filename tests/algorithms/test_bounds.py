"""Tests for the MUAA upper bounds."""

from __future__ import annotations

import pytest

from repro.algorithms.bounds import (
    capacity_bound,
    combined_bound,
    full_lp_bound,
    vendor_lp_bound,
)
from repro.algorithms.greedy import GreedyEfficiency
from repro.algorithms.optimal import ExactOptimal
from repro.algorithms.recon import vendor_mckp
from repro.datagen.config import WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.datagen.tabular import random_tabular_problem
from repro.mckp.lp_relaxation import solve_lp_relaxation
from tests.conftest import paper_example_problem


@pytest.mark.parametrize("seed", range(8))
def test_all_bounds_dominate_the_optimum(seed):
    problem = random_tabular_problem(seed=seed, n_customers=4, n_vendors=3)
    optimum = ExactOptimal().solve(problem).total_utility
    for bound in (
        vendor_lp_bound(problem),
        capacity_bound(problem),
        combined_bound(problem),
        full_lp_bound(problem),
    ):
        assert bound >= optimum - 1e-7


@pytest.mark.parametrize("seed", range(8))
def test_full_lp_is_tightest(seed):
    problem = random_tabular_problem(seed=seed, n_customers=4, n_vendors=3)
    assert full_lp_bound(problem) <= combined_bound(problem) + 1e-6


def test_combined_is_min_of_the_two():
    problem = random_tabular_problem(seed=3)
    assert combined_bound(problem) == pytest.approx(
        min(vendor_lp_bound(problem), capacity_bound(problem))
    )


def test_bounds_on_paper_example():
    problem = paper_example_problem()
    optimum = 0.05204347826086957
    assert vendor_lp_bound(problem) >= optimum
    assert capacity_bound(problem) >= optimum
    assert full_lp_bound(problem) >= optimum - 1e-9


def test_empty_problem_bounds_are_zero():
    problem = random_tabular_problem(seed=0, coverage=0.0)
    assert vendor_lp_bound(problem) == 0.0
    assert capacity_bound(problem) == 0.0
    assert full_lp_bound(problem) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_every_algorithm_stays_below_every_bound(seed):
    """Bounds must dominate any feasible assignment, not just OPT."""
    from repro.algorithms.recon import Reconciliation
    from repro.algorithms.random_baseline import RandomAssignment

    problem = random_tabular_problem(seed=seed, n_customers=8, n_vendors=4)
    ceiling = combined_bound(problem)
    for algorithm in (
        GreedyEfficiency(),
        Reconciliation(seed=0),
        RandomAssignment(seed=0),
    ):
        assert algorithm.solve(problem).total_utility <= ceiling + 1e-9


def test_gap_reporting_use_case():
    """The intended workflow: utility / bound is a certified gap."""
    problem = random_tabular_problem(seed=6, n_customers=10, n_vendors=5)
    greedy = GreedyEfficiency().solve(problem).total_utility
    bound = combined_bound(problem)
    assert 0 < greedy / bound <= 1.0 + 1e-9


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_tabular_problem(seed=2, n_customers=10, n_vendors=5),
        lambda: synthetic_problem(
            WorkloadConfig(n_customers=200, n_vendors=20, seed=4)
        ),
    ],
    ids=["scalar", "engine"],
)
def test_deactivated_vendor_contributes_nothing(build):
    """As in RECON, a deactivated vendor's single-vendor LP is empty."""
    problem = build()
    shares = {
        vendor.vendor_id: solve_lp_relaxation(mckp).lp_value
        for vendor in problem.vendors
        if (mckp := vendor_mckp(problem, vendor)) is not None
    }
    victim = max(shares, key=shares.get)
    assert shares[victim] > 0
    before = vendor_lp_bound(problem)
    assert problem.deactivate_vendors([victim]) == 1
    after = vendor_lp_bound(problem)
    assert after == pytest.approx(before - shares[victim], rel=1e-12)
