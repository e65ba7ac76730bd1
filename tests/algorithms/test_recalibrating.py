"""Tests for the self-recalibrating O-AFA variant."""

from __future__ import annotations

import hashlib

import pytest

from repro.algorithms.calibration import calibrate_from_problem
from repro.algorithms.online_afa import (
    AdaptiveExponentialThreshold,
    OnlineAdaptiveFactorAware,
    StaticThreshold,
)
from repro.algorithms.recalibrating import RecalibratingOnlineAFA
from repro.core.validation import validate_assignment
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.datagen.tabular import random_tabular_problem
from repro.stream.simulator import OnlineSimulator


@pytest.fixture
def problem():
    return random_tabular_problem(
        seed=14, n_customers=200, n_vendors=5, budget=(8.0, 15.0)
    )


def test_parameter_validation():
    with pytest.raises(ValueError):
        RecalibratingOnlineAFA(window=0)
    with pytest.raises(ValueError):
        RecalibratingOnlineAFA(recalibrate_every=0)


def test_output_feasible(problem):
    algorithm = RecalibratingOnlineAFA(
        recalibrate_every=20, bootstrap_customers=10
    )
    result = OnlineSimulator(problem).run(algorithm)
    assert validate_assignment(problem, result.assignment).ok
    assert result.rejected_instances == 0


def test_recalibration_actually_happens(problem):
    algorithm = RecalibratingOnlineAFA(
        recalibrate_every=20, bootstrap_customers=10
    )
    OnlineSimulator(problem).run(algorithm)
    assert algorithm.recalibrations >= 5
    assert isinstance(
        algorithm.threshold_function, AdaptiveExponentialThreshold
    )


def test_reset_restores_bootstrap(problem):
    algorithm = RecalibratingOnlineAFA(
        recalibrate_every=20, bootstrap_customers=10
    )
    OnlineSimulator(problem).run(algorithm)
    algorithm.reset(problem)
    assert algorithm.recalibrations == 0
    assert isinstance(algorithm.threshold_function, StaticThreshold)


def test_converges_towards_oracle_calibration(problem):
    """With enough stream behind it, the self-calibrated threshold
    should be competitive with one calibrated from the full instance."""
    oracle_bounds = calibrate_from_problem(problem, sample_customers=None)
    oracle = OnlineSimulator(problem).run(
        OnlineAdaptiveFactorAware(
            gamma_min=oracle_bounds.gamma_min, g=oracle_bounds.g
        )
    )
    recal = OnlineSimulator(problem).run(
        RecalibratingOnlineAFA(
            recalibrate_every=25, bootstrap_customers=25
        )
    )
    assert recal.total_utility >= oracle.total_utility * 0.8


def test_no_positive_observations_stays_bootstrap():
    problem = random_tabular_problem(seed=1, coverage=0.0)
    algorithm = RecalibratingOnlineAFA(
        recalibrate_every=2, bootstrap_customers=1
    )
    OnlineSimulator(problem).run(algorithm)
    assert algorithm.recalibrations == 0


def test_one_candidate_scan_per_arrival():
    """Observing and deciding share one scan, so churn skips are counted
    once per arrival; decisions are those of the two-scan version."""
    problem = synthetic_problem(
        WorkloadConfig(
            n_customers=2_000,
            n_vendors=60,
            seed=4,
            budget_range=ParameterRange(1.0, 3.0),
        )
    )
    calls = []
    scan = problem.valid_vendor_ids

    def counting(*args, **kwargs):
        calls.append(1)
        return scan(*args, **kwargs)

    problem.valid_vendor_ids = counting
    algorithm = RecalibratingOnlineAFA()
    result = OnlineSimulator(problem).run(
        algorithm, warm_engine=True, measure_latency=False
    )
    assert len(calls) == len(problem.customers)
    triples = sorted(
        (i.customer_id, i.vendor_id, i.type_id) for i in result.assignment
    )
    # Pinned from the two-scan version of this algorithm.
    assert len(triples) == 34
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == (
        "26674e0201b4e98551b8c9dad43af58d1f5c76bc3bb22a7c80aa7456c46110d4"
    )
    assert algorithm.recalibrations == 20
    assert result.exhausted_skips == 86  # the two-scan version counted 172
