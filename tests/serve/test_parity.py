"""Batched decision parity against the synchronous online stream.

The serving front-end's contract (ISSUE 9): a micro-batch of size 1 is
*byte-identical* to the sequential :class:`OnlineSimulator` decision
for the same customer, seed, and shard plan -- and in fact every batch
split is, because the batch scorer resolves intra-batch contention by
re-scoring dirtied candidates at the current committed state.
"""

from __future__ import annotations

import pytest

from repro.algorithms.calibration import calibrate_from_problem
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.algorithms.recalibrating import RecalibratingOnlineAFA
from repro.engine.sharded import ShardedEngine
from repro.serve import AdRequest, BatchScorer
from repro.sharding import ShardPlan
from repro.stream.arrivals import by_arrival_time
from repro.stream.simulator import OnlineSimulator
from tests.conftest import random_tabular_problem


def _problem(seed: int):
    return random_tabular_problem(
        seed=seed, n_customers=60, n_vendors=12, n_types=3,
        capacity=(1, 3), budget=(2.0, 5.0),
    )


def _algorithm(problem, seed: int) -> OnlineAdaptiveFactorAware:
    bounds = calibrate_from_problem(problem, seed=seed)
    return OnlineAdaptiveFactorAware(gamma_min=bounds.gamma_min, g=bounds.g)


def _instance_bytes(instances):
    """The full float identity of a decision set (not just ids)."""
    return sorted(
        (i.customer_id, i.vendor_id, i.type_id, i.utility, i.cost)
        for i in instances
    )


def _sequential(seed: int, shards: int = 1):
    problem = _problem(seed)
    plan = ShardPlan.build(problem, shards) if shards > 1 else None
    result = OnlineSimulator(problem).run(
        _algorithm(problem, seed),
        measure_latency=False,
        warm_engine=True,
        shard_plan=plan,
    )
    return _instance_bytes(result.assignment), result.total_utility


def _batched(seed: int, batch_size: int, shards: int = 1):
    problem = _problem(seed)
    plan = sharded = None
    if shards > 1:
        plan = ShardPlan.build(problem, shards)
        sharded = ShardedEngine.create(plan)
    scorer = BatchScorer(
        problem,
        _algorithm(problem, seed),
        shard_plan=plan,
        sharded_engine=sharded,
    )
    ordered = by_arrival_time(problem.customers)
    committed = []
    seq = 0
    for i in range(0, len(ordered), batch_size):
        requests = []
        for customer in ordered[i: i + batch_size]:
            seq += 1
            requests.append(
                AdRequest(
                    request_id=seq, customer=customer, arrival_time=0.0
                )
            )
        results = scorer.score(requests)
        for request in requests:
            committed.extend(results[request.request_id][0])
    return _instance_bytes(committed), scorer.stats


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_batch_of_one_is_byte_identical(seed):
    expected, utility = _sequential(seed)
    got, stats = _batched(seed, batch_size=1)
    assert got == expected
    assert stats.utility == pytest.approx(utility, abs=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
@pytest.mark.parametrize("batch_size", [7, 16, 60])
def test_any_batch_split_matches_sequential(seed, batch_size):
    expected, utility = _sequential(seed)
    got, stats = _batched(seed, batch_size=batch_size)
    assert got == expected
    assert stats.utility == pytest.approx(utility, abs=0)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("batch_size", [1, 13])
def test_sharded_batches_match_sharded_stream(seed, batch_size):
    expected, utility = _sequential(seed, shards=4)
    got, stats = _batched(seed, batch_size=batch_size, shards=4)
    assert got == expected
    assert stats.utility == pytest.approx(utility, abs=0)


def test_contention_resolved_without_rejections():
    """Tight budgets force intra-batch contention (many requests chase
    one vendor); the scorer must re-score dirtied candidates instead of
    letting commits bounce off the shared assignment."""
    seed = 11
    problem = random_tabular_problem(
        seed=seed, n_customers=40, n_vendors=2, n_types=2,
        capacity=(1, 2), budget=(2.0, 3.0),
    )
    algorithm = _algorithm(problem, seed)
    scorer = BatchScorer(problem, algorithm)
    requests = [
        AdRequest(request_id=i + 1, customer=c, arrival_time=0.0)
        for i, c in enumerate(by_arrival_time(problem.customers))
    ]
    scorer.score(requests)  # everything in ONE batch
    assert scorer.stats.rejected_instances == 0
    assert scorer.stats.commits > 0

    fresh = random_tabular_problem(
        seed=seed, n_customers=40, n_vendors=2, n_types=2,
        capacity=(1, 2), budget=(2.0, 3.0),
    )
    sequential = OnlineSimulator(fresh).run(
        _algorithm(fresh, seed), measure_latency=False, warm_engine=True
    )
    assert _instance_bytes(scorer.assignment) == _instance_bytes(
        sequential.assignment
    )


def test_exhaustion_skips_match_sequential():
    """Vendor auto-deactivation inside a batch mirrors the sequential
    loop's churn-skip accounting."""
    seed = 5
    problem = _problem(seed)
    scorer = BatchScorer(problem, _algorithm(problem, seed))
    requests = [
        AdRequest(request_id=i + 1, customer=c, arrival_time=0.0)
        for i, c in enumerate(by_arrival_time(problem.customers))
    ]
    scorer.score(requests)
    # Exhaustion rides on the scorer's assignment, never the instance.
    assert scorer.stats.vendors_deactivated > 0
    assert scorer.stats.vendors_deactivated == len(
        scorer.assignment.exhausted
    )
    assert not problem.churn.inactive
    fresh = _problem(seed)
    sequential = OnlineSimulator(fresh).run(
        _algorithm(fresh, seed), measure_latency=False
    )
    assert sequential.vendors_deactivated == scorer.stats.vendors_deactivated
    assert sequential.exhausted_skips == problem.churn.skips


def _recalibrating_run(seed: int, batch_size: int = 0):
    """Recalibrating O-AFA through the stream (``batch_size=0``) or the
    batch scorer; returns the decisions and the recalibration count."""
    problem = random_tabular_problem(seed=seed, n_customers=400, n_vendors=20)
    algorithm = RecalibratingOnlineAFA(
        recalibrate_every=20, bootstrap_customers=20
    )
    if batch_size == 0:
        result = OnlineSimulator(problem).run(
            algorithm, measure_latency=False, warm_engine=True
        )
        return _instance_bytes(result.assignment), algorithm.recalibrations
    scorer = BatchScorer(problem, algorithm)
    ordered = by_arrival_time(problem.customers)
    for i in range(0, len(ordered), batch_size):
        scorer.score([
            AdRequest(request_id=i + j + 1, customer=c, arrival_time=0.0)
            for j, c in enumerate(ordered[i: i + batch_size])
        ])
    return _instance_bytes(scorer.assignment), algorithm.recalibrations


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("batch_size", [1, 7])
def test_recalibrating_subclass_is_not_bypassed(seed, batch_size):
    """A subclass that overrides ``process_customer`` (here: learning
    its threshold from the stream) must see every arrival in a batch
    too, so batched decisions equal the stream's."""
    expected, recalibrations = _recalibrating_run(seed)
    assert recalibrations > 0
    assert _recalibrating_run(seed, batch_size) == (expected, recalibrations)
