"""Run state stays with the run: one problem and one shard plan serve
any number of runs of every driver, and no run leaves a trace on them.

Budget exhaustion rides on each run's assignment and trajectory moves on
each run's arriving entities, so the second run of a driver over the
same problem and plan repeats the first exactly.
"""

from __future__ import annotations

from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.churn import ChurnSchedule
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.resilience.broker import ResilientBroker
from repro.resilience.faults import FaultPlan
from repro.scenario import seeded_customer_moves
from repro.serve import ReplayDriver, ServeConfig, build_schedule
from repro.sharding import ShardPlan
from repro.stream.simulator import OnlineSimulator

CONFIG = WorkloadConfig(
    n_customers=300,
    n_vendors=30,
    seed=12,
    radius_range=ParameterRange(0.15, 0.25),
    budget_range=ParameterRange(1.0, 3.0),  # binding: vendors exhaust
)


def _algorithm():
    return OnlineAdaptiveFactorAware(gamma_min=0.05, g=4.0)


def _triples(assignment):
    return sorted(
        (i.customer_id, i.vendor_id, i.type_id) for i in assignment
    )


def _state(problem, plan):
    """Everything a run could leave behind on the shared objects."""
    return (
        list(problem.customers),
        set(problem.churn.inactive),
        [plan.customer_ids(shard) for shard in range(plan.n_shards)],
        {
            c.customer_id: plan.shards_of_customer(c.customer_id)
            for c in problem.customers
        },
    )


def test_every_driver_reruns_identically_on_one_problem_and_plan():
    problem = synthetic_problem(CONFIG)
    plan = ShardPlan.build(problem, 4)
    assert plan.n_shards == 4
    moves = seeded_customer_moves(
        problem, 150, seed=12, n_ticks=len(problem.customers)
    )
    schedule = build_schedule(problem.customers, rate=2_000.0, seed=12)

    def stream():
        result = OnlineSimulator(problem).run(
            _algorithm(), warm_engine=True, shard_plan=plan, moves=moves,
            measure_latency=False,
        )
        return _triples(result.assignment), (
            result.rejected_instances,
            result.exhausted_skips,
            result.vendors_deactivated,
        )

    def serve():
        skips = problem.churn.skips
        driver = ReplayDriver(
            problem, _algorithm(),
            ServeConfig(max_batch=7, queue_depth=len(schedule)),
            shard_plan=plan, moves=moves,
        )
        stats = driver.run(schedule).stats
        return _triples(driver.scorer.assignment), (
            stats.served,
            stats.commits,
            stats.rejected_instances,
            stats.duplicates_suppressed,
            problem.churn.skips - skips,
            stats.vendors_deactivated,
        )

    def broker():
        # An empty churn schedule turns on churn-aware serving (exhausted
        # vendors are skipped) without changing the marketplace, which
        # churn events would do persistently.
        result = ResilientBroker(
            problem,
            plan=FaultPlan.uniform(seed=5, transient_rate=0.1),
            primary=_algorithm(),
            shard_plan=plan,
        ).run(churn=ChurnSchedule())
        extras = result.resilience.as_extras()
        return _triples(result.assignment), (
            result.rejected_instances,
            extras,
            result.vendors_deactivated,
        )

    before = _state(problem, plan)
    for run in (stream, serve, broker):
        first = run()
        assert first[0], run.__name__
        assert first[1][-1] > 0, f"{run.__name__}: no vendor exhausted"
        assert run() == first, run.__name__
        assert _state(problem, plan) == before, run.__name__
