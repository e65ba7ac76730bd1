"""Streaming under churn: delta parity, skip counters, epochs."""

from __future__ import annotations

import pytest

from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.churn import (
    KIND_DEACTIVATE,
    ChurnEvent,
    ChurnSchedule,
    seeded_vendor_churn,
)
from repro.resilience.broker import ResilientBroker
from repro.sharding import ShardPlan
from repro.stream.simulator import OnlineSimulator
from tests.churn.conftest import make_problem, triples

N_EVENTS = 20


def _run(shards, cold):
    problem = make_problem()
    plan = ShardPlan.build(problem, shards) if shards > 1 else None
    schedule = seeded_vendor_churn(
        problem,
        N_EVENTS,
        seed=23,
        n_ticks=len(problem.customers),
        plan=plan,
    )
    algorithm = OnlineAdaptiveFactorAware(gamma_min=0.05, g=4.0)
    return OnlineSimulator(problem).run(
        algorithm,
        warm_engine=True,
        shard_plan=plan,
        churn=schedule,
        churn_cold_rebuild=cold,
        measure_latency=False,
    )


class TestStreamParity:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_delta_stream_equals_cold_rebuild_stream(self, shards):
        delta = _run(shards, cold=False)
        cold = _run(shards, cold=True)
        assert delta.churn_epoch == cold.churn_epoch == N_EVENTS
        assert (
            abs(delta.total_utility - cold.total_utility) <= 1e-9
        )
        assert triples(delta.assignment) == triples(cold.assignment)

    def test_identity_plan_advances_its_log(self):
        problem = make_problem()
        plan = ShardPlan.identity(problem)
        schedule = seeded_vendor_churn(
            problem, 8, seed=3, n_ticks=len(problem.customers), plan=plan
        )
        result = OnlineSimulator(problem).run(
            OnlineAdaptiveFactorAware(gamma_min=0.05, g=4.0),
            warm_engine=True,
            shard_plan=plan,
            churn=schedule,
            measure_latency=False,
        )
        assert result.churn_epoch == plan.epoch == 8
        assert len(plan.churn_log) == 8

    def test_problem_reusable_after_churned_run(self):
        problem = make_problem()
        schedule = seeded_vendor_churn(
            problem, 6, seed=4, n_ticks=len(problem.customers)
        )
        algorithm = OnlineAdaptiveFactorAware(gamma_min=0.05, g=4.0)
        first = OnlineSimulator(problem).run(
            algorithm, churn=schedule, measure_latency=False
        )
        # Budget exhaustion rides on the run's assignment; the shared
        # instance keeps only the schedule's explicit deactivations...
        assert first.vendors_deactivated == len(first.assignment.exhausted)
        assert first.vendors_deactivated > 0
        explicit = {
            event.vendor_id
            for event in schedule.events
            if event.kind == KIND_DEACTIVATE
        }
        assert problem.churn.inactive == explicit & set(problem.vendors_by_id)
        # ...and a plain re-run still works end to end.
        result = OnlineSimulator(problem).run(
            algorithm, measure_latency=False
        )
        assert result.churn_epoch == problem.churn.epoch
        assert result.total_utility > 0


class TestExhaustedSkips:
    def test_deactivated_vendors_receive_no_commits(self):
        problem = make_problem()
        victims = [v.vendor_id for v in problem.vendors[:6]]
        schedule = ChurnSchedule(
            ChurnEvent(kind=KIND_DEACTIVATE, tick=0, vendor_id=vid)
            for vid in victims
        )
        result = OnlineSimulator(problem).run(
            OnlineAdaptiveFactorAware(gamma_min=0.05, g=4.0),
            churn=schedule,
            measure_latency=False,
        )
        assert result.churn_epoch == len(victims)
        committed_vendors = {
            inst.vendor_id for inst in result.assignment
        }
        assert not committed_vendors & set(victims)
        assert result.exhausted_skips > 0

    def test_broker_counts_skips_and_epoch(self):
        problem = make_problem()
        schedule = seeded_vendor_churn(
            problem, 10, seed=6, n_ticks=len(problem.customers)
        )
        result = ResilientBroker(problem).run(churn=schedule)
        assert result.churn_epoch == 10
        extras = result.resilience.as_extras()
        assert extras["churn_epoch"] == 10.0
        assert "exhausted_skips" in extras
        assert result.exhausted_skips == result.resilience.exhausted_skips

    def test_broker_sharded_churn_through_plan(self):
        problem = make_problem()
        plan = ShardPlan.build(problem, 4)
        schedule = seeded_vendor_churn(
            problem, 10, seed=8, n_ticks=len(problem.customers), plan=plan
        )
        result = ResilientBroker(problem, shard_plan=plan).run(
            churn=schedule
        )
        assert result.churn_epoch == plan.epoch == 10
