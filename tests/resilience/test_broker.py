"""Tests for the resilient broker: parity, fallback, idempotent commits."""

from __future__ import annotations

import pytest

from repro.algorithms.fallback import FallbackChain, FallbackTier
from repro.algorithms.nearest import NearestVendor
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.algorithms.online_static import OnlineStaticThreshold
from repro.churn import seeded_vendor_churn
from repro.core.validation import validate_assignment
from repro.datagen.tabular import random_tabular_problem
from repro.exceptions import TransientError
from repro.resilience.broker import ResilientBroker
from repro.resilience.clock import SimulatedClock
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.policy import RetryPolicy
from repro.sharding import ShardPlan
from repro.stream.simulator import OnlineSimulator
from tests.churn.conftest import make_problem, triples


@pytest.fixture
def problem():
    return random_tabular_problem(seed=4, n_customers=30, n_vendors=5)


def _fault_free_run(serve, shards, churned):
    """One O-AFA stream on a fresh problem and plan (churn changes
    both persistently), served by ``serve(problem, algorithm, plan,
    churn)``."""
    problem = make_problem()
    plan = ShardPlan.build(problem, shards) if shards > 1 else None
    churn = (
        seeded_vendor_churn(
            problem, 12, seed=23, n_ticks=len(problem.customers), plan=plan
        )
        if churned
        else None
    )
    algorithm = OnlineAdaptiveFactorAware(gamma_min=0.05, g=4.0)
    return serve(problem, algorithm, plan, churn)


class TestFaultFreeParity:
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("churned", [False, True])
    def test_same_decisions_and_counters_as_simulator(self, shards, churned):
        plain = _fault_free_run(
            lambda problem, algorithm, plan, churn: OnlineSimulator(
                problem
            ).run(algorithm, shard_plan=plan, churn=churn),
            shards,
            churned,
        )
        resilient = _fault_free_run(
            lambda problem, algorithm, plan, churn: ResilientBroker(
                problem, primary=algorithm, shard_plan=plan
            ).run(churn=churn),
            shards,
            churned,
        )
        assert triples(resilient.assignment) == triples(plain.assignment)
        assert resilient.rejected_instances == plain.rejected_instances
        assert resilient.customers_lost == plain.customers_lost
        assert resilient.churn_epoch == plain.churn_epoch
        assert resilient.vendors_deactivated == plain.vendors_deactivated
        assert resilient.exhausted_skips == plain.exhausted_skips

    def test_matches_plain_simulator_with_same_primary(self, problem):
        primary = OnlineStaticThreshold(0.0)
        plain = OnlineSimulator(problem).run(OnlineStaticThreshold(0.0))
        broker = ResilientBroker(problem, primary=primary)
        resilient = broker.run()
        assert resilient.total_utility == pytest.approx(plain.total_utility)
        assert len(resilient.assignment) == len(plain.assignment)
        stats = resilient.resilience
        assert stats.retries == 0
        assert stats.total_faults == 0
        assert stats.degraded_decisions == 0
        assert stats.duplicates_suppressed == 0
        assert stats.decisions_by_tier == {
            "ONLINE-STATIC": len(problem.customers)
        }

    def test_validates_against_pristine_problem(self, problem):
        result = ResilientBroker(problem).run()
        assert validate_assignment(problem, result.assignment).ok


class TestFallbackChain:
    def test_chain_requires_tiers(self):
        with pytest.raises(ValueError):
            FallbackChain([])

    def test_permanent_utility_outage_degrades_to_nearest(self, problem):
        # Every utility call fails: both utility-aware tiers are dead,
        # yet the broker keeps serving through the local baseline.
        plan = FaultPlan(seed=1, utility=FaultSpec(transient_rate=1.0))
        broker = ResilientBroker(
            problem,
            plan=plan,
            primary=OnlineStaticThreshold(0.0),
            retry=RetryPolicy(max_attempts=2, jitter=0.0),
        )
        result = broker.run()
        stats = result.resilience
        # Every decision with a candidate degrades to NEAREST.  Once
        # all vendors are exhausted the primary finds no candidate and
        # decides (to show nothing) without a utility call.
        nearest = OnlineSimulator(problem).run(NearestVendor())
        assert triples(result.assignment) == triples(nearest.assignment)
        assert result.vendors_deactivated == len(problem.vendors)
        assert stats.decisions_by_tier == {
            "NEAREST": stats.degraded_decisions,
            "ONLINE-STATIC": len(problem.customers)
            - stats.degraded_decisions,
        }
        assert len(result.assignment) > 0
        assert validate_assignment(problem, result.assignment).ok

    def test_breaker_opens_under_sustained_faults(self, problem):
        plan = FaultPlan(seed=1, utility=FaultSpec(transient_rate=1.0))
        broker = ResilientBroker(
            problem,
            plan=plan,
            primary=OnlineStaticThreshold(0.0),
            retry=RetryPolicy(max_attempts=2, jitter=0.0),
            breaker_failure_threshold=3,
            breaker_recovery_timeout=1e9,  # never recovers in-run
        )
        stats = broker.run().resilience
        assert stats.breaker_opens >= 1
        assert any(
            dep == "utility" and to_state == "open"
            for dep, _, _, to_state in stats.breaker_transitions
        )

    def test_breaker_counts_keyed_by_dependency(self, problem):
        plan = FaultPlan(seed=1, utility=FaultSpec(transient_rate=1.0))
        broker = ResilientBroker(
            problem,
            plan=plan,
            primary=OnlineStaticThreshold(0.0),
            retry=RetryPolicy(max_attempts=2, jitter=0.0),
            breaker_failure_threshold=3,
            breaker_recovery_timeout=1e9,
        )
        stats = broker.run().resilience
        # The rollup matches the raw transition log exactly.
        assert stats.breaker_counts
        for dep, states in stats.breaker_counts.items():
            for state, count in states.items():
                assert count == sum(
                    1
                    for name, _, _, to_state in stats.breaker_transitions
                    if name == dep and to_state == state
                )
        assert stats.breaker_counts["utility"]["open"] >= 1
        # ...and is exported through the flat extras for experiments.
        extras = stats.as_extras()
        assert extras["breaker_open.utility"] == float(
            stats.breaker_counts["utility"]["open"]
        )

    def test_transient_faults_are_absorbed_by_retries(self, problem):
        primary = OnlineStaticThreshold(0.0)
        fault_free = ResilientBroker(
            problem, primary=OnlineStaticThreshold(0.0)
        ).run()
        plan = FaultPlan(seed=2, utility=FaultSpec(transient_rate=0.10))
        result = ResilientBroker(
            problem,
            plan=plan,
            primary=primary,
            retry=RetryPolicy(max_attempts=5, jitter=0.0),
        ).run()
        assert result.resilience.retries > 0
        # Retries mask the faults almost completely.
        assert result.total_utility >= 0.9 * fault_free.total_utility

    def test_custom_chain_is_used(self, problem):
        chain = [FallbackTier(NearestVendor(), problem=problem)]
        result = ResilientBroker(problem, chain=chain).run()
        assert result.resilience.decisions_by_tier == {
            "NEAREST": len(problem.customers)
        }


class TestIdempotentCommit:
    def test_lost_acks_never_double_charge(self, problem):
        plan = FaultPlan(seed=3, commit=FaultSpec(duplicate_rate=0.8))
        result = ResilientBroker(
            problem, plan=plan, primary=OnlineStaticThreshold(0.0)
        ).run()
        stats = result.resilience
        assert stats.duplicates_suppressed > 0
        # Recompute vendor spend from the committed instances: it must
        # match the assignment's own ledger and respect every budget.
        spend = {}
        for instance in result.assignment:
            spend[instance.vendor_id] = (
                spend.get(instance.vendor_id, 0.0) + instance.cost
            )
        for vendor in problem.vendors:
            ledger = result.assignment.spend_for_vendor(vendor.vendor_id)
            assert ledger == pytest.approx(
                spend.get(vendor.vendor_id, 0.0)
            )
            assert ledger <= vendor.budget + 1e-9
        assert validate_assignment(problem, result.assignment).ok

    def test_duplicate_free_run_with_same_seed_has_same_utility(self, problem):
        # Lost acks cause re-deliveries but never change what was sold.
        base = ResilientBroker(
            problem, plan=FaultPlan(seed=3),
            primary=OnlineStaticThreshold(0.0),
        ).run()
        noisy = ResilientBroker(
            problem,
            plan=FaultPlan(seed=3, commit=FaultSpec(duplicate_rate=0.8)),
            primary=OnlineStaticThreshold(0.0),
        ).run()
        assert noisy.total_utility == pytest.approx(base.total_utility)

    def test_commit_transients_can_lose_deliveries_but_not_consistency(
        self, problem
    ):
        plan = FaultPlan(seed=5, commit=FaultSpec(transient_rate=0.6))
        result = ResilientBroker(
            problem,
            plan=plan,
            primary=OnlineStaticThreshold(0.0),
            retry=RetryPolicy(max_attempts=2, jitter=0.0),
        ).run()
        assert result.resilience.deliveries_failed > 0
        assert validate_assignment(problem, result.assignment).ok


class TestStreamPerturbation:
    def test_dropped_arrivals_are_counted_not_served(self, problem):
        plan = FaultPlan(seed=6, drop_rate=0.3)
        result = ResilientBroker(
            problem, plan=plan, primary=OnlineStaticThreshold(0.0)
        ).run()
        stats = result.resilience
        assert stats.arrivals_dropped > 0
        assert len(result.latencies) == (
            len(problem.customers) - stats.arrivals_dropped
        )

    def test_reordered_arrivals_still_validate(self, problem):
        plan = FaultPlan(seed=6, reorder_rate=0.4)
        result = ResilientBroker(
            problem, plan=plan, primary=OnlineStaticThreshold(0.0)
        ).run()
        assert result.resilience.arrivals_reordered > 0
        assert result.rejected_instances == 0
        assert validate_assignment(problem, result.assignment).ok


class TestDeadlines:
    def test_latency_spikes_plus_deadline_lose_customers(self, problem):
        clock = SimulatedClock()
        plan = FaultPlan(
            seed=7,
            utility=FaultSpec(
                latency_spike_rate=0.5, latency_spike_seconds=0.2
            ),
        )
        result = ResilientBroker(
            problem,
            plan=plan,
            primary=OnlineStaticThreshold(0.0),
            clock=clock,
            decision_deadline=0.1,
        ).run()
        assert result.customers_lost > 0
        # Deterministic: the same run loses the same customers.
        again = ResilientBroker(
            problem,
            plan=plan,
            primary=OnlineStaticThreshold(0.0),
            clock=SimulatedClock(),
            decision_deadline=0.1,
        ).run()
        assert again.customers_lost == result.customers_lost

    def test_degraded_latencies_capture_fault_conditioned_tail(self, problem):
        plan = FaultPlan(
            seed=7,
            utility=FaultSpec(
                latency_spike_rate=0.3, latency_spike_seconds=0.05
            ),
        )
        result = ResilientBroker(
            problem, plan=plan, primary=OnlineStaticThreshold(0.0)
        ).run()
        stats = result.resilience
        assert stats.degraded_latencies
        assert stats.clean_latencies
        assert max(stats.degraded_latencies) > max(stats.clean_latencies)
