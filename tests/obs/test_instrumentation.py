"""Instrumented hot paths: determinism parity and merged worker lanes.

The subsystem's core contract: recording must never change results.
Solvers produce byte-identical assignments with a recorder installed
vs the no-op default, serial and parallel alike; a parallel RECON run
records spans from every worker process into distinct lanes of one
merged timeline.
"""

from __future__ import annotations

import pytest

from repro.algorithms.greedy import GreedyEfficiency
from repro.algorithms.nearest import NearestVendor
from repro.algorithms.recon import Reconciliation
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.obs.recorder import observed, recorder
from repro.parallel import HAVE_SHARED_MEMORY
from repro.stream.simulator import OnlineSimulator

needs_shm = pytest.mark.skipif(
    not HAVE_SHARED_MEMORY,
    reason="platform lacks multiprocessing.shared_memory",
)


@pytest.fixture
def four_cpus(pin_cpus):
    # Worker-lane tests need a real pool even on 1-CPU CI boxes; pinning
    # four usable CPUs oversubscribes deliberately.
    pin_cpus(4)


def _signature(assignment):
    """A byte-exact, order-independent fingerprint of an assignment."""
    return sorted(
        (i.customer_id, i.vendor_id, i.type_id, i.utility, i.cost)
        for i in assignment
    )


def _problem(seed: int = 11):
    return synthetic_problem(
        WorkloadConfig(
            n_customers=220,
            n_vendors=36,
            seed=seed,
            radius_range=ParameterRange(0.08, 0.15),
        )
    )


class TestDeterminismParity:
    def test_recon_serial_identical_with_recorder(self):
        baseline = Reconciliation(seed=3).solve(_problem())
        with observed():
            recorded = Reconciliation(seed=3).solve(_problem())
        assert _signature(recorded) == _signature(baseline)
        assert recorded.total_utility == baseline.total_utility

    @needs_shm
    @pytest.mark.usefixtures("four_cpus")
    def test_recon_parallel_identical_with_recorder(self):
        baseline = Reconciliation(seed=3).solve(_problem())
        with observed():
            recorded = Reconciliation(seed=3, jobs=4).solve(_problem())
        assert _signature(recorded) == _signature(baseline)

    def test_greedy_identical_with_recorder(self):
        baseline = GreedyEfficiency().solve(_problem())
        with observed():
            recorded = GreedyEfficiency().solve(_problem())
        assert _signature(recorded) == _signature(baseline)

    def test_stream_identical_with_recorder(self):
        plain = OnlineSimulator(_problem()).run(NearestVendor())
        with observed():
            recorded = OnlineSimulator(_problem()).run(NearestVendor())
        assert _signature(recorded.assignment) == _signature(
            plain.assignment
        )
        assert recorded.rejected_instances == plain.rejected_instances

    def test_recorder_restored_after_solves(self):
        with observed():
            Reconciliation(seed=3).solve(_problem())
        assert not recorder().enabled


class TestRecordedContent:
    def test_recon_serial_records_phase_spans(self):
        with observed() as rec:
            Reconciliation(seed=3).solve(_problem())
        names = {s.name for s in rec.all_spans}
        assert {"recon.vendor_mckp", "recon.vendor",
                "recon.reconcile"} <= names
        counters = rec.metrics.snapshot()["counters"]
        assert "recon.violated_customers" in counters
        assert "recon.replacement_ads" in counters

    @needs_shm
    @pytest.mark.usefixtures("four_cpus")
    def test_parallel_recon_merges_worker_lanes(self):
        with observed() as rec:
            Reconciliation(seed=3, jobs=4).solve(_problem())
        lanes = {s.lane for s in rec.all_spans}
        worker_lanes = {lane for lane in lanes if lane.startswith("worker-")}
        assert "main" in lanes
        assert len(worker_lanes) >= 2, lanes
        # every vendor's MCKP span arrived, each on a worker lane
        vendor_spans = [
            s for s in rec.all_spans if s.name == "recon.vendor"
        ]
        problem = _problem()
        assert len(vendor_spans) == len(problem.vendors)
        assert {s.lane for s in vendor_spans} <= worker_lanes

    @needs_shm
    @pytest.mark.usefixtures("four_cpus")
    def test_parallel_trace_export_has_worker_threads(self, tmp_path):
        from repro.obs.summary import spans_from_chrome_trace

        with observed() as rec:
            Reconciliation(seed=3, jobs=4).solve(_problem())
        path = rec.write_trace(tmp_path / "trace.json")
        lanes = {s.lane for s in spans_from_chrome_trace(path)}
        assert "main" in lanes
        # How many workers get tasks depends on scheduling; the export
        # must keep every worker lane the recorder saw, and there is one.
        workers = {
            s.lane for s in rec.all_spans if s.lane.startswith("worker-")
        }
        assert workers
        assert workers <= lanes

    def test_stream_records_decision_spans_and_commits(self):
        problem = _problem()
        with observed() as rec:
            result = OnlineSimulator(problem).run(NearestVendor())
        decisions = [
            s for s in rec.all_spans if s.name == "stream.decision"
        ]
        assert len(decisions) == len(problem.customers)
        snap = rec.metrics.snapshot()
        assert snap["counters"].get("stream.budget_commits", 0.0) == float(
            len(result.assignment)
        )
        assert snap["histograms"]["stream.decision_seconds"]["count"] == len(
            problem.customers
        )

    def test_deadline_drops_are_counted(self):
        from repro.resilience.clock import SimulatedClock

        problem = _problem()
        clock = SimulatedClock()

        class SlowAlgorithm(NearestVendor):
            def process_customer(self, prob, customer, assignment):
                clock.advance(10.0)
                return super().process_customer(
                    prob, customer, assignment
                )

        with observed() as rec:
            result = OnlineSimulator(problem, clock=clock).run(
                SlowAlgorithm(), decision_deadline=1.0
            )
        assert result.customers_lost == len(problem.customers)
        counters = rec.metrics.snapshot()["counters"]
        assert counters["stream.deadline_drops"] == float(
            len(problem.customers)
        )


class TestBrokerInstrumentation:
    def test_broker_records_decisions_and_resilience_events(self):
        from repro.resilience.broker import ResilientBroker
        from repro.resilience.faults import FaultPlan, FaultSpec

        problem = _problem(seed=5)
        plan = FaultPlan(
            seed=2,
            utility=FaultSpec(transient_rate=0.3),
        )
        with observed() as rec:
            ResilientBroker(problem, plan=plan).run()
        names = {s.name for s in rec.all_spans}
        assert "broker.decision" in names
        assert "resilience.retry" in names
        counters = rec.metrics.snapshot()["counters"]
        assert counters.get("resilience.retries", 0.0) > 0

    def test_breaker_transitions_land_on_the_timeline(self):
        from repro.resilience.clock import SimulatedClock
        from repro.resilience.policy import CircuitBreaker

        clock = SimulatedClock()
        with observed() as rec:
            breaker = CircuitBreaker(
                "utility", clock, failure_threshold=2
            )
            breaker.record_failure()
            breaker.record_failure()  # trips open
        events = [
            s for s in rec.all_spans
            if s.name == "resilience.breaker_transition"
        ]
        assert len(events) == 1
        assert events[0].args["from_state"] == "closed"
        assert events[0].args["to_state"] == "open"
        counters = rec.metrics.snapshot()["counters"]
        assert counters["resilience.breaker_transitions"] == 1.0
