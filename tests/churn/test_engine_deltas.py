"""Engine delta parity: spliced segments equal a cold rebuild.

The tentpole invariant -- after any sequence of vendor deltas, the
spliced vendor-major candidate table answers queries exactly as a
from-scratch rebuild on the same (mutated) problem object.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.churn import (
    KIND_INSERT,
    KIND_MIGRATE,
    ChurnEvent,
    seeded_vendor_churn,
)
from repro.core.assignment import COMMITTED, AdInstance
from tests.churn.conftest import fresh_vendor, make_problem, segments


class TestDeltaParity:
    def test_fifty_mixed_deltas_match_cold_rebuild(self):
        problem = make_problem(n_customers=300, n_vendors=40, seed=5)
        problem.acquire_engine().warm()
        schedule = seeded_vendor_churn(problem, 50, seed=9, n_ticks=50)
        for event in schedule.events:
            problem.apply_churn(event)
        assert problem.churn.epoch == 50
        spliced = segments(problem, problem.engine)
        inactive = set(problem.churn.inactive)
        problem.drop_engine()
        cold_engine = problem.acquire_engine()
        cold_engine.warm()
        cold = segments(problem, cold_engine)
        assert spliced.keys() == cold.keys()
        for vid, (cold_bases, cold_utilities) in cold.items():
            spliced_bases, spliced_utilities = spliced[vid]
            if vid in inactive:
                # The delta path splices deactivated vendors out; the
                # cold build keeps them and filters at scan time.
                assert len(spliced_bases) == 0
                continue
            assert np.array_equal(spliced_bases, cold_bases), vid
            assert np.array_equal(spliced_utilities, cold_utilities), vid

    def test_insert_splices_bitwise_equal_segment(self):
        problem = make_problem()
        engine = problem.acquire_engine()
        engine.warm()
        vendor = fresh_vendor(problem)
        assert problem.insert_vendor(vendor)
        spliced = segments(problem, problem.engine)[vendor.vendor_id]
        problem.drop_engine()
        cold_engine = problem.acquire_engine()
        cold_engine.warm()
        cold = segments(problem, cold_engine)[vendor.vendor_id]
        assert len(spliced[0]) > 0  # a real segment, not a no-op
        assert np.array_equal(spliced[0], cold[0])
        assert np.array_equal(spliced[1], cold[1])

    def test_retire_removes_segment_and_catalogue_row(self):
        problem = make_problem()
        problem.acquire_engine().warm()
        victim = problem.vendors[3].vendor_id
        before = problem.engine.num_edges
        seg = len(segments(problem, problem.engine)[victim][0])
        assert problem.retire_vendor(victim)
        assert victim not in problem.vendors_by_id
        assert problem.engine.num_edges == before - seg
        assert victim not in segments(problem, problem.engine)

    def test_deactivate_and_reactivate_round_trip(self):
        problem = make_problem()
        problem.acquire_engine().warm()
        victim = problem.vendors[5].vendor_id
        original = segments(problem, problem.engine)[victim]
        assert problem.deactivate_vendors([victim]) == 1
        assert len(segments(problem, problem.engine)[victim][0]) == 0
        assert victim in problem.churn.inactive
        assert problem.reactivate_vendors([victim]) == 1
        restored = segments(problem, problem.engine)[victim]
        assert np.array_equal(restored[0], original[0])
        assert np.array_equal(restored[1], original[1])


class TestIdempotency:
    def test_primitives_are_idempotent(self):
        problem = make_problem()
        problem.acquire_engine().warm()
        vendor = fresh_vendor(problem)
        assert problem.insert_vendor(vendor)
        edges = problem.engine.num_edges
        assert not problem.insert_vendor(vendor)  # present: no-op
        assert problem.engine.num_edges == edges
        assert not problem.retire_vendor(10_000)  # unknown: no-op
        victim = problem.vendors[0].vendor_id
        assert problem.deactivate_vendors([victim]) == 1
        assert problem.deactivate_vendors([victim]) == 0  # inactive: no-op

    def test_epoch_bumps_only_through_apply_churn(self):
        problem = make_problem()
        problem.insert_vendor(fresh_vendor(problem))
        problem.retire_vendor(problem.vendors[0].vendor_id)
        assert problem.churn.epoch == 0
        epoch = problem.apply_churn(
            ChurnEvent(kind=KIND_INSERT, vendor=fresh_vendor(problem, 1))
        )
        assert epoch == problem.churn.epoch == 1

    def test_migrate_requires_a_plan(self):
        problem = make_problem()
        with pytest.raises(ValueError):
            problem.apply_churn(
                ChurnEvent(kind=KIND_MIGRATE, src=0, dst=1)
            )


class TestAutoDeactivation:
    def test_exhausted_vendor_rides_on_the_assignment(self):
        problem = make_problem()
        vendor = problem.vendors[0]
        vid = vendor.vendor_id
        customer = problem.customers_by_id[
            problem.valid_customer_ids(vendor)[0]
        ]
        cheapest = min(problem.ad_types, key=lambda t: t.cost)
        instance = AdInstance(
            customer.customer_id, vid, cheapest.type_id, 1.0, cheapest.cost
        )
        # A commit leaving the cheapest ad affordable exhausts nothing.
        solvent = problem.new_assignment()
        assert solvent.commit(instance) == COMMITTED
        assert not solvent.exhausted
        # A commit leaving less than the cheapest ad exhausts the vendor
        # on this run's assignment only.
        assignment = problem.new_assignment()
        assignment._spend_per_vendor[vid] = (
            vendor.budget - cheapest.cost - problem.min_cost / 2
        )
        assert assignment.commit(instance) == COMMITTED
        assert assignment.exhausted == {vid}
        assert vid not in problem.churn.inactive
        base_skips = problem.churn.skips
        assert vid not in problem.valid_vendor_ids(customer, assignment)
        assert problem.churn.skips == base_skips + 1
        # Another run's assignment (or none) still scans the vendor.
        assert vid in problem.valid_vendor_ids(customer, solvent)
        assert vid in problem.valid_vendor_ids(customer)

    def test_inactive_vendors_skipped_by_candidate_scans(self):
        problem = make_problem()
        customer = problem.customers[0]
        full = problem.valid_vendor_ids(customer)
        assert full, "test customer needs candidates"
        victim = full[0]
        base_skips = problem.churn.skips
        problem.deactivate_vendors([victim])
        filtered = problem.valid_vendor_ids(customer)
        assert victim not in filtered
        assert set(filtered) == set(full) - {victim}
        assert problem.churn.skips > base_skips
