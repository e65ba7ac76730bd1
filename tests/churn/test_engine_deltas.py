"""Engine delta parity: spliced segments equal a cold rebuild.

The tentpole invariant -- after any sequence of vendor deltas, the
spliced vendor-major candidate table answers queries exactly as a
from-scratch rebuild on the same (mutated) problem object.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.greedy import GreedyEfficiency
from repro.algorithms.recon import Reconciliation
from repro.churn import (
    KIND_INSERT,
    KIND_MIGRATE,
    ChurnEvent,
    seeded_vendor_churn,
)
from repro.core.assignment import COMMITTED, AdInstance
from repro.core.problem import MUAAProblem
from tests.churn.conftest import (
    assert_same_state,
    cold_state,
    engine_state,
    fresh_vendor,
    make_problem,
    segments,
    triples,
)


class TestDeltaParity:
    def test_fifty_mixed_deltas_match_cold_rebuild(self):
        # The full engine state -- segments, level tables, cleared
        # vendors, adjacency -- with no exception for deactivations.
        for backend in ("grid", "kdtree"):
            base = make_problem(n_customers=300, n_vendors=40, seed=5)
            problem = MUAAProblem(
                base.customers, base.vendors, base.ad_types,
                base.utility_model, spatial_backend=backend,
            )
            problem.acquire_engine().warm()
            schedule = seeded_vendor_churn(problem, 50, seed=9, n_ticks=50)
            for event in schedule.events:
                problem.apply_churn(event)
            assert problem.churn.epoch == 50
            assert problem.churn.inactive, "the schedule must deactivate"
            spliced = engine_state(problem)
            assert spliced["cleared"] == problem.churn.inactive
            assert_same_state(spliced, cold_state(problem))

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

    def test_deactivate_then_cold_build_gives_equal_state(self):
        problem = make_problem()
        problem.acquire_engine().warm()
        victim = problem.vendors[5].vendor_id
        in_range = problem.valid_customer_ids(problem.vendors_by_id[victim])
        assert problem.deactivate_vendors([victim]) == 1
        spliced = engine_state(problem)
        assert len(spliced["segments"][victim][0]) == 0
        assert spliced["cleared"] == {victim}
        for cid in in_range:  # still listed, so scans count the skip
            assert victim in spliced["adjacency"][cid]
        assert_same_state(spliced, cold_state(problem))


class TestDeactivatedVendorsEverywhere:
    """Deactivated vendors are out of every candidate set, whenever the
    engine was built and with no engine at all."""

    DORMANT = (12, 15, 2)

    def _problem(self, way):
        base = make_problem()
        problem = MUAAProblem(
            base.customers, base.vendors, base.ad_types, base.utility_model,
            use_engine=way != "scalar",
        )
        if way == "warm_before":
            problem.acquire_engine().warm()
        assert problem.deactivate_vendors(self.DORMANT) == len(self.DORMANT)
        if way == "built_after":
            problem.acquire_engine().warm()
        return problem

    @pytest.mark.parametrize(
        "solver", [GreedyEfficiency, Reconciliation], ids=["greedy", "recon"]
    )
    def test_offline_solvers_agree_on_build_timing(self, solver):
        runs = {}
        for way in ("warm_before", "built_after", "scalar"):
            problem = self._problem(way)
            assert all(
                vid not in self.DORMANT for _, vid in problem.valid_pairs()
            )
            assert all(
                inst.vendor_id not in self.DORMANT
                for inst in problem.candidate_instances()
            )
            runs[way] = triples(solver().solve(problem))
        assert runs["warm_before"], "the solver must place ads"
        assert runs["built_after"] == runs["warm_before"]
        assert runs["scalar"] == runs["warm_before"]
        assert all(vid not in self.DORMANT for _, vid, _ in runs["scalar"])

    def test_skip_counts_do_not_depend_on_build_timing(self):
        skips = []
        for warm in (True, False):
            problem = make_problem()
            engine = problem.acquire_engine()
            if warm:
                engine.warm()
            else:
                engine.pair_bases  # edges and bases, no adjacency yet
            victim = self.DORMANT[0]
            in_range = problem.valid_customer_ids(
                problem.vendors_by_id[victim]
            )
            problem.deactivate_vendors([victim])
            before = problem.churn.skips
            for cid in in_range:
                customer = problem.customers_by_id[cid]
                assert victim not in problem.valid_vendor_ids(customer)
            skips.append(problem.churn.skips - before)
        assert skips[0] == skips[1] == len(in_range) > 0


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
