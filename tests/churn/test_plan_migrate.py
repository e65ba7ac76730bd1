"""Live resharding: online cell migration and metadata round-trips."""

from __future__ import annotations

import copy
import json

import pytest

import repro.core.problem as problem_mod
import repro.engine.engine as engine_mod
from repro.churn import KIND_DEACTIVATE, KIND_INSERT, KIND_RETIRE, ChurnEvent
from repro.core.problem import MUAAProblem
from repro.engine.sharded import ShardedEngine
from repro.exceptions import InvalidProblemError
from repro.scenario import CustomerMove, MoveSchedule
from repro.sharding import ShardPlan
from repro.sharding.plan import METADATA_SCHEMA_VERSION
from tests.churn.conftest import (
    assert_same_state,
    cold_state,
    engine_state,
    fresh_vendor,
    make_problem,
)
from tests.conftest import within_seconds


def _occupied_cell(problem, plan, shard):
    """A grid cell holding at least one of ``shard``'s vendors."""
    cells = sorted(
        {
            plan.cell_of(problem.vendors_by_id[vid].location)
            for vid in plan.vendor_ids(shard)
        }
    )
    assert cells, "shard needs at least one occupied cell"
    return cells[0]


class TestMigrateCells:
    def test_moved_customer_routed_to_emptied_shard(self):
        # Every vendor of shard 0 migrates away, so its resident view
        # holds no vendors (index on the fallback cell).  A customer
        # relocated out of its only shard's range is not routed there,
        # and a scan of the emptied view still returns at once.
        problem = make_problem()
        plan = ShardPlan.build(problem, 4)
        for shard in range(4):
            plan.problem_for(shard)
        cid = next(
            c.customer_id for c in problem.customers
            if plan.shards_of_customer(c.customer_id) == [0]
        )
        relocated = {}
        MoveSchedule([CustomerMove(cid, (0.0, 1.0), tick=0)]).relocate(
            0, relocated, problem.customers_by_id
        )
        customer = relocated[cid]
        cells = sorted(
            {
                plan.cell_of(problem.vendors_by_id[vid].location)
                for vid in plan.vendor_ids(0)
            }
        )
        plan.migrate_cells(cells, src=0, dst=1)
        assert not plan.vendor_ids(0)
        assert plan.route(customer) != 0
        emptied = plan.problem_for(0)
        with within_seconds(5):
            assert emptied.valid_vendor_ids(customer) == []
            assert emptied.valid_vendor_ids(problem.customers_by_id[cid]) == []

    def test_migration_moves_vendors_and_emits_paired_deltas(self):
        problem = make_problem()
        plan = ShardPlan.build(problem, 4)
        cell = _occupied_cell(problem, plan, 0)
        moved = [
            vid
            for vid in plan.vendor_ids(0)
            if plan.cell_of(problem.vendors_by_id[vid].location) == cell
        ]
        epoch_before = plan.epoch
        deltas = plan.migrate_cells([cell], src=0, dst=1)
        assert plan.epoch == epoch_before + 1
        assert [d.shard for d in deltas] == [0, 1]
        # One event, one epoch: both deltas carry the same stamp.
        assert deltas[0].epoch == deltas[1].epoch == plan.epoch
        assert sorted(deltas[0].retire) == sorted(moved)
        assert sorted(j.vendor.vendor_id for j in deltas[1].join) == sorted(
            moved
        )
        for vid in moved:
            assert plan.shard_of_vendor[vid] == 1
            assert vid in plan.vendor_ids(1)
            assert vid not in plan.vendor_ids(0)

    def test_migrated_vendors_remain_queryable_through_views(self):
        problem = make_problem()
        plan = ShardPlan.build(problem, 4)
        cell = _occupied_cell(problem, plan, 0)
        moved = [
            vid
            for vid in plan.vendor_ids(0)
            if plan.cell_of(problem.vendors_by_id[vid].location) == cell
        ]
        # Materialise both views first so the splice path is exercised.
        plan.problem_for(0).acquire_engine().warm()
        plan.problem_for(1).acquire_engine().warm()
        plan.migrate_cells([cell], src=0, dst=1)
        dst_view = plan.problem_for(1)
        for vid in moved:
            vendor = problem.vendors_by_id[vid]
            assert vid in dst_view.vendors_by_id
            for cid in problem.valid_customer_ids(vendor):
                assert cid in dst_view.customers_by_id

    def test_untouched_shards_are_not_rebuilt(self):
        problem = make_problem(n_customers=240, n_vendors=48, seed=7)
        plan = ShardPlan.build(problem, 4)
        engine = ShardedEngine.create(plan)
        engine.warm_all()
        builds_before = dict(engine.builds_by_shard)
        peak_before = engine.peak_resident_edges
        assert all(count == 1 for count in builds_before.values())
        cell = _occupied_cell(problem, plan, 0)
        plan.migrate_cells([cell], src=0, dst=1)
        # Resident views were spliced in place: re-touching every shard
        # must not construct a single new engine.
        for shard in range(plan.n_shards):
            assert engine.engine(shard) is not None
        assert engine.builds_by_shard == builds_before
        # Peak memory stays the resident total -- migration moves edges
        # between shards, it does not duplicate the table.
        assert engine.peak_resident_edges <= peak_before + max(
            plan.edge_counts()
        )

    def test_migration_rejected_on_identity_and_bad_shards(self):
        problem = make_problem()
        identity = ShardPlan.identity(problem)
        with pytest.raises(InvalidProblemError):
            identity.migrate_cells([(0, 0)], src=0, dst=1)
        plan = ShardPlan.build(problem, 2)
        with pytest.raises(InvalidProblemError):
            plan.migrate_cells([(0, 0)], src=0, dst=0)
        with pytest.raises(InvalidProblemError):
            plan.migrate_cells([(0, 0)], src=0, dst=9)

    def test_empty_cell_migration_still_ticks_the_epoch(self):
        problem = make_problem()
        plan = ShardPlan.build(problem, 2)
        deltas = plan.migrate_cells([(99, 99)], src=0, dst=1)
        assert deltas == []
        assert plan.epoch == 1


def _busiest_cell(problem, plan, shard):
    """``(cell, vendor ids)`` of the shard's cell holding most vendors."""
    by_cell = {}
    for vid in plan.vendor_ids(shard):
        cell = plan.cell_of(problem.vendors_by_id[vid].location)
        by_cell.setdefault(cell, []).append(vid)
    return max(sorted(by_cell.items()), key=lambda item: len(item[1]))


def _counting(monkeypatch, owner, name):
    """Record the first argument of every call to ``owner.name`` (the
    instance, for a method)."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestMigrationCarriesState:
    """A migration moves each vendor's scored segment between warm
    views: no customer-index rebuild, no re-scoring, and the result is
    bitwise a cold rebuild of the destination view."""

    def _warm_plan(self, backend):
        base = make_problem()
        problem = MUAAProblem(
            base.customers, base.vendors, base.ad_types,
            base.utility_model, spatial_backend=backend,
        )
        plan = ShardPlan.build(problem, 4)
        for shard in range(plan.n_shards):
            view = plan.problem_for(shard)
            view.warm_utilities()
            view.customer_index  # a warm view has its index
        return problem, plan

    @pytest.mark.parametrize("backend", ["grid", "kdtree"])
    @pytest.mark.parametrize("dormant", [False, True])
    def test_migration_matches_cold_rebuild(self, monkeypatch, backend, dormant):
        problem, plan = self._warm_plan(backend)
        cell, moved = _busiest_cell(problem, plan, 0)
        assert len(moved) > 1
        if dormant:
            # Mixed: one dormant vendor among live ones.
            plan.apply_churn(
                ChurnEvent(kind=KIND_DEACTIVATE, vendor_id=moved[0])
            )
        engines = [plan.problem_for(0).engine, plan.problem_for(1).engine]
        index_builds = _counting(monkeypatch, problem_mod, "build_customer_index")
        kernel_calls = _counting(monkeypatch, engine_mod, "_kernel_pair_bases")
        splices = _counting(
            monkeypatch, engine_mod.ComputeEngine, "apply_delta"
        )
        deltas = plan.migrate_cells([cell], src=0, dst=1)
        assert index_builds == []
        assert kernel_calls == []
        # One splice per touched view, whatever the number of vendors.
        assert len(splices) == 2
        assert all(got is want for got, want in zip(splices, engines))
        assert deltas[1].deactivate == (tuple(moved[:1]) if dormant else ())
        dst = plan.problem_for(1)
        for vid in moved:
            assert vid in dst.vendors_by_id
        spliced = engine_state(dst)
        if dormant:
            assert moved[0] in spliced["cleared"]
            assert len(spliced["segments"][moved[0]][0]) == 0
        monkeypatch.undo()
        assert_same_state(spliced, cold_state(dst))

    def test_deactivated_vendor_stays_dormant_after_migrating(self):
        problem = make_problem()
        plan = ShardPlan.build(problem, 4)
        for shard in range(plan.n_shards):
            plan.problem_for(shard)
        vid = plan.vendor_ids(0)[0]
        plan.apply_churn(ChurnEvent(kind=KIND_DEACTIVATE, vendor_id=vid))
        cell = plan.cell_of(problem.vendors_by_id[vid].location)
        plan.migrate_cells([cell], src=0, dst=1)
        assert vid in problem.churn.inactive
        dst = plan.problem_for(1)
        customer = problem.customers_by_id[
            problem.valid_customer_ids(problem.vendors_by_id[vid])[0]
        ]
        assert vid not in dst.valid_vendor_ids(customer)

    def test_worker_copy_matches_the_spliced_view(self):
        # A forked cluster worker holds a private copy of the view and
        # gets only the delta: no source engine, so it re-scores, and a
        # dormant vendor arrives dormant there too.
        problem, plan = self._warm_plan("grid")
        cell, moved = _busiest_cell(problem, plan, 0)
        plan.apply_churn(ChurnEvent(kind=KIND_DEACTIVATE, vendor_id=moved[0]))
        worker = copy.deepcopy(plan.problem_for(1))
        worker.churn.inactive.clear()  # forked before the deactivation
        _, dst_delta = plan.migrate_cells([cell], src=0, dst=1)
        worker.apply_delta(dst_delta)
        assert worker.churn.inactive == {moved[0]}
        view = plan.problem_for(1)
        assert [v.vendor_id for v in worker.vendors] == [
            v.vendor_id for v in view.vendors
        ]
        assert_same_state(engine_state(worker), engine_state(view))


class TestMetadataRoundTrip:
    def _churned_plan(self):
        problem = make_problem()
        plan = ShardPlan.build(problem, 4)
        plan.apply_churn(
            ChurnEvent(kind=KIND_INSERT, vendor=fresh_vendor(problem))
        )
        plan.apply_churn(
            ChurnEvent(
                kind=KIND_RETIRE, vendor_id=plan.vendor_ids(2)[0]
            )
        )
        plan.apply_churn(
            ChurnEvent(
                kind=KIND_DEACTIVATE, vendor_id=plan.vendor_ids(3)[0]
            )
        )
        cell = _occupied_cell(problem, plan, 0)
        plan.migrate_cells([cell], src=0, dst=1)
        return problem, plan

    def test_v2_round_trip_preserves_post_churn_partition(self):
        problem, plan = self._churned_plan()
        doc = json.loads(json.dumps(plan.to_metadata()))
        assert doc["schema_version"] == METADATA_SCHEMA_VERSION == 2
        assert doc["churn_epoch"] == plan.epoch == 4
        clone = ShardPlan.from_metadata(problem, doc)
        assert clone.epoch == plan.epoch
        assert clone.shard_of_vendor == plan.shard_of_vendor
        for shard in range(plan.n_shards):
            assert sorted(clone.vendor_ids(shard)) == sorted(
                plan.vendor_ids(shard)
            )
            assert sorted(clone.customer_ids(shard)) == sorted(
                plan.customer_ids(shard)
            )
        assert clone.to_metadata() == plan.to_metadata()

    def test_v1_documents_still_load_at_epoch_zero(self):
        problem = make_problem()
        plan = ShardPlan.build(problem, 2)
        doc = plan.to_metadata()
        legacy = {k: v for k, v in doc.items() if k != "churn_epoch"}
        legacy["schema_version"] = 1
        clone = ShardPlan.from_metadata(problem, legacy)
        assert clone.epoch == 0
        assert clone.shard_of_vendor == plan.shard_of_vendor

    def test_unknown_versions_rejected(self):
        problem = make_problem()
        doc = ShardPlan.build(problem, 2).to_metadata()
        with pytest.raises(InvalidProblemError):
            ShardPlan.from_metadata(problem, {**doc, "schema_version": 3})
