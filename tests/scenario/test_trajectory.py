"""Trajectory customers: move schedules, scalar scoring of relocated
entities, and an instance no move ever touches (so panel members stay
comparable)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.problem import MUAAProblem
from repro.datagen.checkins import simulate_checkins
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.datagen.trajectories import trajectory_from_checkins
from repro.experiments.runner import run_panel
from repro.scenario import (
    CustomerMove,
    MoveSchedule,
    TrajectoryScenario,
    seeded_customer_moves,
)
from repro.sharding import ShardPlan

CONFIG = WorkloadConfig(
    n_customers=100,
    n_vendors=20,
    seed=9,
    radius_range=ParameterRange(0.05, 0.1),
)

STREAMING = ("NEAREST", "ONLINE")


def _problem():
    return synthetic_problem(CONFIG)


class TestMoveSchedule:
    def test_add_and_at(self):
        schedule = MoveSchedule()
        assert not schedule
        schedule.add(CustomerMove(customer_id=1, location=(0.5, 0.5), tick=3))
        schedule.add(CustomerMove(customer_id=2, location=(0.1, 0.2), tick=3))
        assert len(schedule) == 2
        assert [m.customer_id for m in schedule.at(3)] == [1, 2]
        assert schedule.at(4) == ()

    def test_seeded_moves_deterministic(self):
        problem = _problem()
        a = seeded_customer_moves(problem, 20, seed=5, n_ticks=100)
        b = seeded_customer_moves(_problem(), 20, seed=5, n_ticks=100)
        assert [(m.customer_id, m.location, m.tick) for m in a.moves] == [
            (m.customer_id, m.location, m.tick) for m in b.moves
        ]
        c = seeded_customer_moves(_problem(), 20, seed=6, n_ticks=100)
        assert [(m.customer_id, m.location) for m in a.moves] != [
            (m.customer_id, m.location) for m in c.moves
        ]

    def test_moves_stay_in_unit_square(self):
        schedule = seeded_customer_moves(
            _problem(), 200, seed=5, n_ticks=100, step=0.5
        )
        for move in schedule.moves:
            assert 0.0 <= move.location[0] <= 1.0
            assert 0.0 <= move.location[1] <= 1.0


class TestMoveCustomer:
    def test_move_keeps_instance_and_gates_engine(self):
        problem = _problem()
        problem.warm_utilities()
        customer = problem.customers[0]
        cid = customer.customer_id
        relocated = {}
        schedule = MoveSchedule([CustomerMove(cid, (0.9, 0.9), tick=0)])
        assert schedule.relocate(0, relocated, problem.customers_by_id) == [
            cid
        ]
        moved = relocated[cid]
        assert moved.location == (0.9, 0.9)
        # The instance still holds the original entity; only the run's
        # map knows the move.
        assert problem.customers_by_id[cid] is customer
        assert problem.holds(customer) and not problem.holds(moved)
        # Engine rows were scored at the held location: the relocated
        # entity is scanned and scored on the scalar path instead.
        scalar = MUAAProblem(
            problem.customers, problem.vendors, problem.ad_types,
            problem.utility_model, use_engine=False,
        )
        vendor_ids = problem.valid_vendor_ids(moved)
        assert vendor_ids == scalar.valid_vendor_ids(moved)
        for vid in vendor_ids:
            assert problem.best_instance_for_pair(
                moved, vid
            ) == scalar.best_instance_for_pair(moved, vid)

    def test_scalar_pair_cache_rescores_a_relocated_entity(self):
        problem = _problem()
        model = problem.utility_model
        customer, vendor = next(
            (c, v)
            for c in problem.customers
            for v in problem.vendors
            if model.pair_base(c, v) > 0
        )
        moved = replace(customer, location=vendor.location)
        held = model.pair_base(customer, vendor)
        # Same ids, new location: the cached base must not be reused.
        fresh = _problem().utility_model.pair_base(moved, vendor)
        assert fresh != held
        assert model.pair_base(moved, vendor) == fresh
        assert model.pair_base(customer, vendor) == held

    def test_candidates_re_resolve_after_move(self):
        problem = _problem()
        problem.warm_utilities()
        customer = problem.customers[0]
        home = problem.valid_vendor_ids(customer)
        # Park the customer far outside every vendor's range ...
        relocated = {}
        MoveSchedule(
            [CustomerMove(customer.customer_id, (5.0, 5.0), tick=0)]
        ).relocate(0, relocated, problem.customers_by_id)
        assert problem.valid_vendor_ids(relocated[customer.customer_id]) == []
        # ... then bring them back: the entity is held again and its
        # candidates come back from the engine rows.
        MoveSchedule(
            [CustomerMove(customer.customer_id, customer.location, tick=0)]
        ).relocate(0, relocated, problem.customers_by_id)
        back = relocated[customer.customer_id]
        assert problem.holds(back)
        assert problem.valid_vendor_ids(back) == home

    def test_moves_chain_within_a_run(self):
        problem = _problem()
        cid = problem.customers[0].customer_id
        original = problem.customers_by_id[cid]
        schedule = MoveSchedule(
            [
                CustomerMove(cid, (0.2, 0.3), tick=0),
                CustomerMove(cid, (0.2, 0.3), tick=1),  # no-op
                CustomerMove(-1, (0.5, 0.5), tick=1),  # unknown id
                CustomerMove(cid, (0.4, 0.5), tick=2),
            ]
        )
        relocated = {}
        moved = [
            schedule.relocate(tick, relocated, problem.customers_by_id)
            for tick in range(3)
        ]
        assert moved == [[cid], [], [cid]]
        assert relocated[cid].location == (0.4, 0.5)
        assert relocated[cid].capacity == original.capacity
        assert problem.customers_by_id[cid] is original


class TestTrajectoryPanel:
    @pytest.mark.parametrize("shards", [1, 4], ids=["unsharded", "4-shard"])
    def test_repeatable_and_rolls_back(self, shards):
        problem = _problem()
        before = list(problem.customers)
        run = TrajectoryScenario(move_fraction=0.5).realize(problem, 9)
        assert run.moves is not None and len(run.moves) > 0
        first = run_panel(
            run.problem, algorithms=STREAMING, seed=9, shards=shards,
            moves=run.moves,
        )
        # Moves never reach the instance, so nothing needs rolling back.
        assert run.problem.customers == before
        second = run_panel(
            run.problem, algorithms=STREAMING, seed=9, shards=shards,
            moves=run.moves,
        )
        for name in STREAMING:
            assert first[name].total_utility == second[name].total_utility

    def test_moves_change_streaming_outcomes(self):
        problem = _problem()
        static = run_panel(problem, algorithms=STREAMING, seed=9)
        run = TrajectoryScenario(move_fraction=1.0).realize(problem, 9)
        moved = run_panel(
            run.problem, algorithms=STREAMING, seed=9, moves=run.moves
        )
        assert any(
            static[name].total_utility != moved[name].total_utility
            for name in STREAMING
        )


RELOCATED = WorkloadConfig(
    n_customers=300,
    n_vendors=30,
    seed=3,
    radius_range=ParameterRange(0.15, 0.25),
)


def _relocated_run(use_engine, shards, split):
    """Triples and utility of one trajectory run: the stream with a warm
    engine (``split=0``) or the replay driver at batch size ``split``."""
    from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
    from repro.serve import ReplayDriver, ServeConfig, build_schedule
    from repro.stream.simulator import OnlineSimulator

    base = synthetic_problem(RELOCATED)
    problem = MUAAProblem(
        base.customers, base.vendors, base.ad_types, base.utility_model,
        use_engine=use_engine,
    )
    moves = seeded_customer_moves(
        problem, 150, seed=3, n_ticks=len(problem.customers), step=0.1
    )
    plan = ShardPlan.build(problem, shards) if shards > 1 else None
    algorithm = OnlineAdaptiveFactorAware(gamma_min=0.05, g=4.0)
    if split == 0:
        result = OnlineSimulator(problem).run(
            algorithm, warm_engine=True, shard_plan=plan, moves=moves,
            measure_latency=False,
        )
        assignment = result.assignment
    else:
        driver = ReplayDriver(
            problem, algorithm,
            ServeConfig(max_batch=split, queue_depth=len(problem.customers)),
            shard_plan=plan, moves=moves,
        )
        driver.run(build_schedule(problem.customers, rate=2_000.0, seed=3))
        assignment = driver.scorer.assignment
    triples = sorted(
        (i.customer_id, i.vendor_id, i.type_id) for i in assignment
    )
    return triples, assignment.total_utility


class TestRelocatedScoring:
    """A relocated customer is scored at its current location on every
    path: engine-backed runs equal the scalar reference."""

    @pytest.mark.parametrize("shards", [1, 4], ids=["unsharded", "4-shard"])
    @pytest.mark.parametrize("split", [0, 1, 7], ids=["stream", "b1", "b7"])
    def test_engine_runs_match_scalar_reference(self, shards, split):
        triples, utility = _relocated_run(True, shards, split)
        reference, expected = _relocated_run(False, shards, split)
        assert triples == reference
        assert utility == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("shards", [1, 4], ids=["unsharded", "4-shard"])
    def test_stream_and_replay_agree(self, shards):
        assert _relocated_run(True, shards, 0) == _relocated_run(
            True, shards, 7
        )


class TestShardPlanMoves:
    def test_relocated_entity_routes_by_current_location(self):
        problem = _problem()
        plan = ShardPlan.build(problem, 4)
        customer = problem.customers[0]
        cid = customer.customer_id
        memberships = {
            c.customer_id: plan.shards_of_customer(c.customer_id)
            for c in problem.customers
        }
        # Move the customer onto a vendor of a shard it is no member of.
        vendor = next(
            v for v in problem.vendors
            if plan.shard_of_vendor[v.vendor_id] not in memberships[cid]
        )
        relocated = {}
        MoveSchedule([CustomerMove(cid, vendor.location, tick=0)]).relocate(
            0, relocated, problem.customers_by_id
        )
        moved = relocated[cid]
        # It routes as a customer first seen there would: same plan
        # layout over an instance holding the customer at that spot.
        twin = MUAAProblem(
            [moved if c.customer_id == cid else c for c in problem.customers],
            problem.vendors, problem.ad_types, problem.utility_model,
        )
        twin_plan = ShardPlan.from_metadata(twin, plan.to_metadata())
        assert plan.shard_of_vendor[vendor.vendor_id] in (
            twin_plan.shards_of_customer(cid)
        )
        assert plan.route(moved) == twin_plan.route(moved)
        # Routing is stateless: the plan's memberships never change.
        assert {
            c.customer_id: plan.shards_of_customer(c.customer_id)
            for c in problem.customers
        } == memberships


class TestTrajectoryDatagen:
    def test_checkin_feed_round_trip(self):
        feed = simulate_checkins(
            n_users=60, n_venues=120, n_checkins=3_000, seed=11
        )
        problem, schedule = trajectory_from_checkins(
            feed, max_users=40, max_moves=100, seed=11
        )
        assert len(problem.customers) <= 40
        assert len(schedule) <= 100
        ids = {c.customer_id for c in problem.customers}
        for move in schedule.moves:
            assert move.customer_id in ids
            assert 0.0 <= move.location[0] <= 1.0
            assert 0.0 <= move.location[1] <= 1.0
