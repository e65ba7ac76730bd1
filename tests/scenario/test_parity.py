"""The hard parity gate: ``single-slot-static`` is the identity.

Under the default scenario every tier-1 output must be bitwise the
pre-scenario result -- realizing the scenario returns the *same*
problem object, forwards ``moves=None``, and therefore executes
exactly the code the stack ran before scenarios existed.  These tests
pin that across the offline solvers, the streaming members, the
replay-driven serve path, and the sharded (4-shard) variants.
"""

from __future__ import annotations

import pytest

from repro.algorithms.greedy import GreedyEfficiency
from repro.algorithms.lp_rounding import LPRounding
from repro.algorithms.recon import Reconciliation
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.experiments.runner import run_panel
from repro.scenario import DEFAULT_SCENARIO, SingleSlotStatic, get_scenario
from repro.datagen.synthetic import synthetic_problem

CONFIG = WorkloadConfig(
    n_customers=150,
    n_vendors=25,
    seed=11,
    radius_range=ParameterRange(0.05, 0.1),
)

SEED = 11


def _problem():
    return synthetic_problem(CONFIG)


def _fingerprint(assignment):
    return sorted(
        (i.customer_id, i.vendor_id, i.type_id, i.utility, i.cost)
        for i in assignment
    )


class TestRealizeIdentity:
    def test_same_object_no_moves(self):
        problem = _problem()
        before = list(problem.customers)
        run = SingleSlotStatic().realize(problem, SEED)
        assert run.problem is problem
        assert run.moves is None
        assert run.scenario == DEFAULT_SCENARIO
        assert problem.customers == before
        assert all(problem.holds(c) for c in before)

    def test_registry_default_is_single_slot_static(self):
        assert isinstance(get_scenario(DEFAULT_SCENARIO), SingleSlotStatic)


class TestOfflineSolverParity:
    @pytest.mark.parametrize(
        "make",
        [
            GreedyEfficiency,
            LPRounding,
            lambda: Reconciliation(seed=SEED),
        ],
        ids=["greedy", "lp-rounding", "recon"],
    )
    def test_bitwise(self, make):
        baseline = make().solve(_problem())
        scenario_problem = SingleSlotStatic().realize(_problem(), SEED).problem
        through = make().solve(scenario_problem)
        assert through.total_utility == baseline.total_utility
        assert _fingerprint(through) == _fingerprint(baseline)


class TestPanelParity:
    @pytest.mark.parametrize("shards", [1, 4], ids=["unsharded", "4-shard"])
    def test_full_panel_bitwise(self, shards):
        baseline = run_panel(_problem(), seed=SEED, shards=shards)
        run = SingleSlotStatic().realize(_problem(), SEED)
        through = run_panel(
            run.problem, seed=SEED, shards=shards, moves=run.moves
        )
        assert set(through) == set(baseline)
        for name in baseline:
            assert (
                through[name].total_utility == baseline[name].total_utility
            ), name
            assert _fingerprint(through[name].assignment) == _fingerprint(
                baseline[name].assignment
            ), name


class TestServeParity:
    @pytest.mark.parametrize("shards", [1, 4], ids=["unsharded", "4-shard"])
    def test_replay_bitwise(self, shards):
        from repro.algorithms.calibration import calibrate_from_problem
        from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
        from repro.resilience.clock import SimulatedClock
        from repro.serve import ReplayDriver, ServeConfig, build_schedule
        from repro.sharding import ShardPlan

        def episode(problem, moves):
            bounds = calibrate_from_problem(problem, seed=SEED)
            algorithm = OnlineAdaptiveFactorAware(
                gamma_min=bounds.gamma_min, g=bounds.g
            )
            plan = (
                ShardPlan.build(problem, shards) if shards > 1 else None
            )
            schedule = build_schedule(
                problem.customers, rate=500.0, seed=SEED
            )
            driver = ReplayDriver(
                problem,
                algorithm,
                ServeConfig(max_batch=8, queue_depth=64),
                shard_plan=plan,
                moves=moves,
                # A frozen cost clock charges every batch zero scoring
                # time, so shedding depends on the schedule alone, not
                # on how fast the host scores.
                cost_clock=SimulatedClock(),
            )
            result = driver.run(schedule)
            return result.utility, [
                (d.request_id, d.customer_id, d.status, d.instances)
                for d in result.decisions
            ]

        base_utility, base_decisions = episode(_problem(), None)
        run = SingleSlotStatic().realize(_problem(), SEED)
        utility, decisions = episode(run.problem, run.moves)
        assert utility == base_utility
        assert decisions == base_decisions
