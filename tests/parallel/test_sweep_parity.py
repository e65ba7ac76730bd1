"""Experiment harness fan-out: sweep/panel rows identical to serial."""

from __future__ import annotations

import pytest

from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.experiments import runner
from repro.experiments.runner import run_panel
from repro.experiments.sweep import run_sweep
from repro.parallel import HAVE_SHARED_MEMORY
from repro.scenario import TrajectoryScenario

needs_shm = pytest.mark.skipif(
    not HAVE_SHARED_MEMORY,
    reason="platform lacks multiprocessing.shared_memory",
)

ALGORITHMS = ("RANDOM", "NEAREST", "GREEDY", "RECON")


@pytest.fixture(autouse=True)
def _two_cpus(pin_cpus):
    # Real worker pools even on 1-CPU CI boxes (deliberate
    # oversubscription): ``jobs=2`` then starts two workers.
    pin_cpus(2)


def _factory(n_customers: int, seed: int):
    def build():
        return synthetic_problem(
            WorkloadConfig(
                n_customers=n_customers, n_vendors=8,
                radius_range=ParameterRange(0.1, 0.2), seed=seed,
            )
        )

    return build


def _points():
    return [
        ("n=40", _factory(40, 1)),
        ("n=60", _factory(60, 1)),
        ("n=80", _factory(80, 1)),
    ]


def _triples(result):
    return sorted(
        (i.customer_id, i.vendor_id, i.type_id) for i in result.assignment
    )


def _row_key(row):
    """Everything measured except real-time fields."""
    return (
        row.experiment, row.parameter, row.algorithm,
        row.total_utility, row.n_instances,
    )


@needs_shm
class TestSweepParity:
    def test_rows_identical_and_ordered(self):
        serial = run_sweep("t", _points(), algorithms=ALGORITHMS, seed=3)
        fanned = run_sweep(
            "t", _points(), algorithms=ALGORITHMS, seed=3,
            jobs=2,
        )
        assert [_row_key(r) for r in serial.rows] == \
            [_row_key(r) for r in fanned.rows]

    def test_single_point_fans_algorithms(self):
        # One sweep point: the fan-out drops to the algorithm level so
        # points x algorithms still spreads across workers.
        point = [("only", _factory(50, 2))]
        serial = run_sweep("t", point, algorithms=ALGORITHMS, seed=2)
        fanned = run_sweep(
            "t", point, algorithms=ALGORITHMS, seed=2,
            jobs=2,
        )
        assert [_row_key(r) for r in serial.rows] == \
            [_row_key(r) for r in fanned.rows]


@needs_shm
class TestPanelParity:
    def test_panel_results_identical(self):
        problem_a = _factory(60, 4)()
        problem_b = _factory(60, 4)()
        serial = run_panel(problem_a, algorithms=ALGORITHMS, seed=4)
        fanned = run_panel(
            problem_b, algorithms=ALGORITHMS, seed=4,
            jobs=2,
        )
        assert list(serial) == list(fanned)  # panel order preserved
        for name in ALGORITHMS:
            assert serial[name].total_utility == fanned[name].total_utility
            assert len(serial[name].assignment) == \
                len(fanned[name].assignment)

    def test_online_calibration_in_parent(self):
        # O-AFA calibrates up front in the parent; fan-out must not
        # change its result.
        problem_a = _factory(60, 5)()
        problem_b = _factory(60, 5)()
        serial = run_panel(problem_a, algorithms=("ONLINE",), seed=5)
        fanned = run_panel(
            problem_b, algorithms=("ONLINE", "GREEDY"), seed=5,
            jobs=2,
        )
        assert serial["ONLINE"].total_utility == \
            fanned["ONLINE"].total_utility

    def test_fans_out_with_move_schedule(self, monkeypatch):
        # Moves are run state that never touches the problem, so the
        # panel fans out and every streaming member follows the same
        # trajectory in its worker as in the serial run.
        real = runner.parallel_map
        calls = []

        def spy(*args, **kwargs):
            fanned = real(*args, **kwargs)
            calls.append(fanned is not None)
            return fanned

        monkeypatch.setattr(runner, "parallel_map", spy)
        problem = _factory(60, 6)()
        moves = TrajectoryScenario(move_fraction=1.0).realize(problem, 6).moves
        members = ("RANDOM", "NEAREST", "GREEDY", "ONLINE")
        static = run_panel(problem, algorithms=members, seed=6)
        serial = run_panel(problem, algorithms=members, seed=6, moves=moves)
        fanned = run_panel(
            problem, algorithms=members, seed=6, moves=moves,
            jobs=2,
        )
        assert calls == [True]
        assert any(
            _triples(static[name]) != _triples(serial[name])
            for name in ("NEAREST", "ONLINE")
        )
        assert list(serial) == list(fanned)
        for name in members:
            assert _triples(serial[name]) == _triples(fanned[name])
            assert serial[name].total_utility == fanned[name].total_utility


class TestSweepFallback:
    def test_pool_decline_matches_serial(self, pin_cpus):
        # One usable CPU makes the pool decline; the sweep must run its
        # serial loop with identical rows.
        pin_cpus(1)
        serial = run_sweep("t", _points()[:2], algorithms=("GREEDY",), seed=1)
        declined = run_sweep(
            "t", _points()[:2], algorithms=("GREEDY",), seed=1,
            jobs=2,
        )
        assert [_row_key(r) for r in serial.rows] == \
            [_row_key(r) for r in declined.rows]
