"""RECON parallel/serial parity and the seed-only reconciliation order.

The tentpole contract: ``Reconciliation(jobs=N)`` produces assignments
byte-identical to the serial solver for every seed -- vendor batches
merge in vendor-id order and the random reconciliation order is a pure
function of the seed, never of pool scheduling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.recon import Reconciliation
from repro.core.validation import validate_assignment
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.parallel import HAVE_SHARED_MEMORY
from tests.conftest import random_tabular_problem

needs_shm = pytest.mark.skipif(
    not HAVE_SHARED_MEMORY,
    reason="platform lacks multiprocessing.shared_memory",
)

@pytest.fixture(autouse=True)
def _four_cpus(pin_cpus):
    # Parity tests must exercise *real* pools even on 1-CPU CI boxes, so
    # they pin four usable CPUs (deliberate oversubscription): ``jobs``
    # 2 and 3 then start 2 and 3 workers.
    pin_cpus(4)


def _signature(assignment):
    """A byte-exact, order-independent fingerprint of an assignment."""
    return sorted(
        (i.customer_id, i.vendor_id, i.type_id, i.utility, i.cost)
        for i in assignment
    )


def _crowded_problem(seed: int):
    """A tabular instance dense enough to force reconciliation."""
    return random_tabular_problem(
        seed=seed, n_customers=12, n_vendors=8, capacity=(1, 2),
        budget=(4.0, 8.0),
    )


@needs_shm
class TestVendorFanOutParity:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_byte_identical_across_seeds(self, seed):
        problem_a = _crowded_problem(seed)
        problem_b = _crowded_problem(seed)
        serial = Reconciliation(seed=seed).solve(problem_a)
        fanned = Reconciliation(
            seed=seed, jobs=2
        ).solve(problem_b)
        assert _signature(serial) == _signature(fanned)
        assert serial.total_utility == fanned.total_utility

    def test_taxonomy_model_parity(self):
        config = WorkloadConfig(
            n_customers=60, n_vendors=10,
            radius_range=ParameterRange(0.1, 0.2), seed=3,
        )
        serial = Reconciliation(seed=1).solve(synthetic_problem(config))
        fanned = Reconciliation(seed=1, jobs=3).solve(
            synthetic_problem(config)
        )
        assert _signature(serial) == _signature(fanned)

    def test_float32_engine_parity(self):
        # The compact engine stores budgets and costs as float32; both
        # paths must still build each vendor's MCKP from the entities'
        # float64 budgets and costs, so every per-vendor solution (and
        # its order) matches.
        config = WorkloadConfig(
            n_customers=300, n_vendors=30,
            radius_range=ParameterRange(0.1, 0.2), seed=4,
        )
        problem_a = synthetic_problem(config, dtype="float32")
        problem_b = synthetic_problem(config, dtype="float32")
        assert problem_a.acquire_engine().utilities().dtype == np.float32
        serial = Reconciliation(seed=4)
        fanned = Reconciliation(seed=4, jobs=2)
        per_vendor = fanned._parallel_vendor_solutions(problem_b)
        assert per_vendor is not None, "the pool declined"
        assert per_vendor == [
            serial._solve_single_vendor(problem_a, vendor)
            for vendor in problem_a.vendors
        ]
        assert _signature(serial.solve(problem_a)) == _signature(
            fanned.solve(problem_b)
        )

    @pytest.mark.parametrize("method", ["greedy-lp", "dp"])
    def test_parity_across_mckp_backends(self, method):
        problem_a = _crowded_problem(2)
        problem_b = _crowded_problem(2)
        serial = Reconciliation(mckp_method=method, seed=2).solve(problem_a)
        fanned = Reconciliation(
            mckp_method=method, seed=2, jobs=2
        ).solve(
            problem_b
        )
        assert _signature(serial) == _signature(fanned)

    def test_parallel_output_feasible(self):
        problem = _crowded_problem(4)
        assignment = Reconciliation(seed=4, jobs=2).solve(problem)
        assert validate_assignment(problem, assignment).ok


@needs_shm
class TestReconciliationOrderRegression:
    """Regression: the random reconciliation order derives from the seed
    alone.  Before the fix, the violated-customer list inherited dict
    insertion order from whatever produced the per-vendor solutions, so
    a pool could reorder the shuffle's input and change the output."""

    def test_random_order_identical_serial_vs_parallel(self):
        for seed in (0, 1, 7):
            serial = Reconciliation(
                seed=seed, violation_order="random"
            ).solve(_crowded_problem(11))
            fanned = Reconciliation(
                seed=seed, violation_order="random", jobs=3,
            ).solve(_crowded_problem(11))
            assert _signature(serial) == _signature(fanned)

    def test_same_seed_same_result(self):
        runs = [
            _signature(
                Reconciliation(seed=5, violation_order="random").solve(
                    _crowded_problem(11)
                )
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_reconciliation_actually_happened(self):
        # The regression test is vacuous unless capacities are violated.
        algorithm = Reconciliation(seed=0)
        algorithm.solve(_crowded_problem(11))
        assert algorithm.last_stats["violated_customers"] >= 1


class TestFallbacks:
    def test_jobs_1_is_the_serial_path(self):
        problem_a = _crowded_problem(3)
        problem_b = _crowded_problem(3)
        default = Reconciliation(seed=3).solve(problem_a)
        explicit = Reconciliation(seed=3, jobs=1).solve(problem_b)
        assert _signature(default) == _signature(explicit)

    def test_pool_decline_falls_back_serially(self, pin_cpus):
        # One usable CPU makes the pool decline; RECON must degrade to
        # the serial loop with identical output.
        pin_cpus(1)
        problem_a = _crowded_problem(6)
        problem_b = _crowded_problem(6)
        serial = Reconciliation(seed=6).solve(problem_a)
        fanned = Reconciliation(seed=6, jobs=2)
        assert fanned._parallel_vendor_solutions(problem_a) is None
        declined = fanned.solve(problem_b)
        assert _signature(serial) == _signature(declined)

    @needs_shm
    def test_worker_crash_falls_back_serially(self, monkeypatch):
        from repro.parallel import recon_workers

        def _boom(span):
            import os

            os._exit(13)

        monkeypatch.setattr(recon_workers, "solve_vendor_span", _boom)
        problem_a = _crowded_problem(8)
        problem_b = _crowded_problem(8)
        serial = Reconciliation(seed=8).solve(problem_a)
        crashed = Reconciliation(seed=8, jobs=2).solve(problem_b)
        assert _signature(serial) == _signature(crashed)
