"""Tests of the benchmark itself: its output checker must reject each
kind of infeasible or misreported assignment, and every workload must
run end to end at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from oracle import check_assignment

run.import_program()

import workloads  # noqa: E402
from repro.core.assignment import AdInstance  # noqa: E402
from repro.core.entities import AdType, Customer, Vendor  # noqa: E402


class _LinearModel:
    """Eq. 4 stand-in: view probability times effectiveness."""

    def utility(self, customer, vendor, ad_type):
        return customer.view_probability * ad_type.effectiveness


TYPES = {
    0: AdType(type_id=0, name="text", cost=1.0, effectiveness=0.1),
    1: AdType(type_id=1, name="photo", cost=2.0, effectiveness=0.4),
}
CUSTOMERS = {
    0: Customer(0, (0.50, 0.50), capacity=1, view_probability=0.5),
    1: Customer(1, (0.51, 0.50), capacity=2, view_probability=0.3),
    2: Customer(2, (0.90, 0.90), capacity=1, view_probability=0.4),
}
VENDORS = {
    0: Vendor(0, (0.50, 0.51), radius=0.05, budget=3.0),
    1: Vendor(1, (0.52, 0.50), radius=0.05, budget=5.0),
}


def _ad(cid, vid, tid, utility=None, cost=None):
    model = _LinearModel()
    ad_type = TYPES[tid]
    if utility is None:
        utility = model.utility(CUSTOMERS[cid], VENDORS[vid], ad_type)
    return AdInstance(
        customer_id=cid, vendor_id=vid, type_id=tid, utility=utility,
        cost=ad_type.cost if cost is None else cost,
    )


def _check(instances, reported=None):
    if reported is None:
        reported = sum(i.utility for i in instances)
    return check_assignment(
        instances, CUSTOMERS, VENDORS, TYPES, _LinearModel(), reported
    )


def test_feasible_assignment_passes():
    assert _check([_ad(0, 0, 1), _ad(1, 0, 0), _ad(1, 1, 1)]) == []


@pytest.mark.parametrize(
    "instances, expected",
    [
        # Vendor 0 (budget 3) pays 2 + 2.
        ([_ad(0, 0, 1), _ad(1, 0, 1)], "over budget"),
        # Customer 2 is far outside both radii.
        ([_ad(2, 1, 0)], "outside radius"),
        # Customer 0 has capacity 1.
        ([_ad(0, 0, 0), _ad(0, 1, 0)], "over capacity"),
        # Two ads for the pair (1, 1).
        ([_ad(1, 1, 0), _ad(1, 1, 1)], "more than one ad"),
        # Utility off Eq. 4 by one part in a million.
        ([_ad(1, 1, 0, utility=0.03 * (1 + 1e-6))], "!= Eq. 4"),
        # Cost that is not the ad type's price.
        ([_ad(1, 1, 0, cost=0.5)], "is not the price"),
    ],
)
def test_infeasible_assignment_is_rejected(instances, expected):
    problems = _check(instances)
    assert any(expected in p for p in problems), problems


def test_misreported_total_is_rejected():
    instances = [_ad(0, 0, 1), _ad(1, 1, 1)]
    true_total = sum(i.utility for i in instances)
    assert _check(instances, reported=true_total) == []
    problems = _check(instances, reported=true_total * (1 + 1e-6))
    assert problems and "reported utility" in problems[0]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    result = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny",
    ])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = workloads.LAYER_UNITS if trace else run.END_TO_END
    assert list(result["metrics"]) == list(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """Beside only its own files the benchmark exits non-zero and
    prints no result."""
    shutil.copytree(
        run.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("runs", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline-plan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
