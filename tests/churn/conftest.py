"""Shared builders for the churn suite.

Small instances, wide radii (every shard sees cross-cell traffic), and
seeded churn schedules -- the suite holds the delta path to the cold
rebuild at every layer.
"""

from __future__ import annotations

import numpy as np

from repro.core.entities import Vendor
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem


def make_problem(n_customers=160, n_vendors=32, seed=11):
    """A fresh synthetic instance (every call: fresh caches)."""
    return synthetic_problem(
        WorkloadConfig(
            n_customers=n_customers,
            n_vendors=n_vendors,
            seed=seed,
            radius_range=ParameterRange(0.15, 0.25),
        )
    )


def fresh_vendor(problem, offset=0, location=(0.41, 0.57)):
    """A join candidate inside the existing radius/budget envelope."""
    radii = sorted(v.radius for v in problem.vendors)
    budgets = sorted(v.budget for v in problem.vendors)
    donor = problem.vendors[offset % len(problem.vendors)]
    return Vendor(
        vendor_id=max(v.vendor_id for v in problem.vendors) + 1 + offset,
        location=location,
        radius=radii[len(radii) // 2],
        budget=budgets[len(budgets) // 2],
        tags=donor.tags,
    )


def triples(assignment):
    """Order-independent identity fingerprint of an assignment."""
    return sorted(
        (inst.customer_id, inst.vendor_id, inst.type_id)
        for inst in assignment
    )


def segments(problem, engine):
    """vendor id -> ``(bases, utilities)`` slices, vendor-major."""
    starts = engine.edges.vendor_starts.tolist()
    bases = engine.pair_bases
    utilities = engine.utilities()
    return {
        vendor.vendor_id: (
            bases[starts[row] : starts[row + 1]].copy(),
            utilities[starts[row] : starts[row + 1]].copy(),
        )
        for row, vendor in enumerate(problem.vendors)
    }


def engine_state(view):
    """Everything a delta splices into a problem's engine, per vendor
    segment: customer order, pair bases, utilities and the entries of
    every built best-type level table; plus the cleared vendors and
    every customer's candidate adjacency."""
    engine = view.engine
    starts = engine.edges.vendor_starts.tolist()
    customer_ids = engine.arrays.customer_ids[engine.edges.customer_idx]
    bases, utilities = engine.pair_bases, engine.utilities()
    # Private: the level tables are spliced state a delta maintains.
    tables = {
        (by, level): table
        for by, per_level in engine._level_tables.items()
        for level, table in enumerate(per_level)
        if table is not None
    }
    per_vendor = {}
    for row, vendor in enumerate(view.vendors):
        lo, hi = starts[row], starts[row + 1]
        per_vendor[vendor.vendor_id] = (
            customer_ids[lo:hi],
            bases[lo:hi],
            utilities[lo:hi],
            {key: np.asarray(table[lo:hi]) for key, table in tables.items()},
        )
    return {
        "segments": per_vendor,
        "cleared": engine.cleared_vendors,
        "adjacency": {
            cid: engine.vendors_in_range(cid) for cid in view.customers_by_id
        },
    }


def assert_same_state(spliced, cold):
    """Bitwise equal engine states."""
    assert spliced["cleared"] == cold["cleared"]
    assert spliced["adjacency"] == cold["adjacency"]
    assert spliced["segments"].keys() == cold["segments"].keys()
    for vid, want in cold["segments"].items():
        got = spliced["segments"][vid]
        for got_col, want_col in zip(got[:3], want[:3]):
            assert np.array_equal(got_col, want_col), vid
        assert got[3].keys() == want[3].keys()
        for key in want[3]:
            assert np.array_equal(got[3][key], want[3][key]), (vid, key)


def cold_state(view):
    """The view's engine dropped, rebuilt from scratch and warmed."""
    view.drop_engine()
    view.acquire_engine().warm()
    return engine_state(view)
