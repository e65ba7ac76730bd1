"""Churn acceptance gates: delta speedup and delta/cold parity.

Two measurements over the shared gate workload, emitted as
``BENCH_churn.json``:

* **Delta speedup** (enforced unconditionally -- a same-machine
  wall-clock *ratio*): applying a single vendor delta (insert or
  retire) to a warm 2000x200 engine must be at least
  ``SPEEDUP_GATE``x faster than rebuilding the engine cold.  This is
  the whole point of the incremental path: one vendor joining must not
  cost a full rebuild.
* **Cell migration** (counts enforced, time reported): one cell of a
  ``GATE_SHARDS``-shard gate plan moves between two warm shard views.  The
  moving vendors carry their scored segments, so the migration makes
  no customer-index build and no Eq. 4/5 kernel call, and each touched
  view's engine takes the whole move in one splice (2 splices).
* **Parity** (enforced unconditionally): after a seeded sequence of
  ``N_EVENTS`` mixed deltas (insert/retire/deactivate/migrate) the
  spliced state must match a cold rebuild exactly --

  - engine-level: per-vendor pair-base and utility segments of the
    spliced engine equal the cold-rebuilt engine's bitwise for every
    vendor (a cold build splices deactivated vendors out the same way);
  - stream-level: an O-AFA stream served against delta-spliced state
    equals the same stream served with a full cold rebuild after every
    event, within ``PARITY_TOL``, at 1 and ``GATE_SHARDS`` shards.

Run with ``pytest -q -s benchmarks/bench_churn.py``.
"""

from __future__ import annotations

import time

import numpy as np

import repro.core.problem as problem_mod
import repro.engine.engine as engine_mod
from benchmarks.harness import write_bench_json
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.churn import seeded_vendor_churn
from repro.core.entities import Vendor
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.sharding import ShardPlan
from repro.stream.simulator import OnlineSimulator

#: The shared gate workload (same shape as the cluster/sharding gates).
GATE_CONFIG = WorkloadConfig(
    n_customers=2_000,
    n_vendors=200,
    seed=42,
    radius_range=ParameterRange(0.15, 0.25),
)

#: Shards of the sharded parity stream.
GATE_SHARDS = 4

#: Smaller workload of the stream-parity sweep (50 cold rebuilds ride
#: in it, so the gate workload would be all rebuild time).
STREAM_CONFIG = WorkloadConfig(
    n_customers=600,
    n_vendors=80,
    seed=17,
    radius_range=ParameterRange(0.15, 0.25),
)

#: Mixed deltas in the parity sequences.
N_EVENTS = 50

#: A single vendor delta must beat a cold rebuild by this factor.
SPEEDUP_GATE = 10.0

#: Utility agreement between the delta and cold-rebuild streams.
PARITY_TOL = 1e-9

#: Cold-rebuild / delta timing repetitions (fastest kept).
REPEATS = 3


def _fresh_vendor(problem, offset: int) -> Vendor:
    """A join candidate inside the existing radius/budget envelope."""
    radii = sorted(v.radius for v in problem.vendors)
    budgets = sorted(v.budget for v in problem.vendors)
    donor = problem.vendors[offset % len(problem.vendors)]
    return Vendor(
        vendor_id=max(problem.vendors_by_id) + 1 + offset,
        location=(0.31 + 0.07 * offset, 0.57),
        radius=radii[len(radii) // 2],
        budget=budgets[len(budgets) // 2],
        tags=donor.tags,
    )


def _time_cold_rebuild(problem) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        problem.drop_engine()
        start = time.perf_counter()
        problem.acquire_engine().warm()
        best = min(best, time.perf_counter() - start)
    return best


def _time_single_delta(problem) -> float:
    """Fastest insert-then-retire round trip of one fresh vendor,
    halved (one delta), against the warm engine."""
    problem.acquire_engine().warm()
    best = float("inf")
    for rep in range(REPEATS):
        vendor = _fresh_vendor(problem, rep)
        start = time.perf_counter()
        problem.insert_vendor(vendor)
        problem.retire_vendor(vendor.vendor_id)
        best = min(best, (time.perf_counter() - start) / 2.0)
    return best


def _time_migration() -> dict:
    """Fastest single cell migration between two warm shard views (the
    busiest cell of shard 0 moves to shard 1), with the customer-index
    builds, Eq. 4/5 kernel calls and engine splices it made."""
    counts = {"customer_index_builds": 0, "kernel_calls": 0, "splices": 0}
    wrapped = (
        (problem_mod, "build_customer_index", "customer_index_builds"),
        (engine_mod, "_kernel_pair_bases", "kernel_calls"),
        (engine_mod.ComputeEngine, "apply_delta", "splices"),
    )
    best, moved = float("inf"), 0
    for _ in range(REPEATS):
        problem = synthetic_problem(GATE_CONFIG)
        plan = ShardPlan.build(problem, GATE_SHARDS)
        for shard in range(plan.n_shards):
            view = plan.problem_for(shard)
            view.warm_utilities()
            view.customer_index  # a warm view has its index
        by_cell = {}
        for vid in plan.vendor_ids(0):
            cell = plan.cell_of(problem.vendors_by_id[vid].location)
            by_cell[cell] = by_cell.get(cell, 0) + 1
        cell = max(sorted(by_cell), key=by_cell.__getitem__)
        originals = [getattr(module, name) for module, name, _ in wrapped]
        counts.update(dict.fromkeys(counts, 0))
        for (module, name, key), original in zip(wrapped, originals):

            def counted(*args, _key=key, _original=original, **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)

            setattr(module, name, counted)
        try:
            start = time.perf_counter()
            plan.migrate_cells([cell], src=0, dst=1)
            best = min(best, time.perf_counter() - start)
        finally:
            for (module, name, _), original in zip(wrapped, originals):
                setattr(module, name, original)
        moved = by_cell[cell]
    return {"seconds": best, "vendors_moved": moved, **counts}


def _segments(problem, engine):
    """vendor id -> ``(bases, utilities)`` segment slices, vendor-major."""
    starts = engine.edges.vendor_starts.tolist()
    bases = engine.pair_bases
    utilities = engine.utilities()
    return {
        vendor.vendor_id: (
            bases[starts[row] : starts[row + 1]],
            utilities[starts[row] : starts[row + 1]],
        )
        for row, vendor in enumerate(problem.vendors)
    }


def _engine_parity(problem) -> float:
    """Max |spliced - cold| over per-vendor segments after N_EVENTS
    deltas, every vendor compared (deactivated ones hold empty segments
    in both)."""
    problem.acquire_engine().warm()
    schedule = seeded_vendor_churn(
        problem, N_EVENTS, seed=GATE_CONFIG.seed, n_ticks=N_EVENTS
    )
    for event in schedule.events:
        problem.apply_churn(event)
    spliced_segments = {
        vid: (bases.copy(), utilities.copy())
        for vid, (bases, utilities) in _segments(
            problem, problem.engine
        ).items()
    }
    problem.drop_engine()
    cold = problem.acquire_engine()
    cold.warm()
    cold_segments = _segments(problem, cold)
    assert spliced_segments.keys() == cold_segments.keys()
    diff = 0.0
    for vid, (cold_bases, cold_utilities) in cold_segments.items():
        spliced_bases, spliced_utilities = spliced_segments[vid]
        assert len(spliced_bases) == len(cold_bases), (
            f"vendor {vid} segment size diverged: spliced "
            f"{len(spliced_bases)}, cold {len(cold_bases)}"
        )
        diff = max(
            diff,
            float(
                np.max(np.abs(cold_bases - spliced_bases), initial=0.0)
            ),
            float(
                np.max(
                    np.abs(cold_utilities - spliced_utilities),
                    initial=0.0,
                )
            ),
        )
    return diff


def _stream_pair(shards: int):
    """(delta_result, cold_result) for the stream-parity sweep."""

    def run(cold: bool):
        problem = synthetic_problem(STREAM_CONFIG)
        plan = (
            ShardPlan.build(problem, shards) if shards > 1 else None
        )
        schedule = seeded_vendor_churn(
            problem,
            N_EVENTS,
            seed=STREAM_CONFIG.seed,
            n_ticks=STREAM_CONFIG.n_customers,
            plan=plan,
        )
        algorithm = OnlineAdaptiveFactorAware(gamma_min=0.05, g=4.0)
        return OnlineSimulator(problem).run(
            algorithm,
            warm_engine=True,
            shard_plan=plan,
            churn=schedule,
            churn_cold_rebuild=cold,
            measure_latency=False,
        )

    return run(False), run(True)


def test_churn_gate():
    problem = synthetic_problem(GATE_CONFIG)
    cold_seconds = _time_cold_rebuild(problem)
    delta_seconds = _time_single_delta(problem)
    speedup = cold_seconds / delta_seconds if delta_seconds > 0 else 0.0
    print(
        f"[churn] cold rebuild {cold_seconds * 1e3:.2f}ms vs single "
        f"delta {delta_seconds * 1e3:.3f}ms -> {speedup:.1f}x "
        f"(gate {SPEEDUP_GATE}x)"
    )

    migration = _time_migration()
    print(
        f"[churn] cell migration of {migration['vendors_moved']} vendors "
        f"{migration['seconds'] * 1e3:.2f}ms, "
        f"{migration['customer_index_builds']} index builds, "
        f"{migration['kernel_calls']} kernel calls, "
        f"{migration['splices']} engine splices"
    )

    engine_diff = _engine_parity(problem)
    print(
        f"[churn] engine parity after {N_EVENTS} deltas: "
        f"max|spliced-cold|={engine_diff:.2e}"
    )

    stream = {}
    for shards in (1, GATE_SHARDS):
        delta, cold = _stream_pair(shards)
        diff = abs(delta.total_utility - cold.total_utility)
        stream[shards] = {
            "delta_utility": delta.total_utility,
            "cold_utility": cold.total_utility,
            "utility_diff": diff,
            "churn_epoch": delta.churn_epoch,
            "exhausted_skips": delta.exhausted_skips,
            "vendors_deactivated": delta.vendors_deactivated,
        }
        print(
            f"[churn] stream parity @ {shards} shard(s): "
            f"diff={diff:.2e} epoch={delta.churn_epoch} "
            f"skips={delta.exhausted_skips}"
        )

    write_bench_json(
        "churn",
        {
            "workload": {
                "n_customers": GATE_CONFIG.n_customers,
                "n_vendors": GATE_CONFIG.n_vendors,
                "seed": GATE_CONFIG.seed,
            },
            "stream_workload": {
                "n_customers": STREAM_CONFIG.n_customers,
                "n_vendors": STREAM_CONFIG.n_vendors,
                "seed": STREAM_CONFIG.seed,
            },
            "n_events": N_EVENTS,
            "speedup_gate": SPEEDUP_GATE,
            "parity_tolerance": PARITY_TOL,
            "delta": {
                "cold_rebuild_seconds": cold_seconds,
                "single_delta_seconds": delta_seconds,
                "speedup": speedup,
            },
            "migration": migration,
            "engine_parity_max_abs_diff": engine_diff,
            "stream_parity": {
                str(shards): payload for shards, payload in stream.items()
            },
        },
    )

    # Parity: unconditional (decisions are machine-independent).
    assert engine_diff == 0.0, (
        f"spliced engine diverges from cold rebuild by {engine_diff:.2e}"
    )
    for shards, payload in stream.items():
        assert payload["utility_diff"] <= PARITY_TOL, (
            f"delta stream diverges from cold-rebuild stream by "
            f"{payload['utility_diff']:.2e} at {shards} shard(s)"
        )
        assert payload["churn_epoch"] == N_EVENTS

    # Migration work: counts, so machine-independent.
    assert migration["customer_index_builds"] == 0
    assert migration["kernel_calls"] == 0
    # One engine splice per touched view (source and destination).
    assert migration["splices"] == 2

    # Speedup: a same-machine wall-clock ratio, so unconditional.
    assert speedup >= SPEEDUP_GATE, (
        f"single delta only {speedup:.1f}x faster than a cold rebuild "
        f"(gate {SPEEDUP_GATE}x)"
    )
