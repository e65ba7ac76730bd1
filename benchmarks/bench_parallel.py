"""Parallel-vs-serial benchmark and (conditional) CI speedup gate.

On the gate workload (2,000 customers x 200 vendors, ``dp`` MCKP
backend so per-vendor solves carry real weight) ``Reconciliation``
with 4 workers must (a) produce assignments **byte-identical** to the
serial solver and (b) finish the solve at least 2x faster.  The
speedup half of the gate is enforced only on machines with at least 4
CPUs -- a single-core runner cannot physically show a fan-out win, and
pretending otherwise would just make the benchmark flaky.  Identity is
enforced unconditionally, everywhere.

Alongside the RECON gate the benchmark records an identity-checked,
speed-informational measurement of the other fan-out layer: the
sweep-point fan of the experiment harness.  Everything is emitted to
``BENCH_parallel.json`` at the repo root, stamped with the CPU count
so the conditional gate is auditable from the artifact alone.

Run directly with ``pytest -q -s benchmarks/bench_parallel.py``.
"""

from __future__ import annotations

from benchmarks.harness import (
    StageTimer,
    best_of,
    sorted_triples,
    write_bench_json,
)
from repro.algorithms.recon import Reconciliation
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.experiments.sweep import run_sweep
from repro.parallel import available_cpus

#: The acceptance workload, shared with ``bench_engine.py``.
GATE_CONFIG = WorkloadConfig(
    n_customers=2_000,
    n_vendors=200,
    seed=42,
    radius_range=ParameterRange(0.15, 0.25),
)

#: Required RECON solve speedup at :data:`GATE_WORKERS` workers.
SPEEDUP_GATE = 2.0

#: Worker count of the gate measurement.
GATE_WORKERS = 4

#: Minimum CPUs for the speedup half of the gate to be enforceable.
MIN_GATE_CPUS = 4

#: MCKP backend of the gate: ``dp`` makes the per-vendor solves heavy
#: enough that fan-out wins dominate pool startup.
GATE_MCKP = "dp"

#: Fresh-problem repetitions per path (fastest total kept).
REPEATS = 3


def _build():
    problem = synthetic_problem(GATE_CONFIG)
    problem.warm_utilities()
    return problem


def _run_recon(jobs: int) -> dict:
    problem = _build()  # warm outside the timed region, like the harness
    timer = StageTimer()
    with timer.stage("solve"):
        assignment = Reconciliation(
            seed=GATE_CONFIG.seed, mckp_method=GATE_MCKP, jobs=jobs
        ).solve(problem)
    return {"timings": timer.timings, "assignment": assignment}


def _measure_recon() -> dict:
    serial = best_of(lambda: _run_recon(jobs=1), REPEATS)
    fanned = best_of(lambda: _run_recon(jobs=GATE_WORKERS), REPEATS)
    return {
        "n_customers": GATE_CONFIG.n_customers,
        "n_vendors": GATE_CONFIG.n_vendors,
        "mckp_method": GATE_MCKP,
        "workers": GATE_WORKERS,
        "serial": serial["timings"],
        "parallel": fanned["timings"],
        "speedup": (
            serial["timings"]["total_seconds"]
            / fanned["timings"]["total_seconds"]
        ),
        "identical": (
            sorted_triples(serial["assignment"])
            == sorted_triples(fanned["assignment"])
        ),
        "utility": fanned["assignment"].total_utility,
        "n_ads": len(fanned["assignment"]),
    }


def _measure_sweep() -> dict:
    """Sweep-point fan-out: informational timing, enforced identity."""

    def factory(n_customers, seed):
        def build():
            return synthetic_problem(
                WorkloadConfig(
                    n_customers=n_customers, n_vendors=40,
                    radius_range=ParameterRange(0.1, 0.2), seed=seed,
                )
            )

        return build

    points = [(f"m={m}", factory(m, 11)) for m in (200, 300, 400, 500)]
    algorithms = ("GREEDY", "RECON")

    timer = StageTimer()
    with timer.stage("serial"):
        serial = run_sweep("bench", points, algorithms=algorithms, seed=7)
    with timer.stage("parallel"):
        fanned = run_sweep(
            "bench", points, algorithms=algorithms, seed=7,
            jobs=GATE_WORKERS,
        )

    def keys(result):
        return [
            (r.parameter, r.algorithm, r.total_utility, r.n_instances)
            for r in result.rows
        ]

    timings = timer.timings
    return {
        "points": len(points),
        "algorithms": list(algorithms),
        "workers": GATE_WORKERS,
        "serial_seconds": timings["serial_seconds"],
        "parallel_seconds": timings["parallel_seconds"],
        "identical": keys(serial) == keys(fanned),
    }


def test_parallel_speedup_gate():
    cpu_count = available_cpus()
    gate_enforced = cpu_count >= MIN_GATE_CPUS

    recon = _measure_recon()
    sweep = _measure_sweep()

    print()
    print(
        f"[parallel] cpus={cpu_count} workers={GATE_WORKERS} "
        f"gate_enforced={gate_enforced}"
    )
    print(
        f"[parallel] recon  {recon['serial']['total_seconds']:8.3f}s -> "
        f"{recon['parallel']['total_seconds']:8.3f}s "
        f"({recon['speedup']:.2f}x) identical={recon['identical']}"
    )
    print(
        f"[parallel] sweep  {sweep['serial_seconds']:8.3f}s -> "
        f"{sweep['parallel_seconds']:8.3f}s identical={sweep['identical']}"
    )

    write_bench_json(
        "parallel",
        {
            "speedup_gate": SPEEDUP_GATE,
            "min_gate_cpus": MIN_GATE_CPUS,
            "gate_enforced": gate_enforced,
            "recon": recon,
            "sweep": sweep,
        },
    )

    # Identity is the unconditional half of the gate: every fan-out
    # layer must reproduce the serial results exactly, on any machine.
    assert recon["identical"], "parallel RECON diverged from serial"
    assert sweep["identical"], "parallel sweep rows diverged from serial"

    if gate_enforced:
        assert recon["speedup"] >= SPEEDUP_GATE, (
            f"RECON speedup {recon['speedup']:.2f}x at {GATE_WORKERS} "
            f"workers is below the {SPEEDUP_GATE:.0f}x gate "
            f"({cpu_count} CPUs)"
        )
    else:
        print(
            f"[parallel] speedup gate skipped: {cpu_count} < "
            f"{MIN_GATE_CPUS} CPUs (identity still enforced)"
        )
