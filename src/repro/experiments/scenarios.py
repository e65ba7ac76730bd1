"""Scenario figure experiments (figures 9-11, beyond the paper).

One figure per scenario preset, following the shape of the paper's
figures so ``reproduce_all`` and the report/plot machinery pick them up
unchanged:

* :func:`fig9_slots`      -- multi-slot inventory: panel utility as the
  per-vendor slot count k grows (slot-expanded catalogues, total budget
  held constant);
* :func:`fig10_trajectory` -- trajectory customers: the streaming
  members (NEAREST, ONLINE) as the move count grows;
* :func:`fig11_diurnal`   -- diurnal arrivals: the full panel on
  uniform vs α_x(φ)-resampled arrival timestamps.

Each uses the synthetic generator so the workload shape is the only
variable, and realizes the registered scenario objects so the figures
exercise exactly what ``repro demo --scenario`` runs.
"""

from __future__ import annotations

from typing import Sequence

from repro.datagen.config import WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.experiments.measures import Row
from repro.experiments.runner import PANEL, run_panel
from repro.experiments.sweep import SweepResult, run_sweep
from repro.scenario import (
    DiurnalScenario,
    SingleSlotStatic,
    TrajectoryScenario,
    expand_problem,
)

#: Slot counts swept by figure 9 (k=1 is the flat baseline).
SLOT_SWEEP = (1, 2, 4)

#: Move fractions swept by figure 10 (0 is the static baseline).
MOVE_FRACTION_SWEEP = (0.0, 0.25, 0.5, 1.0)

#: The streaming subset of the panel (the members trajectories affect).
STREAMING_PANEL = ("NEAREST", "ONLINE")


def _base_config(scale: float, seed: int) -> WorkloadConfig:
    """The synthetic workload shared by the scenario figures."""
    return WorkloadConfig(
        n_customers=max(200, int(10_000 * scale)),
        n_vendors=max(40, int(500 * scale)),
        seed=seed,
    )


def fig9_slots(
    scale: float = 0.05,
    seed: int = 42,
    algorithms: Sequence[str] = PANEL,
    sweep: Sequence[int] = SLOT_SWEEP,
    jobs: int = 1,
    shards: int = 1,
) -> SweepResult:
    """Figure 9: effect of the per-vendor slot count k (multi-slot).

    Each point expands the same base instance into k slot-vendors per
    vendor (budget split evenly, so total spend capacity is constant);
    k=1 is the untransformed baseline.  More slots means finer budget
    granularity -- each slot exhausts independently -- at k times the
    vendor count.
    """
    config = _base_config(scale, seed)
    points = []
    for k in sweep:

        def factory(k=k, config=config):
            problem = synthetic_problem(config)
            if k <= 1:
                return problem
            return expand_problem(problem, k)

        points.append((f"k={k}", factory))
    return run_sweep(
        "fig9", points, algorithms=algorithms, seed=seed,
        jobs=jobs, shards=shards,
    )


def fig10_trajectory(
    scale: float = 0.05,
    seed: int = 42,
    algorithms: Sequence[str] = STREAMING_PANEL,
    sweep: Sequence[float] = MOVE_FRACTION_SWEEP,
    jobs: int = 1,
    shards: int = 1,
) -> SweepResult:
    """Figure 10: effect of trajectory moves on the streaming members.

    Sweeps the move count (as a fraction of the customer count); each
    point streams the *same* instance under a seeded random-walk move
    schedule.  Only streaming algorithms see moves -- offline members
    would solve the static snapshot -- so the default panel is the
    streaming subset.  Moves never reach the instance, so every member
    streams the identical trajectory.
    """
    config = _base_config(scale, seed)
    result = SweepResult(experiment="fig10")
    for fraction in sweep:
        problem = synthetic_problem(config)
        moves = None
        if fraction > 0:
            run = TrajectoryScenario(move_fraction=fraction).realize(
                problem, seed
            )
            moves = run.moves
        panel_results = run_panel(
            problem,
            algorithms=algorithms,
            seed=seed,
            jobs=jobs,
            shards=shards,
            moves=moves,
        )
        label = f"moves={fraction:g}"
        for name in algorithms:
            result.rows.append(
                Row.from_result("fig10", label, panel_results[name])
            )
    return result


def fig11_diurnal(
    scale: float = 0.05,
    seed: int = 42,
    algorithms: Sequence[str] = PANEL,
    sweep: Sequence[str] = ("uniform", "diurnal"),
    jobs: int = 1,
    shards: int = 1,
) -> SweepResult:
    """Figure 11: uniform vs diurnal (α_x(φ)-driven) arrival timestamps.

    The diurnal point resamples every customer's ``arrival_time`` from
    the mean category activity curve; arrival *order* and hour-
    sensitive utility evaluation both follow the curve, while the
    uniform point is the untransformed baseline.
    """
    config = _base_config(scale, seed)
    points = []
    for label in sweep:

        def factory(label=label, config=config):
            problem = synthetic_problem(config)
            if label == "uniform":
                return SingleSlotStatic().realize(problem, seed).problem
            return DiurnalScenario().realize(problem, seed).problem

        points.append((label, factory))
    return run_sweep(
        "fig11", points, algorithms=algorithms, seed=seed,
        jobs=jobs, shards=shards,
    )
