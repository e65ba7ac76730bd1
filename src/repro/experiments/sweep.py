"""Parameter sweeps: vary one knob, run the panel at each point.

Matches the paper's methodology: "each time we vary one parameter,
while setting others to their default values" (Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from repro.core.problem import MUAAProblem
from repro.experiments.measures import Row
from repro.experiments.runner import PANEL, run_panel
from repro.parallel import parallel_map

#: A sweep point: (parameter label, problem factory).
SweepPoint = Tuple[str, Callable[[], MUAAProblem]]


@dataclass
class SweepResult:
    """All rows of one sweep, with shape-check helpers.

    Attributes:
        experiment: Experiment id (e.g. ``"fig7"``).
        rows: One row per (parameter point, algorithm).
    """

    experiment: str
    rows: List[Row] = field(default_factory=list)

    def algorithms(self) -> List[str]:
        """Distinct algorithm names, in first-seen order."""
        seen: List[str] = []
        for row in self.rows:
            if row.algorithm not in seen:
                seen.append(row.algorithm)
        return seen

    def parameters(self) -> List[str]:
        """Distinct parameter labels, in first-seen order."""
        seen: List[str] = []
        for row in self.rows:
            if row.parameter not in seen:
                seen.append(row.parameter)
        return seen


# ----------------------------------------------------------------------
# Parallel point fan-out (worker state inherited via fork)
# ----------------------------------------------------------------------
#: Worker-process state set by :func:`_init_sweep_worker`.
_SWEEP_STATE = None


def _init_sweep_worker(
    experiment: str,
    points: Sequence[SweepPoint],
    algorithms: Sequence[str],
    seed: int,
    mckp_method: str,
    shards: int,
) -> None:
    global _SWEEP_STATE
    _SWEEP_STATE = (experiment, list(points), tuple(algorithms), seed,
                    mckp_method, shards)


def _run_sweep_point(index: int) -> List[Row]:
    """Run the whole panel at one sweep point, returning its rows.

    The point's problem is constructed inside the task and garbage-
    collected when the task returns, preserving the serial path's
    release-memory-between-points behaviour (each worker holds at most
    one point's instance at a time).
    """
    assert _SWEEP_STATE is not None, "sweep worker initializer did not run"
    experiment, points, algorithms, seed, mckp_method, shards = _SWEEP_STATE
    label, factory = points[index]
    problem = factory()
    panel_results = run_panel(
        problem, algorithms=algorithms, seed=seed, mckp_method=mckp_method,
        shards=shards,
    )
    return [
        Row.from_result(experiment, label, panel_results[name])
        for name in algorithms
    ]


def run_sweep(
    experiment: str,
    points: Sequence[SweepPoint],
    algorithms: Sequence[str] = PANEL,
    seed: int = 42,
    mckp_method: str = "greedy-lp",
    jobs: int = 1,
    shards: int = 1,
) -> SweepResult:
    """Run the algorithm panel at every sweep point.

    Each point's problem is constructed fresh by its factory (so memory
    for large instances is released between points) and calibrated
    independently.

    With ``jobs > 1``, sweep points run across worker processes
    (each worker builds, solves and releases its own point); with a
    single point the fan-out drops down to the panel's algorithm level
    instead, so ``points x algorithms`` cells are always what spreads
    across workers.  Per-point seeds are the same deterministic values
    the serial loop uses -- never derived from scheduling -- and rows
    are merged in ``(point, algorithm)`` order, so sweep output is
    identical to serial except for the measured wall-clock fields.

    Args:
        experiment: Id recorded on every row.
        points: ``(label, factory)`` pairs in presentation order.
        algorithms: Panel member names.
        seed: Seed shared across points for the stochastic members.
        mckp_method: MCKP backend for RECON.
        jobs: Worker processes (default 1, serial; ``<= 0`` means all
            CPUs).
        shards: Spatial shard count forwarded to every panel run
            (``1`` keeps every algorithm on its unsharded path).
    """
    result = SweepResult(experiment=experiment)
    fanned = parallel_map(
        _run_sweep_point,
        range(len(points)),
        jobs,
        initializer=_init_sweep_worker,
        initargs=(experiment, points, algorithms, seed, mckp_method, shards),
    )
    if fanned is not None:
        for rows in fanned:
            result.rows.extend(rows)
        return result
    point_jobs = jobs if len(points) == 1 else 1
    for label, factory in points:
        problem = factory()
        panel_results = run_panel(
            problem,
            algorithms=algorithms,
            seed=seed,
            mckp_method=mckp_method,
            jobs=point_jobs,
            shards=shards,
        )
        for name in algorithms:
            result.rows.append(
                Row.from_result(experiment, label, panel_results[name])
            )
    return result
