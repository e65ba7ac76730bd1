"""Running the standard algorithm panel on a MUAA instance.

The panel mirrors Section V-A's competitor list: RANDOM, NEAREST,
GREEDY, RECON and ONLINE (O-AFA).  O-AFA's :math:`\\gamma_{min}` and
``g`` are calibrated from a historical sample; by default the sample is
drawn from the instance itself (the reproducible stand-in for the
paper's "historical records").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import OfflineAlgorithm, SolveResult
from repro.algorithms.calibration import GammaBounds, calibrate_from_problem
from repro.algorithms.greedy import GreedyEfficiency
from repro.algorithms.nearest import NearestVendor
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.algorithms.random_baseline import RandomAssignment
from repro.algorithms.recon import Reconciliation
from repro.core.problem import MUAAProblem
from repro.parallel import ParallelConfig, parallel_map
from repro.stream.simulator import OnlineAsOffline

#: Panel names in the paper's presentation order.
PANEL = ("RANDOM", "NEAREST", "GREEDY", "RECON", "ONLINE")


def _safe_calibration(problem: MUAAProblem, seed: int) -> GammaBounds:
    """Calibrate from the instance, degrading gracefully when the
    sample has no positive-utility candidate (degenerate instances in
    tests): an accept-anything threshold is then the right behaviour."""
    try:
        return calibrate_from_problem(problem, seed=seed)
    except ValueError:
        from repro.algorithms.calibration import MIN_G

        return GammaBounds(gamma_min=1e-12, gamma_max=1e-12, g=MIN_G)


def build_panel(
    problem: MUAAProblem,
    algorithms: Sequence[str] = PANEL,
    seed: int = 42,
    calibration: Optional[GammaBounds] = None,
    mckp_method: str = "greedy-lp",
    shards: int = 1,
    shard_plan=None,
    moves=None,
) -> List[OfflineAlgorithm]:
    """Instantiate the named algorithms, calibrating O-AFA as needed.

    Args:
        problem: The instance (used only for O-AFA calibration and, when
            sharding, for building the shard plan).
        algorithms: Panel member names (subset of :data:`PANEL`).
        seed: Seed shared by the stochastic members.
        calibration: Pre-computed gamma bounds for O-AFA; computed from
            the instance when omitted.
        mckp_method: MCKP backend for RECON.
        shards: Spatial shard count; ``1`` (default) keeps every member
            on its unsharded path.  The plan is built once and shared:
            GREEDY and RECON solve shard-by-shard, the streaming members
            route each arrival to its shard's view.
        shard_plan: Pre-built :class:`~repro.sharding.ShardPlan` for
            ``problem``, overriding ``shards``.
        moves: Optional :class:`~repro.scenario.trajectory.MoveSchedule`
            forwarded to the streaming members (NEAREST, ONLINE); the
            offline members solve the static snapshot.  Moves are run
            state that never reaches the problem, so every member
            streams the same trajectory.

    Raises:
        ValueError: On an unknown algorithm name.
    """
    if shard_plan is None and shards > 1:
        from repro.sharding import resolve_plan

        shard_plan = resolve_plan(problem, shards)
    panel: List[OfflineAlgorithm] = []
    for name in algorithms:
        if name == "RANDOM":
            panel.append(RandomAssignment(seed=seed))
        elif name == "NEAREST":
            panel.append(
                OnlineAsOffline(
                    NearestVendor(), shard_plan=shard_plan, moves=moves
                )
            )
        elif name == "GREEDY":
            panel.append(GreedyEfficiency(shard_plan=shard_plan))
        elif name == "GREEDY-RESCAN":
            # The paper's literal O(N^2) formulation; identical output,
            # reproduces the paper's "GREEDY is the slowest" time curves.
            rescan = GreedyEfficiency(rescan=True)
            rescan.name = "GREEDY-RESCAN"
            panel.append(rescan)
        elif name == "RECON":
            panel.append(
                Reconciliation(
                    mckp_method=mckp_method,
                    seed=seed,
                    shard_plan=shard_plan,
                )
            )
        elif name == "ONLINE":
            bounds = calibration or _safe_calibration(problem, seed)
            panel.append(
                OnlineAsOffline(
                    OnlineAdaptiveFactorAware(
                        gamma_min=bounds.gamma_min, g=bounds.g
                    ),
                    shard_plan=shard_plan,
                    moves=moves,
                )
            )
        else:
            raise ValueError(f"unknown panel algorithm {name!r}")
    return panel


# ----------------------------------------------------------------------
# Parallel panel fan-out (worker state inherited via fork)
# ----------------------------------------------------------------------
#: Worker-process state set by :func:`_init_panel_worker`.
_PANEL_STATE: Optional[Tuple] = None


def _init_panel_worker(
    problem: MUAAProblem,
    seed: int,
    calibration: Optional[GammaBounds],
    mckp_method: str,
    shards: int,
) -> None:
    global _PANEL_STATE
    _PANEL_STATE = (problem, seed, calibration, mckp_method, shards)


def _run_panel_member(name: str) -> SolveResult:
    """Build and run one panel member against the inherited problem."""
    assert _PANEL_STATE is not None, "panel worker initializer did not run"
    problem, seed, calibration, mckp_method, shards = _PANEL_STATE
    algorithm = build_panel(
        problem, (name,), seed, calibration, mckp_method, shards
    )[0]
    return algorithm.run(problem)


def run_panel(
    problem: MUAAProblem,
    algorithms: Sequence[str] = PANEL,
    seed: int = 42,
    calibration: Optional[GammaBounds] = None,
    mckp_method: str = "greedy-lp",
    parallel: Optional[ParallelConfig] = None,
    shards: int = 1,
    shard_plan=None,
    moves=None,
) -> Dict[str, SolveResult]:
    """Run the panel and collect results keyed by algorithm name.

    Pair utilities are warmed (evaluated and cached) before timing
    starts, so the reported times compare the algorithms' assignment
    work rather than charging the shared Eq. 4/5 evaluation to whichever
    algorithm happens to touch a pair first.  When sharding is active
    the *global* warm-up is skipped -- building the whole candidate
    table is exactly what sharded members avoid; each member warms its
    own shards instead.

    With ``parallel`` active, panel members run in worker processes
    against the (already warmed) problem -- inherited copy-on-write
    under ``fork``, so nothing heavy is re-evaluated per member.  Every
    stochastic member derives its randomness from ``seed`` alone and
    results are merged in panel order, so assignments and utilities are
    identical to the serial run (wall-clock fields excepted, as they
    measure real time).  O-AFA's calibration always happens up front in
    the parent, exactly as in the serial path.  Only the shard *count*
    crosses the process boundary (plans hold problem views and are
    rebuilt per worker), so an explicit ``shard_plan`` keeps the run
    serial -- as does a ``moves`` schedule, which is not shipped to
    the workers.
    """
    sharded = shard_plan is not None or shards > 1
    if not sharded:
        problem.warm_utilities()
    if (
        shard_plan is None
        and moves is None
        and parallel is not None
        and parallel.active(len(algorithms))
    ):
        if calibration is None and "ONLINE" in algorithms:
            calibration = _safe_calibration(problem, seed)
        fanned = parallel_map(
            _run_panel_member,
            list(algorithms),
            parallel,
            initializer=_init_panel_worker,
            initargs=(problem, seed, calibration, mckp_method, shards),
        )
        if fanned is not None:
            return {
                result.algorithm: result
                for result in fanned
            }
    results: Dict[str, SolveResult] = {}
    for algorithm in build_panel(
        problem, algorithms, seed, calibration, mckp_method, shards,
        shard_plan, moves,
    ):
        results[algorithm.name] = algorithm.run(problem)
    return results
