"""Trajectory customers: mid-episode location moves.

AdCell (Alaei et al., arXiv:1112.5396) motivates customers whose cell
evolves over the episode.  A :class:`MoveSchedule` keys
:class:`CustomerMove` events by arrival tick -- the exact shape of
:class:`~repro.churn.ChurnSchedule`.  A move is run state: the
streaming layers keep each relocated customer's current entity for the
run (:meth:`MoveSchedule.relocate`) and pass it to routing, candidate
scans and scoring, which take the scalar path for an entity away from
the location the instance holds
(:meth:`~repro.core.problem.MUAAProblem.holds`).  The problem and the
shard plan are never touched, so they stay reusable across runs.

Moves are drawn from the dedicated ``"moves"`` seed stream
(:func:`repro.seeding.stream_rng`), so enabling trajectories never
shifts churn or chaos draws sharing the user seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.core.entities import Customer
from repro.core.problem import MUAAProblem
from repro.seeding import stream_rng

from repro.scenario.base import Scenario, ScenarioRun

__all__ = [
    "CustomerMove",
    "MoveSchedule",
    "TrajectoryScenario",
    "seeded_customer_moves",
]


@dataclass(frozen=True)
class CustomerMove:
    """One customer relocation, fired at arrival index ``tick``."""

    customer_id: int
    location: Tuple[float, float]
    tick: int


class MoveSchedule:
    """Customer moves keyed by the arrival tick at which they fire."""

    def __init__(self, moves: Iterable[CustomerMove] = ()) -> None:
        self._by_tick: Dict[int, List[CustomerMove]] = {}
        self._count = 0
        for move in moves:
            self.add(move)

    def add(self, move: CustomerMove) -> None:
        """Schedule one move at its ``tick``."""
        self._by_tick.setdefault(move.tick, []).append(move)
        self._count += 1

    def at(self, tick: int) -> Tuple[CustomerMove, ...]:
        """Moves scheduled to fire at one arrival index."""
        return tuple(self._by_tick.get(tick, ()))

    def relocate(
        self,
        tick: int,
        relocated: Dict[int, Customer],
        customers_by_id: Mapping[int, Customer],
    ) -> List[int]:
        """Apply the moves due at ``tick`` to one run's entities.

        ``relocated`` maps customer id to the customer's current entity
        in this run; a customer's first move starts from
        ``customers_by_id``.  Unknown ids and moves to the current
        location are skipped.  Returns the ids actually moved.
        """
        moved: List[int] = []
        for move in self._by_tick.get(tick, ()):
            cid = move.customer_id
            current = relocated.get(cid) or customers_by_id.get(cid)
            if current is None:
                continue
            location = (float(move.location[0]), float(move.location[1]))
            if location == tuple(current.location):
                continue
            relocated[cid] = replace(current, location=location)
            moved.append(cid)
        return moved

    @property
    def moves(self) -> Tuple[CustomerMove, ...]:
        """All moves, ordered by tick (stable within a tick)."""
        ordered: List[CustomerMove] = []
        for tick in sorted(self._by_tick):
            ordered.extend(self._by_tick[tick])
        return tuple(ordered)

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0


def seeded_customer_moves(
    problem: MUAAProblem,
    n_moves: int,
    seed: int,
    n_ticks: int,
    step: float = 0.1,
) -> MoveSchedule:
    """A deterministic random-walk move plan over the unit square.

    ``n_moves`` relocations are spread evenly over ``(0, n_ticks)``
    (the same tick spacing as :func:`repro.churn.seeded_vendor_churn`).
    Each picks a seeded customer and steps its location by a uniform
    offset in ``[-step, step]^2``, clipped to ``[0, 1]^2``.  All draws
    come from the dedicated ``"moves"`` stream of ``seed``.
    """
    rng = stream_rng(seed, "moves")
    customer_ids = [c.customer_id for c in problem.customers]
    if not customer_ids:
        raise ValueError("cannot build a move plan for a customer-less problem")
    # Track walked positions so consecutive moves of one customer chain.
    positions: Dict[int, Tuple[float, float]] = {
        c.customer_id: (float(c.location[0]), float(c.location[1]))
        for c in problem.customers
    }
    schedule = MoveSchedule()
    for index in range(n_moves):
        tick = max(1, ((index + 1) * n_ticks) // (n_moves + 1))
        customer_id = rng.choice(customer_ids)
        x, y = positions[customer_id]
        x = min(1.0, max(0.0, x + rng.uniform(-step, step)))
        y = min(1.0, max(0.0, y + rng.uniform(-step, step)))
        positions[customer_id] = (x, y)
        schedule.add(
            CustomerMove(customer_id=customer_id, location=(x, y), tick=tick)
        )
    return schedule


class TrajectoryScenario(Scenario):
    """Customers relocate mid-episode along seeded random walks.

    Args:
        move_fraction: Number of moves as a fraction of the customer
            count (one customer may move several times).
        step: Per-move walk step in unit-square coordinates.
    """

    name = "trajectory"
    description = (
        "Customers relocate mid-stream along seeded random walks; "
        "a relocated customer is scored at its current location."
    )

    def __init__(self, move_fraction: float = 0.25, step: float = 0.1) -> None:
        if move_fraction <= 0:
            raise ValueError(
                f"move_fraction must be positive, got {move_fraction}"
            )
        self.move_fraction = move_fraction
        self.step = step

    def realize(self, problem: MUAAProblem, seed: int) -> ScenarioRun:
        n = len(problem.customers)
        n_moves = max(1, int(n * self.move_fraction))
        moves = seeded_customer_moves(
            problem, n_moves=n_moves, seed=seed, n_ticks=n, step=self.step
        )
        return ScenarioRun(problem=problem, moves=moves, scenario=self.name)
