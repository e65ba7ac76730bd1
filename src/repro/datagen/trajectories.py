"""Trajectory workloads from check-in sequences (scenario datagen).

The check-in converter (:func:`repro.datagen.checkins.
problem_from_checkins`) follows the paper and flattens every check-in
into an independent customer.  The trajectory converter keeps the
*sequence* instead: each user becomes **one** customer whose initial
position is their first check-in, and every later check-in becomes a
mid-stream relocation in a :class:`~repro.scenario.trajectory.
MoveSchedule` -- the AdCell-style evolving-location workload, driven by
the same simulated (or loaded) feed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.entities import Customer
from repro.core.problem import MUAAProblem
from repro.datagen.checkins import (
    MIN_VENUE_CHECKINS,
    CheckinDataset,
    _checkin_problem,
    _jittered,
    _kept_venues,
    _venue_vendors,
)
from repro.datagen.config import WorkloadConfig
from repro.scenario.trajectory import CustomerMove, MoveSchedule
from repro.taxonomy.interest import interest_vector

__all__ = ["trajectory_from_checkins"]


def trajectory_from_checkins(
    dataset: CheckinDataset,
    config: Optional[WorkloadConfig] = None,
    min_venue_checkins: int = MIN_VENUE_CHECKINS,
    max_users: Optional[int] = None,
    max_moves: Optional[int] = None,
    diurnal: bool = True,
    location_jitter: float = 0.02,
    seed: int = 13,
) -> Tuple[MUAAProblem, MoveSchedule]:
    """Build a MUAA instance plus move schedule from a check-in feed.

    Venues pass the paper's ``min_venue_checkins`` filter and become
    vendors exactly as in :func:`~repro.datagen.checkins.
    problem_from_checkins`.  Users with at least one retained check-in
    become customers at their *first* retained check-in's (jittered)
    location and hour; each later check-in in feed order becomes one
    :class:`~repro.scenario.trajectory.CustomerMove`, with all moves
    spread evenly over the arrival stream's tick range.

    Args:
        dataset: The check-in feed (simulated or loaded).
        config: Source of the sampled parameter ranges.
        min_venue_checkins: The paper's venue filter (10).
        max_users: Optional cap (subsample) on trajectory customers.
        max_moves: Optional cap on scheduled moves (earliest kept).
        diurnal: Use the diurnal activity model for utilities.
        location_jitter: Gaussian noise added to customer positions.
        seed: RNG seed for sampling and subsampling.

    Returns:
        ``(problem, move_schedule)``.
    """
    config = config or WorkloadConfig()
    taxonomy = dataset.taxonomy
    rng = np.random.default_rng(seed)

    kept_venues = _kept_venues(dataset, min_venue_checkins)
    kept_set = set(kept_venues)

    # Per-user retained check-in sequences, in feed order.
    sequences: Dict[int, List] = defaultdict(list)
    for record in dataset.records:
        if record.venue_id in kept_set:
            sequences[record.user_id].append(record)
    users = sorted(sequences)
    if max_users is not None and len(users) > max_users:
        picks = rng.choice(len(users), size=max_users, replace=False)
        users = sorted(users[i] for i in picks)

    # Interest vectors from the user's *entire* history (Eqs. 1-3),
    # matching the flat converter.
    histories: Dict[int, Counter] = defaultdict(Counter)
    for record in dataset.records:
        histories[record.user_id][record.category] += 1

    vendors = _venue_vendors(dataset, kept_venues, config, rng)

    m = len(users)
    capacities = config.capacity_range.sample_int(rng, m)
    probabilities = config.probability_range.sample(rng, m)
    start_jitter = rng.normal(0.0, location_jitter, size=(m, 2))
    customers = []
    later_visits: List[Tuple[int, Tuple[float, float]]] = []
    for row, user in enumerate(users):
        visits = sequences[user]
        first = visits[0]
        customers.append(
            Customer(
                customer_id=row,
                location=_jittered(first.location, start_jitter[row]),
                capacity=int(max(1, capacities[row])),
                view_probability=float(probabilities[row]),
                interests=interest_vector(taxonomy, dict(histories[user])),
                arrival_time=first.hour,
            )
        )
        for visit in visits[1:]:
            later_visits.append((row, visit.location))
    if max_moves is not None and len(later_visits) > max_moves:
        later_visits = later_visits[:max_moves]

    move_jitter = rng.normal(0.0, location_jitter, size=(len(later_visits), 2))
    schedule = MoveSchedule()
    n_moves = len(later_visits)
    for index, (row, location) in enumerate(later_visits):
        tick = max(1, ((index + 1) * m) // (n_moves + 1))
        schedule.add(
            CustomerMove(
                customer_id=row,
                location=_jittered(location, move_jitter[index]),
                tick=tick,
            )
        )

    return _checkin_problem(customers, vendors, taxonomy, diurnal), schedule
