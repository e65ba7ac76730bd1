"""Diurnal arrivals: resample customer timestamps from α_x(φ).

The synthetic generator draws ``arrival_time`` uniformly over the day,
which leaves the temporal activity model unused on the arrival side.
This scenario resamples every customer's timestamp from an intensity
curve derived from :math:`\\alpha_x(\\varphi)` -- by default the mean of
the built-in category profiles, so arrivals cluster at breakfast,
lunch, the commute, and the evening exactly where tag activity peaks.

The resample draws from the dedicated ``"diurnal"`` NumPy seed stream
(:func:`repro.seeding.stream_numpy_rng`); only ``arrival_time`` changes,
so utilities at a *fixed* hour are untouched while arrival *order* (and
hour-sensitive utility evaluation) follows the diurnal cycle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.problem import MUAAProblem
from repro.seeding import stream_numpy_rng
from repro.utility.activity import (
    DAY_HOURS,
    DEFAULT_CATEGORY_PROFILES,
    ActivityProfile,
)

from repro.scenario.base import Scenario, ScenarioRun

__all__ = [
    "DiurnalScenario",
    "diurnal_intensity",
    "sample_arrival_hours",
    "resample_arrival_times",
]

#: Half-hour sampling grid, matching the check-in generator's convention.
GRID_HOURS = 0.5


def diurnal_intensity(
    hours: Sequence[float],
    profiles: Optional[Sequence[ActivityProfile]] = None,
) -> np.ndarray:
    """Arrival intensity at each hour: mean activity over ``profiles``.

    Defaults to the built-in category profiles, i.e. the population-
    level activity curve of the default taxonomy.  Unnormalized --
    callers divide by the sum when they need sampling weights.
    """
    if profiles is None:
        profiles = tuple(DEFAULT_CATEGORY_PROFILES.values())
    rows = [
        [profile.activity(hour) for hour in hours] for profile in profiles
    ]
    return np.asarray(rows, dtype=np.float64).mean(axis=0)


def sample_arrival_hours(
    n: int,
    rng: np.random.Generator,
    profiles: Optional[Sequence[ActivityProfile]] = None,
) -> np.ndarray:
    """``n`` arrival hours drawn from the diurnal intensity curve.

    Weighted choice over the half-hour grid plus uniform jitter inside
    the chosen bin -- the same discretization the check-in generator
    uses, so grid artifacts match across datagen paths.
    """
    grid = np.arange(0.0, DAY_HOURS, GRID_HOURS)
    weights = diurnal_intensity(grid, profiles)
    weights = weights / weights.sum()
    bins = rng.choice(len(grid), size=n, p=weights)
    jitter = rng.uniform(0.0, GRID_HOURS, size=n)
    return grid[bins] + jitter


def resample_arrival_times(
    problem: MUAAProblem,
    seed: int,
    profiles: Optional[Sequence[ActivityProfile]] = None,
) -> MUAAProblem:
    """A new problem whose customers carry diurnal arrival times.

    Every other field of every entity -- and every configuration knob
    of the problem -- carries over unchanged.  Deterministic in
    ``seed`` via the dedicated ``"diurnal"`` stream.
    """
    from dataclasses import replace

    rng = stream_numpy_rng(seed, "diurnal")
    hours = sample_arrival_hours(len(problem.customers), rng, profiles)
    customers: List = [
        replace(customer, arrival_time=float(hour))
        for customer, hour in zip(problem.customers, hours)
    ]
    return MUAAProblem(
        customers=customers,
        vendors=problem.vendors,
        ad_types=problem.ad_types,
        utility_model=problem.utility_model,
        pair_validator=problem.pair_validator,
        spatial_backend=problem.spatial_backend,
        use_engine=problem._use_engine,
        dtype=problem.dtype_policy,
        slot_map=problem.slot_map,
    )


class DiurnalScenario(Scenario):
    """Arrival timestamps follow the α_x(φ) diurnal activity curve."""

    name = "diurnal"
    description = (
        "Customer arrival times resampled from the mean category "
        "activity curve, so load peaks where tag activity peaks."
    )

    def __init__(
        self, profiles: Optional[Sequence[ActivityProfile]] = None
    ) -> None:
        self.profiles = tuple(profiles) if profiles is not None else None

    def realize(self, problem: MUAAProblem, seed: int) -> ScenarioRun:
        return ScenarioRun(
            problem=resample_arrival_times(problem, seed, self.profiles),
            moves=None,
            scenario=self.name,
        )
