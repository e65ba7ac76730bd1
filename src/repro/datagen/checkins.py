"""Foursquare-like check-in simulation and check-in -> MUAA conversion.

The paper's real workload is the Tokyo Foursquare check-in dataset of
Yang et al. [27]: 573,703 check-ins of 2,293 users over 61,858 venues,
restricted to venues with at least 10 check-ins (441,060 check-ins over
7,222 venues); every check-in becomes one customer and every retained
venue one vendor.  That dataset is not redistributable here, so
:func:`simulate_checkins` produces a statistically similar synthetic
feed with the same schema:

* Zipf-distributed venue popularity (a few venues absorb most traffic);
* venues clustered in Gaussian "neighbourhoods" in the unit square;
* users with a handful of preferred categories;
* check-in hours drawn from the venue category's diurnal activity.

:func:`problem_from_checkins` then applies exactly the paper's
methodology to either simulated or real (loaded) records.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.entities import Customer, Vendor
from repro.core.problem import MUAAProblem
from repro.datagen.config import WorkloadConfig, default_ad_types
from repro.taxonomy.foursquare import foursquare_taxonomy
from repro.taxonomy.interest import interest_vector, vendor_vector
from repro.taxonomy.tree import Taxonomy
from repro.utility.activity import ActivityModel
from repro.utility.model import TaxonomyUtilityModel

#: Paper's venue filter: keep venues with at least this many check-ins.
MIN_VENUE_CHECKINS = 10


@dataclass(frozen=True)
class CheckinRecord:
    """One check-in event (the schema of the Foursquare dataset [27]).

    Attributes:
        user_id: The checking-in user.
        venue_id: The venue.
        category: The venue's category tag.
        location: Venue location, already mapped into the unit square.
        hour: Check-in time-of-day in hours ``[0, 24)`` (the paper
            folds timestamps modulo 24 hours).
    """

    user_id: int
    venue_id: int
    category: str
    location: Tuple[float, float]
    hour: float


@dataclass(frozen=True)
class CheckinDataset:
    """A check-in feed plus the taxonomy its categories live in."""

    records: Tuple[CheckinRecord, ...]
    taxonomy: Taxonomy

    @property
    def n_users(self) -> int:
        """Number of distinct users."""
        return len({r.user_id for r in self.records})

    @property
    def n_venues(self) -> int:
        """Number of distinct venues."""
        return len({r.venue_id for r in self.records})


def simulate_checkins(
    n_users: int = 500,
    n_venues: int = 800,
    n_checkins: int = 20_000,
    n_clusters: int = 8,
    cluster_std: float = 0.06,
    zipf_exponent: float = 1.1,
    categories_per_user: Tuple[int, int] = (2, 6),
    taxonomy: Optional[Taxonomy] = None,
    seed: int = 11,
) -> CheckinDataset:
    """Simulate a Foursquare-like check-in feed.

    Args:
        n_users: Distinct users.
        n_venues: Distinct venues.
        n_checkins: Total check-in events.
        n_clusters: Gaussian neighbourhood centres for venue locations.
        cluster_std: Spatial spread of each neighbourhood.
        zipf_exponent: Venue popularity skew (>1; larger = more skewed).
        categories_per_user: Range of preferred categories per user.
        taxonomy: Tag taxonomy (built-in Foursquare tree by default).
        seed: RNG seed.

    Returns:
        The simulated dataset.
    """
    taxonomy = taxonomy or foursquare_taxonomy()
    rng = np.random.default_rng(seed)
    leaves = taxonomy.leaves()
    activity = ActivityModel.diurnal(taxonomy)

    # Venues: clustered locations, random categories, Zipf popularity.
    centres = rng.uniform(0.15, 0.85, size=(n_clusters, 2))
    venue_cluster = rng.integers(0, n_clusters, size=n_venues)
    venue_locations = np.clip(
        centres[venue_cluster] + rng.normal(0, cluster_std, size=(n_venues, 2)),
        0.0,
        1.0,
    )
    category_ranks = rng.permutation(len(leaves)) + 1
    category_popularity = 1.0 / category_ranks.astype(float)
    category_popularity /= category_popularity.sum()
    venue_categories = [
        leaves[int(i)]
        for i in rng.choice(len(leaves), size=n_venues, p=category_popularity)
    ]
    ranks = rng.permutation(n_venues) + 1
    popularity = 1.0 / ranks.astype(float) ** zipf_exponent

    # Users prefer a few categories; a venue is attractive to a user in
    # proportion to popularity, boosted strongly when on-category.
    lo, hi = categories_per_user
    user_categories = [
        set(
            rng.choice(
                len(leaves),
                size=int(rng.integers(lo, hi + 1)),
                replace=False,
                p=category_popularity,
            ).tolist()
        )
        for _ in range(n_users)
    ]
    category_index = {name: k for k, name in enumerate(leaves)}

    # Per-category hour sampler: rejection sampling against the diurnal
    # activity curve, pre-tabulated on a half-hour grid.
    grid = np.arange(0.0, 24.0, 0.5)
    category_hour_weights = {}
    for name in leaves:
        weights = np.array([activity.activity(name, h) for h in grid])
        category_hour_weights[name] = weights / weights.sum()

    records: List[CheckinRecord] = []
    users = rng.integers(0, n_users, size=n_checkins)
    for event in range(n_checkins):
        user = int(users[event])
        weights = popularity.copy()
        # Vectorised category boost would need an (n_users, n_venues)
        # table; sampling a preferred category first is cheaper and
        # produces the same marginal behaviour.
        if user_categories[user] and rng.random() < 0.8:
            preferred = leaves[
                int(rng.choice(sorted(user_categories[user])))
            ]
            mask = np.array(
                [c == preferred for c in venue_categories], dtype=bool
            )
            if mask.any():
                weights = np.where(mask, weights, 0.0)
        total = weights.sum()
        if total <= 0:
            weights = popularity
            total = weights.sum()
        venue = int(rng.choice(n_venues, p=weights / total))
        category = venue_categories[venue]
        hour_bucket = rng.choice(len(grid), p=category_hour_weights[category])
        hour = float(grid[hour_bucket] + rng.uniform(0.0, 0.5))
        records.append(
            CheckinRecord(
                user_id=user,
                venue_id=venue,
                category=category,
                location=(
                    float(venue_locations[venue, 0]),
                    float(venue_locations[venue, 1]),
                ),
                hour=hour % 24.0,
            )
        )
    return CheckinDataset(records=tuple(records), taxonomy=taxonomy)


def _kept_venues(dataset: CheckinDataset, min_venue_checkins: int) -> List[int]:
    """Venue ids passing the paper's check-in count filter, sorted."""
    venue_counts = Counter(r.venue_id for r in dataset.records)
    return sorted(
        vid for vid, count in venue_counts.items()
        if count >= min_venue_checkins
    )


def _venue_vendors(
    dataset: CheckinDataset,
    kept_venues: List[int],
    config: WorkloadConfig,
    rng: np.random.Generator,
) -> List[Vendor]:
    """One vendor per kept venue, at the venue's location and tagged
    with its category; budgets, then radii, are drawn from ``rng``."""
    budgets = config.budget_range.sample(rng, len(kept_venues))
    radii = config.radius_range.sample(rng, len(kept_venues))
    kept_set = set(kept_venues)
    venue_meta: Dict[int, CheckinRecord] = {}
    for record in dataset.records:
        if record.venue_id in kept_set and record.venue_id not in venue_meta:
            venue_meta[record.venue_id] = record
    return [
        Vendor(
            vendor_id=index,
            location=venue_meta[vid].location,
            radius=float(radii[index]),
            budget=float(budgets[index]),
            tags=vendor_vector(dataset.taxonomy, venue_meta[vid].category),
        )
        for index, vid in enumerate(kept_venues)
    ]


def _jittered(
    location: Tuple[float, float], offset: np.ndarray
) -> Tuple[float, float]:
    """A venue location offset into the venue's neighbourhood, clipped
    to the unit square."""
    return (
        float(min(1.0, max(0.0, location[0] + offset[0]))),
        float(min(1.0, max(0.0, location[1] + offset[1]))),
    )


def _checkin_problem(
    customers: List[Customer],
    vendors: List[Vendor],
    taxonomy: Taxonomy,
    diurnal: bool,
) -> MUAAProblem:
    """The MUAA instance over converted check-ins, with the diurnal (or
    uniform) activity model driving utilities."""
    activity = (
        ActivityModel.diurnal(taxonomy) if diurnal
        else ActivityModel.uniform(taxonomy)
    )
    return MUAAProblem(
        customers=customers,
        vendors=vendors,
        ad_types=list(default_ad_types()),
        utility_model=TaxonomyUtilityModel(activity),
    )


def problem_from_checkins(
    dataset: CheckinDataset,
    config: Optional[WorkloadConfig] = None,
    min_venue_checkins: int = MIN_VENUE_CHECKINS,
    max_customers: Optional[int] = None,
    max_vendors: Optional[int] = None,
    diurnal: bool = True,
    location_jitter: float = 0.02,
    seed: int = 13,
) -> MUAAProblem:
    """Build a MUAA instance from a check-in feed (paper methodology).

    Venues with at least ``min_venue_checkins`` check-ins become vendors
    (budget/radius sampled from ``config`` ranges); every check-in on a
    retained venue becomes one customer at the check-in's location and
    hour, with capacity and view probability sampled from ``config`` and
    the interest vector computed from the user's *entire* history via
    Eqs. 1-3.

    Args:
        dataset: The check-in feed (simulated or loaded).
        config: Source of the sampled parameter ranges.
        min_venue_checkins: The paper's venue filter (10).
        max_customers: Optional cap (subsample) on generated customers.
        max_vendors: Optional cap (subsample) on generated vendors.
        diurnal: Use the diurnal activity model for utilities.
        location_jitter: Gaussian noise added to customer locations.  A
            check-in's coordinates are the *venue's*, so without jitter
            a customer sits at distance exactly 0 from that vendor and
            the 1/d term of Eq. 4 degenerates; a small offset models
            the customer being near, not inside, the venue.
        seed: RNG seed for sampling and subsampling.

    Returns:
        The MUAA problem instance.
    """
    config = config or WorkloadConfig()
    taxonomy = dataset.taxonomy
    rng = np.random.default_rng(seed)

    kept_venues = _kept_venues(dataset, min_venue_checkins)
    if max_vendors is not None and len(kept_venues) > max_vendors:
        picks = rng.choice(len(kept_venues), size=max_vendors, replace=False)
        kept_venues = sorted(kept_venues[i] for i in picks)
    kept_set = set(kept_venues)

    kept_records = [r for r in dataset.records if r.venue_id in kept_set]
    if max_customers is not None and len(kept_records) > max_customers:
        picks = rng.choice(len(kept_records), size=max_customers, replace=False)
        kept_records = [kept_records[i] for i in sorted(picks)]

    # Interest vectors per user from the full history (all records).
    histories: Dict[int, Counter] = defaultdict(Counter)
    for record in dataset.records:
        histories[record.user_id][record.category] += 1
    user_vectors: Dict[int, np.ndarray] = {
        user: interest_vector(taxonomy, dict(history))
        for user, history in histories.items()
    }

    vendors = _venue_vendors(dataset, kept_venues, config, rng)

    m = len(kept_records)
    capacities = config.capacity_range.sample_int(rng, m)
    probabilities = config.probability_range.sample(rng, m)
    jitter = rng.normal(0.0, location_jitter, size=(m, 2))
    customers = [
        Customer(
            customer_id=i,
            location=_jittered(record.location, jitter[i]),
            capacity=int(max(1, capacities[i])),
            view_probability=float(probabilities[i]),
            interests=user_vectors[record.user_id],
            arrival_time=record.hour,
        )
        for i, record in enumerate(kept_records)
    ]
    return _checkin_problem(customers, vendors, taxonomy, diurnal)
