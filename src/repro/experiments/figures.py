"""Per-figure experiment definitions (Section V).

One function per figure of the paper's evaluation:

* :func:`fig3_budget`      -- effect of the vendor budget range (real-like)
* :func:`fig4_radius`      -- effect of the vendor radius range (real-like)
* :func:`fig5_capacity`    -- effect of the customer capacity range
  (real-like; the paper uses a vendor-heavy configuration here)
* :func:`fig6_probability` -- effect of the view-probability range (real-like)
* :func:`fig7_customers`   -- scalability in m (synthetic)
* :func:`fig8_vendors`     -- scalability in n (synthetic)

"Real-like" workloads are built from the simulated Foursquare-style
check-in feed through the paper's methodology (venue filter, check-ins
as customers); synthetic workloads use the Gaussian/Uniform generator.
Every function takes a ``scale`` factor so tests and benchmarks can run
the same experiment at laptop-friendly sizes; ``scale=1.0`` approximates
the paper's sizes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

from repro.datagen.checkins import CheckinDataset, problem_from_checkins, simulate_checkins
from repro.datagen.config import (
    BUDGET_SWEEP,
    CAPACITY_SWEEP,
    CUSTOMER_COUNT_SWEEP,
    PROBABILITY_SWEEP,
    RADIUS_SWEEP,
    VENDOR_COUNT_SWEEP,
    ParameterRange,
    WorkloadConfig,
)
from repro.datagen.synthetic import synthetic_problem
from repro.experiments.runner import PANEL
from repro.experiments.sweep import SweepResult, run_sweep

#: Paper-scale sizes for the real-like workload (Section V-A after the
#: venue filter: 441,060 customers / 7,222 vendors).  ``scale=1.0``
#: would be slow in pure Python, so callers typically pass 0.01-0.1.
PAPER_REAL_CUSTOMERS = 441_060
PAPER_REAL_VENDORS = 7_222

#: Base sizes of the simulated check-in feed at scale=1.0.
_FEED_USERS = 2_293
_FEED_VENUES = 20_000
_FEED_CHECKINS = 573_703


def _sizes(scale: float) -> Tuple[int, int, int, int, int]:
    """Feed and cap sizes for a given scale factor."""
    users = max(50, int(_FEED_USERS * scale))
    venues = max(100, int(_FEED_VENUES * scale))
    checkins = max(2_000, int(_FEED_CHECKINS * scale))
    max_customers = max(500, int(PAPER_REAL_CUSTOMERS * scale))
    max_vendors = max(50, int(PAPER_REAL_VENDORS * scale))
    return users, venues, checkins, max_customers, max_vendors


@lru_cache(maxsize=4)
def _shared_feed(scale: float, seed: int) -> CheckinDataset:
    """The check-in feed shared by the real-like figures (cached)."""
    users, venues, checkins, _mc, _mv = _sizes(scale)
    return simulate_checkins(
        n_users=users, n_venues=venues, n_checkins=checkins, seed=seed
    )


def _real_like_points(
    scale: float,
    seed: int,
    overrides_per_label: Sequence[Tuple[str, dict]],
    max_customers: Optional[int] = None,
    max_vendors: Optional[int] = None,
):
    """Sweep points over the shared check-in feed with config overrides."""
    _u, _v, _c, default_mc, default_mv = _sizes(scale)
    feed = _shared_feed(scale, seed)
    points = []
    for label, overrides in overrides_per_label:
        config = WorkloadConfig().with_overrides(**overrides)

        def factory(config=config):
            return problem_from_checkins(
                feed,
                config=config,
                max_customers=max_customers or default_mc,
                max_vendors=max_vendors or default_mv,
                seed=seed,
            )

        points.append((label, factory))
    return points


def _range_label(value: ParameterRange) -> str:
    low = int(value.low) if float(value.low).is_integer() else value.low
    high = int(value.high) if float(value.high).is_integer() else value.high
    return f"[{low},{high}]"


# ----------------------------------------------------------------------
# Real-like figures (3-6)
# ----------------------------------------------------------------------
def fig3_budget(
    scale: float = 0.01,
    seed: int = 42,
    algorithms: Sequence[str] = PANEL,
    sweep: Sequence[ParameterRange] = BUDGET_SWEEP,
    jobs: int = 1,
    shards: int = 1,
) -> SweepResult:
    """Figure 3: effect of the vendor budget range :math:`[B^-, B^+]`."""
    points = _real_like_points(
        scale,
        seed,
        [(_range_label(r), {"budget_range": r}) for r in sweep],
    )
    return run_sweep(
        "fig3", points, algorithms=algorithms, seed=seed,
        jobs=jobs, shards=shards,
    )


def fig4_radius(
    scale: float = 0.01,
    seed: int = 42,
    algorithms: Sequence[str] = PANEL,
    sweep: Sequence[ParameterRange] = RADIUS_SWEEP,
    jobs: int = 1,
    shards: int = 1,
) -> SweepResult:
    """Figure 4: effect of the vendor radius range :math:`[r^-, r^+]`."""
    points = _real_like_points(
        scale,
        seed,
        [(_range_label(r), {"radius_range": r}) for r in sweep],
    )
    return run_sweep(
        "fig4", points, algorithms=algorithms, seed=seed,
        jobs=jobs, shards=shards,
    )


def fig5_capacity(
    scale: float = 0.01,
    seed: int = 42,
    algorithms: Sequence[str] = PANEL,
    sweep: Sequence[ParameterRange] = CAPACITY_SWEEP,
    jobs: int = 1,
    shards: int = 1,
) -> SweepResult:
    """Figure 5: effect of the customer capacity range :math:`[a^-, a^+]`.

    The paper runs this with a vendor-heavy configuration (5,000
    vendors vs 500 customers) so capacities actually bind; scaled here
    to the same 10:1 ratio.
    """
    _u, _v, _c, default_mc, default_mv = _sizes(scale)
    vendor_heavy_vendors = max(100, default_mv)
    vendor_heavy_customers = max(50, vendor_heavy_vendors // 10)
    # The paper's 5,000-vendor configuration gives each customer on the
    # order of ten in-range vendors, which is what makes capacities
    # bind.  At scaled-down vendor counts the same regime is preserved
    # by widening the radius instead (documented in EXPERIMENTS.md).
    points = _real_like_points(
        scale,
        seed,
        [
            (
                _range_label(r),
                {
                    "capacity_range": r,
                    "radius_range": ParameterRange(0.08, 0.12),
                },
            )
            for r in sweep
        ],
        max_customers=vendor_heavy_customers,
        max_vendors=vendor_heavy_vendors,
    )
    return run_sweep(
        "fig5", points, algorithms=algorithms, seed=seed,
        jobs=jobs, shards=shards,
    )


def fig6_probability(
    scale: float = 0.01,
    seed: int = 42,
    algorithms: Sequence[str] = PANEL,
    sweep: Sequence[ParameterRange] = PROBABILITY_SWEEP,
    jobs: int = 1,
    shards: int = 1,
) -> SweepResult:
    """Figure 6: effect of the view-probability range :math:`[p^-, p^+]`."""
    points = _real_like_points(
        scale,
        seed,
        [(_range_label(r), {"probability_range": r}) for r in sweep],
    )
    return run_sweep(
        "fig6", points, algorithms=algorithms, seed=seed,
        jobs=jobs, shards=shards,
    )


# ----------------------------------------------------------------------
# Synthetic figures (7-8)
# ----------------------------------------------------------------------
def fig7_customers(
    scale: float = 0.05,
    seed: int = 42,
    algorithms: Sequence[str] = PANEL,
    sweep: Sequence[int] = CUSTOMER_COUNT_SWEEP,
    jobs: int = 1,
    shards: int = 1,
) -> SweepResult:
    """Figure 7: scalability in the number m of customers (synthetic)."""
    points = []
    for m in sweep:
        scaled_m = max(100, int(m * scale))
        config = WorkloadConfig().with_overrides(
            n_customers=scaled_m, seed=seed
        )

        def factory(config=config):
            return synthetic_problem(config)

        points.append((str(m), factory))
    return run_sweep(
        "fig7", points, algorithms=algorithms, seed=seed,
        jobs=jobs, shards=shards,
    )


#: Default scale per figure number (check-in figures are heavier;
#: 9-11 are the scenario figures, which expand or stream the instance).
FIGURE_DEFAULT_SCALES = {3: 0.01, 4: 0.01, 5: 0.01, 6: 0.01,
                         7: 0.05, 8: 0.05,
                         9: 0.02, 10: 0.02, 11: 0.02}


def figure_by_number(number: int):
    """The figure function and its default scale, by paper number
    (9-11 are the scenario figures, beyond the paper).

    Raises:
        KeyError: For numbers outside 3-11.
    """
    from repro.experiments.scenarios import (
        fig9_slots,
        fig10_trajectory,
        fig11_diurnal,
    )

    table = {
        3: fig3_budget,
        4: fig4_radius,
        5: fig5_capacity,
        6: fig6_probability,
        7: fig7_customers,
        8: fig8_vendors,
        9: fig9_slots,
        10: fig10_trajectory,
        11: fig11_diurnal,
    }
    return table[number], FIGURE_DEFAULT_SCALES[number]


def fig8_vendors(
    scale: float = 0.05,
    seed: int = 42,
    algorithms: Sequence[str] = PANEL,
    sweep: Sequence[int] = VENDOR_COUNT_SWEEP,
    jobs: int = 1,
    shards: int = 1,
) -> SweepResult:
    """Figure 8: scalability in the number n of vendors (synthetic)."""
    points = []
    for n in sweep:
        scaled_n = max(30, int(n * scale * 10))
        config = WorkloadConfig().with_overrides(
            n_vendors=scaled_n,
            n_customers=max(200, int(10_000 * scale)),
            seed=seed,
        )

        def factory(config=config):
            return synthetic_problem(config)

        points.append((str(n), factory))
    return run_sweep(
        "fig8", points, algorithms=algorithms, seed=seed,
        jobs=jobs, shards=shards,
    )
