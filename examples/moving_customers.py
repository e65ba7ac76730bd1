#!/usr/bin/env python3
"""Moving customers: one check-in trajectory, served online.

Section II defines MUAA over the customers *at a timestamp*, and real
customers move.  This example turns a check-in feed into the
AdCell-style evolving-location workload: each user becomes one customer
at their first check-in, and every later check-in becomes a scheduled
move (a :class:`~repro.scenario.trajectory.MoveSchedule`).  O-AFA then
serves the stream twice -- through the sequential simulator and
through the micro-batching replay driver -- and each arriving customer
is decided once, at its current location.

The two paths must commit the same ads under the same schedule; the
script exits non-zero if they do not.

Run:
    python examples/moving_customers.py
"""

from __future__ import annotations

import sys

from repro.algorithms.calibration import calibrate_from_problem
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.datagen import simulate_checkins
from repro.datagen.trajectories import trajectory_from_checkins
from repro.serve import ReplayDriver, ServeConfig, build_schedule
from repro.stream import OnlineSimulator

#: Replay batch size checked against the sequential stream.
BATCH_SPLIT = 7


def triples(assignment):
    return sorted(
        (i.customer_id, i.vendor_id, i.type_id) for i in assignment
    )


def main() -> int:
    feed = simulate_checkins(
        n_users=300, n_venues=400, n_checkins=12_000, seed=5
    )
    problem, schedule = trajectory_from_checkins(feed, seed=5)
    moved = {move.customer_id for move in schedule.moves}
    print(f"Check-in trajectories: {len(problem.customers)} customers, "
          f"{len(problem.vendors)} vendors, {len(schedule)} scheduled "
          f"moves by {len(moved)} customers")

    bounds = calibrate_from_problem(problem, seed=0)

    def o_afa():
        return OnlineAdaptiveFactorAware(
            gamma_min=bounds.gamma_min, g=bounds.g
        )

    static = OnlineSimulator(problem).run(o_afa())
    moving = OnlineSimulator(problem).run(o_afa(), moves=schedule)
    driver = ReplayDriver(
        problem,
        o_afa(),
        ServeConfig(
            max_batch=BATCH_SPLIT, queue_depth=len(problem.customers)
        ),
        moves=schedule,
    )
    served = driver.run(
        build_schedule(problem.customers, rate=2_000.0, seed=5)
    )

    print("\nO-AFA utility        ads   utility")
    print(f"  static snapshot {len(static.assignment):6d} "
          f"{static.total_utility:9.3f}")
    print(f"  moving (stream) {len(moving.assignment):6d} "
          f"{moving.total_utility:9.3f}")
    print(f"  moving (replay) {len(driver.scorer.assignment):6d} "
          f"{driver.scorer.assignment.total_utility:9.3f}  "
          f"({served.stats.batches} batches of <= {BATCH_SPLIT})")

    if triples(moving.assignment) != triples(driver.scorer.assignment):
        print(f"\nFAIL: stream and replay at batch split {BATCH_SPLIT} "
              "committed different ads under the same move schedule")
        return 1
    print(f"\nstream and replay at batch split {BATCH_SPLIT} agree on "
          "every (customer, vendor, ad type)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
