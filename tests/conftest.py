"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.core.entities import AdType, Customer, Vendor
from repro.core.problem import MUAAProblem
from repro.utility.model import TabularUtilityModel


@contextmanager
def within_seconds(seconds: float):
    """Fail with ``TimeoutError`` if the block runs longer than
    ``seconds`` (a hang becomes a test failure instead of a stuck run)."""

    def expire(signum, frame):
        raise TimeoutError(f"block still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# The paper's worked example (Example 1, Tables I and II)
# ----------------------------------------------------------------------
#: Ad types of Table I: text link and photo link.
PAPER_AD_TYPES = (
    AdType(type_id=0, name="TL", cost=1.0, effectiveness=0.1),
    AdType(type_id=1, name="PL", cost=2.0, effectiveness=0.4),
)

#: (customer, vendor) -> distance, from Table II.
PAPER_DISTANCES = {
    (0, 0): 2.0, (1, 0): 1.0, (2, 0): 4.5,
    (0, 1): 2.0, (1, 1): 2.5, (2, 1): 7.5,
    (0, 2): 4.0, (1, 2): 2.3, (2, 2): 2.3,
}

#: (customer, vendor) -> preference, from Table II.
PAPER_PREFERENCES = {
    (0, 0): 0.3, (1, 0): 0.2, (2, 0): 0.7,
    (0, 1): 0.2, (1, 1): 0.3, (2, 1): 0.9,
    (0, 2): 0.6, (1, 2): 0.5, (2, 2): 0.1,
}

#: Click probabilities of u1..u3.
PAPER_VIEW_PROBABILITIES = (0.3, 0.2, 0.15)

#: Effective advertising radius implied by the example's figure: both
#: printed solutions use exactly the pairs with distance <= 2.5, so the
#: dashed circles of Fig. 1(a) correspond to this radius.
PAPER_EFFECTIVE_RADIUS = 2.5


def paper_example_problem() -> MUAAProblem:
    """The MUAA instance of the paper's Example 1.

    Locations are collapsed to the origin; the example's distances enter
    through the tabular utility model (Table II) and the range
    constraint through a pair validator on those same distances with
    the figure-implied radius of 2.5.
    """
    customers = [
        Customer(
            customer_id=i,
            location=(0.0, 0.0),
            capacity=2,
            view_probability=PAPER_VIEW_PROBABILITIES[i],
        )
        for i in range(3)
    ]
    vendors = [
        Vendor(vendor_id=j, location=(0.0, 0.0), radius=10.0, budget=3.0)
        for j in range(3)
    ]
    model = TabularUtilityModel(
        preferences=PAPER_PREFERENCES, distances=PAPER_DISTANCES
    )
    return MUAAProblem(
        customers=customers,
        vendors=vendors,
        ad_types=list(PAPER_AD_TYPES),
        utility_model=model,
        pair_validator=lambda c, v: (
            PAPER_DISTANCES[(c.customer_id, v.vendor_id)]
            <= PAPER_EFFECTIVE_RADIUS
        ),
    )


@pytest.fixture
def paper_problem() -> MUAAProblem:
    """Fixture wrapper around :func:`paper_example_problem`."""
    return paper_example_problem()


# ----------------------------------------------------------------------
# Random tabular problems for property and integration tests
# ----------------------------------------------------------------------
# Re-exported from the library so tests and the CLI share one battery.
from repro.datagen.tabular import random_tabular_problem  # noqa: E402,F401


@pytest.fixture
def small_problem() -> MUAAProblem:
    """A deterministic small random instance."""
    return random_tabular_problem(seed=1)
