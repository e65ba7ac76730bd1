"""O-AFA with online re-calibration of its threshold parameters.

Section IV-C: the broker "can gradually achieve a proper value of g for
the real systems after a period of tuning" -- gamma bounds drift as the
customer mix changes, so a deployed O-AFA should keep estimating them
from the efficiencies it observes in the stream itself.

:class:`RecalibratingOnlineAFA` wraps the O-AFA acceptance rule with a
sliding window of observed candidate efficiencies; every
``recalibrate_every`` customers it re-estimates
:math:`(\\gamma_{min}, \\gamma_{max}, g)` by quantiles over the window
and rebuilds the threshold.  Until the first window fills, a permissive
bootstrap threshold (accept anything affordable) gathers data.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.algorithms.calibration import estimate_gamma_bounds
from repro.algorithms.online_afa import (
    AdaptiveExponentialThreshold,
    OnlineAdaptiveFactorAware,
    StaticThreshold,
)
from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import Customer
from repro.core.problem import MUAAProblem


class RecalibratingOnlineAFA(OnlineAdaptiveFactorAware):
    """O-AFA whose gamma/g are re-estimated from the live stream.

    Args:
        window: Number of most recent candidate efficiencies kept.
        recalibrate_every: Customers between re-estimations.
        bootstrap_customers: Customers served with the permissive
            bootstrap threshold before the first calibration.
        low_quantile: Quantile for :math:`\\gamma_{min}`.
        high_quantile: Quantile for :math:`\\gamma_{max}`.
    """

    name = "ONLINE-RECAL"

    def __init__(
        self,
        window: int = 2_000,
        recalibrate_every: int = 100,
        bootstrap_customers: int = 50,
        low_quantile: float = 0.05,
        high_quantile: float = 0.95,
    ) -> None:
        if window < 1 or recalibrate_every < 1:
            raise ValueError("window and recalibrate_every must be >= 1")
        super().__init__(threshold=StaticThreshold(0.0))
        self._window = window
        self._every = recalibrate_every
        self._bootstrap = bootstrap_customers
        self._low_quantile = low_quantile
        self._high_quantile = high_quantile
        self._observations: Deque[float] = deque(maxlen=window)
        self._customers_seen = 0
        #: Number of completed re-calibrations (diagnostics).
        self.recalibrations = 0

    def reset(self, problem: MUAAProblem) -> None:
        self._observations.clear()
        self._customers_seen = 0
        self.recalibrations = 0
        self.threshold_function = StaticThreshold(0.0)

    def _maybe_recalibrate(self) -> None:
        due = (
            self._customers_seen >= self._bootstrap
            and self._customers_seen % self._every == 0
            and self._observations
        )
        if not due:
            return
        try:
            bounds = estimate_gamma_bounds(
                self._observations,
                low_quantile=self._low_quantile,
                high_quantile=self._high_quantile,
            )
        except ValueError:
            return  # nothing positive observed yet
        self.threshold_function = AdaptiveExponentialThreshold(
            gamma_min=bounds.gamma_min, g=bounds.g
        )
        self.recalibrations += 1

    def process_customer(
        self,
        problem: MUAAProblem,
        customer: Customer,
        assignment: Assignment,
    ) -> List[AdInstance]:
        # Observe the candidate efficiencies this customer *could* have
        # generated (not just accepted ones -- acceptance-only sampling
        # would bias gamma_min upward).
        vendor_ids = problem.valid_vendor_ids(customer, assignment)
        for vendor_id in vendor_ids:
            best = problem.best_instance_for_pair(
                customer, vendor_id, by="efficiency"
            )
            if best is not None and best.utility > 0:
                self._observations.append(best.efficiency)
        self._customers_seen += 1
        self._maybe_recalibrate()
        return self.decide(problem, customer, assignment, vendor_ids)
