"""The Online Adaptive Factor-Aware approach, O-AFA (Section IV, Algorithm 2).

When a customer arrives, O-AFA considers each vendor whose area contains
the customer, picks the vendor's "best" ad type, and keeps the instance
only if its budget efficiency clears an *adaptive threshold*
:math:`\\phi(\\delta_j)` that grows with the vendor's used-budget ratio
:math:`\\delta_j`: ads are pushed freely while budget is plentiful, and
only high-efficiency ads are accepted as the budget depletes.  Among the
surviving candidates the top-:math:`a_i` by efficiency are committed.

With the exponential threshold :math:`\\phi(\\delta) = \\frac{\\gamma_{min}}{e}
\\cdot g^{\\delta}` (g > e) the competitive ratio is
:math:`(\\ln(g) + 1)/\\theta` (Corollary IV.1).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.base import OnlineAlgorithm
from repro.core.assignment import AdInstance, Assignment
from repro.core.entities import Customer
from repro.core.problem import MUAAProblem
from repro.engine.engine import MISS

#: Base of the natural logarithm, the lower bound on g.
E = math.e

_EPS = 1e-9


class ThresholdFunction(ABC):
    """Budget-efficiency acceptance threshold :math:`\\phi(\\delta)`.

    Must be monotone non-decreasing in the used-budget ratio
    :math:`\\delta \\in [0, 1]` (assumption 3 of Section IV-B).
    Implementations may differentiate per vendor through the optional
    ``vendor_id`` (the paper's analysis is per-vendor anyway -- each
    vendor's budget is its own knapsack).
    """

    @abstractmethod
    def threshold(
        self, used_budget_ratio: float, vendor_id: Optional[int] = None
    ) -> float:
        """The minimum acceptable efficiency at used ratio ``delta``."""


class AdaptiveExponentialThreshold(ThresholdFunction):
    """The paper's threshold :math:`\\phi(\\delta) = \\gamma_{min}/e \\cdot g^\\delta`.

    Args:
        gamma_min: Lower bound on any instance's budget efficiency.
        g: Growth constant; must exceed :math:`e` (Corollary IV.1).

    Raises:
        ValueError: If ``g <= e`` or ``gamma_min <= 0``.
    """

    def __init__(self, gamma_min: float, g: float) -> None:
        if gamma_min <= 0:
            raise ValueError(f"gamma_min must be positive, got {gamma_min}")
        if g <= E:
            raise ValueError(f"g must exceed e ≈ {E:.5f}, got {g}")
        self.gamma_min = gamma_min
        self.g = g

    def threshold(
        self, used_budget_ratio: float, vendor_id: Optional[int] = None
    ) -> float:
        return (self.gamma_min / E) * self.g ** used_budget_ratio

    @property
    def competitive_ratio_bound(self) -> float:
        """The Corollary IV.1 factor :math:`\\ln(g) + 1` (divide by
        :math:`\\theta` of the instance to get the full ratio)."""
        return math.log(self.g) + 1.0


class PerVendorExponentialThreshold(ThresholdFunction):
    """Per-vendor exponential thresholds (a Section IV-C refinement).

    Theorem IV.1's analysis is per vendor, so nothing requires one
    global :math:`(\\gamma_{min}, g)`: a vendor in a dense downtown sees
    very different efficiency distributions than a suburban one.  This
    threshold keeps an :class:`AdaptiveExponentialThreshold` per vendor
    and falls back to a global default for vendors without their own
    calibration.

    Args:
        per_vendor: vendor_id -> ``(gamma_min, g)`` pairs.
        default: Fallback threshold for uncalibrated vendors.
    """

    def __init__(
        self,
        per_vendor: Mapping[int, "AdaptiveExponentialThreshold"],
        default: "AdaptiveExponentialThreshold",
    ) -> None:
        self._per_vendor: Dict[int, AdaptiveExponentialThreshold] = dict(
            per_vendor
        )
        self._default = default

    def threshold(
        self, used_budget_ratio: float, vendor_id: Optional[int] = None
    ) -> float:
        chosen = self._per_vendor.get(vendor_id, self._default)
        return chosen.threshold(used_budget_ratio)


class StaticThreshold(ThresholdFunction):
    """A constant threshold; the non-adaptive baseline of Section IV-A.

    Args:
        value: Instances below this efficiency are always rejected.
    """

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"threshold must be >= 0, got {value}")
        self.value = value

    def threshold(
        self, used_budget_ratio: float, vendor_id: Optional[int] = None
    ) -> float:
        return self.value


class OnlineAdaptiveFactorAware(OnlineAlgorithm):
    """Algorithm 2 (O-AFA).

    Args:
        threshold: The acceptance threshold function; the paper's
            adaptive exponential by default when ``gamma_min``/``g`` are
            given instead.
        gamma_min: Convenience constructor argument for the default
            adaptive exponential threshold.
        g: Growth constant for the default threshold.

    Raises:
        ValueError: If neither a threshold nor (gamma_min, g) is given.
    """

    name = "ONLINE"

    def __init__(
        self,
        threshold: ThresholdFunction = None,
        gamma_min: float = None,
        g: float = None,
    ) -> None:
        if threshold is None:
            if gamma_min is None or g is None:
                raise ValueError(
                    "provide either a ThresholdFunction or both "
                    "gamma_min and g"
                )
            threshold = AdaptiveExponentialThreshold(gamma_min, g)
        self.threshold_function = threshold

    @classmethod
    def calibrated(
        cls,
        problem: MUAAProblem,
        sample_customers: Optional[int] = 500,
        seed: Optional[int] = None,
        per_vendor: bool = False,
    ) -> "OnlineAdaptiveFactorAware":
        """O-AFA with thresholds calibrated from a historical instance.

        Calibration batch-scores the instance's candidate edges through
        the compute engine when the utility model supports it, so this
        is cheap even on large historical instances.

        Args:
            problem: The historical instance to calibrate against.
            sample_customers: Customer sample size (see
                :func:`repro.algorithms.calibration.observed_efficiencies`).
            seed: RNG seed for the customer sampling.
            per_vendor: Calibrate a per-vendor threshold (Section IV-C
                refinement) with the global bounds as fallback.

        Raises:
            ValueError: If the instance has no positive-utility candidate.
        """
        from repro.algorithms.calibration import (
            calibrate_from_problem,
            calibrate_per_vendor,
        )

        bounds = calibrate_from_problem(
            problem, sample_customers=sample_customers, seed=seed
        )
        default = AdaptiveExponentialThreshold(bounds.gamma_min, bounds.g)
        if not per_vendor:
            return cls(threshold=default)
        vendor_bounds = calibrate_per_vendor(
            problem, sample_customers=sample_customers, seed=seed
        )
        return cls(
            threshold=PerVendorExponentialThreshold(
                {
                    vendor_id: AdaptiveExponentialThreshold(b.gamma_min, b.g)
                    for vendor_id, b in vendor_bounds.items()
                },
                default,
            )
        )

    def process_customer(
        self,
        problem: MUAAProblem,
        customer: Customer,
        assignment: Assignment,
    ) -> List[AdInstance]:
        # Line 2: valid vendors by the spatial constraint.
        return self.decide(
            problem,
            customer,
            assignment,
            problem.valid_vendor_ids(customer, assignment),
        )

    def decide(
        self,
        problem: MUAAProblem,
        customer: Customer,
        assignment: Assignment,
        vendor_ids: Sequence[int],
        snapshot: Optional[Mapping[Tuple[int, int], tuple]] = None,
    ) -> List[AdInstance]:
        """Algorithm 2, lines 3-8, over the customer's valid, active
        ``vendor_ids``: the one copy of the O-AFA rule, used by
        :meth:`process_customer` and the batched scorer alike.

        ``snapshot`` optionally maps ``(customer_id, vendor_id)`` to an
        earlier answer ``(ad_type, utility, spent)``: the pair's best
        affordable ad type (``None`` when none was affordable) and its
        utility, scored at the vendor's spend ``spent``.  An answer
        stands only while the vendor's spend is still ``spent``; every
        other vendor is scored against ``assignment``.  Returns at most
        ``customer.capacity`` instances to commit.
        """
        potential: List[AdInstance] = []
        # Hot path: with a built compute engine, skip the per-call
        # dispatch in ``problem.best_instance_for_pair`` (the engine
        # covers every candidate edge, so its lookups never miss).
        engine = problem.engine
        if not problem.holds(customer):
            # Relocated mid-run: engine rows and snapshot answers were
            # scored at the held location, so take the scalar path.
            engine = snapshot = None
        lookup = engine.best_for_pair if engine is not None else None
        customer_id = customer.customer_id
        spend_for_vendor = assignment.spend_for_vendor
        budgets = problem.budgets
        threshold = self.threshold_function.threshold
        for vendor_id in vendor_ids:
            budget = budgets[vendor_id]
            if budget <= 0:
                continue
            spent = spend_for_vendor(vendor_id)
            scored = snapshot and snapshot.get((customer_id, vendor_id))
            if not scored or scored[2] != spent:
                remaining = budget - spent
                # Line 4: the vendor's "best" (highest-efficiency)
                # affordable ad type for this customer.
                best = MISS
                if lookup is not None:
                    best = lookup(customer_id, vendor_id, max_cost=remaining)
                if best is MISS:
                    best = problem.best_instance_for_pair(
                        customer,
                        vendor_id,
                        by="efficiency",
                        max_cost=remaining,
                    )
                if best is None or best.utility <= 0:
                    continue
                utility, cost = best.utility, best.cost
            else:
                ad_type, utility, _ = scored
                if ad_type is None or utility <= 0:
                    continue
                best, cost = None, ad_type.cost
            # Line 5: adaptive acceptance test on the used-budget ratio.
            if utility / cost >= threshold(spent / budget, vendor_id) - _EPS:
                potential.append(best or AdInstance(
                    customer_id, vendor_id, ad_type.type_id, utility, cost
                ))
        # Lines 7-8: keep the top-a_i instances by budget efficiency.
        if len(potential) > customer.capacity:
            potential.sort(key=lambda inst: -inst.efficiency)
            potential = potential[: customer.capacity]
        return potential
