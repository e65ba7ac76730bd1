"""Certified candidate-edge pruning.

At city scale the candidate-edge table is the object that must shrink:
most edges can never carry an ad.  :func:`prune_engine` drops them and
records a :class:`PruneCertificate` stating *why* the drop is safe,
using the same LP machinery as :func:`repro.algorithms.bounds.vendor_lp_bound`
(re-derived columnarly here so it runs on millions of edges).

Two levels:

* ``"exact"`` -- drops only edges that provably never enter **any**
  solution at the configured budgets, so total utility is unchanged for
  every solver (the certificate records ``utility_delta = 0.0``):

  - *zero-base edges*: ``base <= 0`` makes every ad type's utility
    non-positive; all solvers in the repo require strictly positive
    utility (or efficiency) to place an ad.
  - *unaffordable vendors*: a budget below the cheapest ad price
    (``min_cost > budget + 1e-9``, the exact affordability tolerance of
    ``MUAAProblem.best_instance_for_pair``) admits no integral
    assignment at all -- the argument by which a run's assignment
    marks a vendor exhausted (``Assignment.exhausted``).

* ``"lp"`` -- additionally drops edges whose best budget efficiency is
  strictly below their vendor's LP marginal efficiency.  The per-vendor
  LP optimum (and hence the certified upper bound) is provably
  unchanged -- the dropped increments are never taken, even
  fractionally -- but heuristic solvers may visit different
  trajectories, so this level is opt-in and not utility-gated.

The certificate's ``bound_before``/``bound_after`` are the summed
per-vendor MCKP LP optima (Theorem III.1's bound).  Exact-level drops
can only *tighten* the bound (an unaffordable vendor still had a
fractional LP value); both numbers remain valid upper bounds on the
integral optimum.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.engine.arrays import ProblemArrays
from repro.engine.edges import CandidateEdges
from repro.obs.recorder import recorder

#: Affordability tolerance, identical to the scalar path's ``_EPS``.
_COST_EPS = 1e-9

PRUNE_LEVELS = ("exact", "lp")


@dataclass(frozen=True)
class PruneCertificate:
    """Why a prune was safe, in numbers.

    Attributes:
        level: ``"exact"`` or ``"lp"``.
        edges_before: Candidate edges before the prune.
        edges_after: Candidate edges surviving it.
        zero_base_edges: Edges dropped for ``base <= 0``.
        unaffordable_edges: Edges dropped because their vendor cannot
            afford the cheapest ad type.
        below_marginal_edges: Edges dropped by the LP marginal test
            (``0`` at the exact level).
        vendors_unaffordable: Vendors whose whole segment was dropped.
        bound_before: Summed per-vendor LP bound before the prune.
        bound_after: The same bound on the surviving table.
        utility_delta: Guaranteed solver utility change -- ``0.0`` at
            the exact level, ``None`` (not certified) at ``"lp"``.
    """

    level: str
    edges_before: int
    edges_after: int
    zero_base_edges: int
    unaffordable_edges: int
    below_marginal_edges: int
    vendors_unaffordable: int
    bound_before: float
    bound_after: float
    utility_delta: Optional[float]

    @property
    def edges_dropped(self) -> int:
        return self.edges_before - self.edges_after

    @property
    def prune_ratio(self) -> float:
        """Fraction of edges dropped."""
        if self.edges_before == 0:
            return 0.0
        return self.edges_dropped / self.edges_before

    def to_metadata(self) -> dict:
        """A JSON-safe dict (artifact metadata)."""
        return asdict(self)

    @classmethod
    def from_metadata(cls, doc: dict) -> "PruneCertificate":
        return cls(**{k: doc[k] for k in cls.__dataclass_fields__})


def _catalogue_chain(
    costs: List[float], effs: List[float]
) -> List[Tuple[float, float]]:
    """LP-dominant increments of the ad-type catalogue.

    The per-vendor MCKP LP only ever uses the upper convex hull of the
    ``(cost, effectiveness)`` catalogue (per edge, profits scale the
    hull by the pair base without changing its shape).  Returns the
    hull's ``(delta_cost, delta_effectiveness)`` increments in strictly
    decreasing slope order, starting from ``(0, 0)``.
    """
    hull: List[Tuple[float, float]] = [(0.0, 0.0)]
    for cost, eff in sorted(zip(costs, effs)):
        if eff <= hull[-1][1]:
            continue
        while len(hull) > 1:
            c0, e0 = hull[-2]
            c1, e1 = hull[-1]
            # Pop the last hull point when it sits on or below the
            # segment from its predecessor to the new point.
            if (e1 - e0) * (cost - c0) <= (eff - e0) * (c1 - c0):
                hull.pop()
            else:
                break
        hull.append((cost, eff))
    return [
        (c1 - c0, e1 - e0)
        for (c0, e0), (c1, e1) in zip(hull, hull[1:])
    ]


def vendor_lp_bounds(
    arrays: ProblemArrays,
    edges: CandidateEdges,
    bases: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-vendor MCKP LP optima and marginal efficiencies, columnarly.

    For each vendor: the exact LP value of its single-vendor MCKP over
    its candidate edges (capacity constraints relaxed -- the
    ``vendor_lp_bound`` of :mod:`repro.algorithms.bounds`, computed via
    the greedy fractional sweep over hull increments), and the
    efficiency of the increment straddling the budget (``0`` when the
    budget swallows everything).  All arithmetic is float64 regardless
    of the column policy, so the certified bound is policy-independent.

    Returns:
        ``(per_vendor_value, per_vendor_marginal)`` -- both ``(n,)``
        float64 arrays.
    """
    n = arrays.n_vendors
    values = np.zeros(n, dtype=np.float64)
    marginals = np.zeros(n, dtype=np.float64)
    chain = _catalogue_chain(
        arrays.type_cost.astype(np.float64).tolist(),
        arrays.type_effectiveness.astype(np.float64).tolist(),
    )
    if not chain:
        return values, marginals
    dc = np.array([c for c, _ in chain], dtype=np.float64)
    de = np.array([e for _, e in chain], dtype=np.float64)
    slope = de / dc
    bases64 = np.asarray(bases, dtype=np.float64)
    budgets = arrays.budget.astype(np.float64)
    starts = edges.vendor_starts
    for v in range(n):
        lo, hi = int(starts[v]), int(starts[v + 1])
        seg = bases64[lo:hi]
        seg = seg[seg > 0.0]
        budget = float(budgets[v])
        if seg.size == 0 or budget <= 0.0:
            continue
        eff = (seg[:, None] * slope[None, :]).ravel()
        profit = (seg[:, None] * de[None, :]).ravel()
        cost = np.broadcast_to(dc, (seg.size, len(chain))).ravel()
        order = np.argsort(-eff, kind="stable")
        cum_cost = np.cumsum(cost[order])
        if cum_cost[-1] <= budget:
            values[v] = float(profit.sum())
            continue
        cum_profit = np.cumsum(profit[order])
        k = int(np.searchsorted(cum_cost, budget, side="right"))
        prev_cost = float(cum_cost[k - 1]) if k else 0.0
        prev_profit = float(cum_profit[k - 1]) if k else 0.0
        frac_idx = order[k]
        values[v] = prev_profit + float(profit[frac_idx]) * (
            (budget - prev_cost) / float(cost[frac_idx])
        )
        marginals[v] = float(eff[frac_idx])
    return values, marginals


def vendor_lp_bound_columnar(
    arrays: ProblemArrays,
    edges: CandidateEdges,
    bases: np.ndarray,
) -> float:
    """The summed per-vendor LP bound (columnar ``vendor_lp_bound``)."""
    values, _ = vendor_lp_bounds(arrays, edges, bases)
    return float(values.sum())


def prune_engine(engine, level: str = "exact") -> PruneCertificate:
    """Drop certified-useless edges from a built engine, in place.

    Builds the edge table and pair bases if needed, computes the keep
    mask for ``level``, splices the surviving rows into fresh columns
    (vendor-major order is preserved -- masking a vendor-major table
    keeps it vendor-major), resets every derived cache, and stores the
    certificate on ``engine.certificate``.

    Raises:
        ValueError: On an unknown ``level``.
    """
    if level not in PRUNE_LEVELS:
        raise ValueError(
            f"unknown prune level {level!r}; expected one of {PRUNE_LEVELS}"
        )
    arrays = engine.arrays
    edges = engine.edges
    bases = engine.pair_bases
    n_before = len(edges)
    with recorder().span("engine.prune", level=level, edges=n_before):
        values_before, marginals = vendor_lp_bounds(arrays, edges, bases)
        bound_before = float(values_before.sum())

        positive = np.asarray(bases) > 0
        min_cost = float(arrays.type_cost.astype(np.float64).min())
        affordable_vendor = (
            arrays.budget.astype(np.float64) + _COST_EPS >= min_cost
        )
        affordable = affordable_vendor[edges.vendor_idx]
        keep = positive & affordable
        zero_base = int(n_before - int(positive.sum()))
        unaffordable = int((positive & ~affordable).sum())
        below_marginal = 0
        if level == "lp":
            chain = _catalogue_chain(
                arrays.type_cost.astype(np.float64).tolist(),
                arrays.type_effectiveness.astype(np.float64).tolist(),
            )
            best_slope = max((de / dc for dc, de in chain), default=0.0)
            best_eff = np.asarray(bases, dtype=np.float64) * best_slope
            above = best_eff >= marginals[edges.vendor_idx]
            below_marginal = int((keep & ~above).sum())
            keep &= above

        customer_idx = edges.customer_idx[keep]
        vendor_idx = edges.vendor_idx[keep]
        distance = edges.distance[keep]
        starts = np.zeros(arrays.n_vendors + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(
                vendor_idx.astype(np.int64, copy=False),
                minlength=arrays.n_vendors,
            ),
            out=starts[1:],
        )
        pruned_edges = CandidateEdges(
            customer_idx=customer_idx,
            vendor_idx=vendor_idx,
            distance=distance,
            vendor_starts=starts,
        )
        pruned_bases = np.asarray(bases)[keep]
        bound_after = vendor_lp_bound_columnar(
            arrays, pruned_edges, pruned_bases
        )

        engine._edges = pruned_edges
        engine._bases = pruned_bases
        engine._edge_pos = None
        engine._seg_start = None
        engine._utilities = None
        engine._util_rows = None
        engine._adjacency = None
        for by in engine._level_tables:
            engine._level_tables[by] = [None] * len(
                engine._level_tables[by]
            )
        certificate = PruneCertificate(
            level=level,
            edges_before=n_before,
            edges_after=len(pruned_edges),
            zero_base_edges=zero_base,
            unaffordable_edges=unaffordable,
            below_marginal_edges=below_marginal,
            vendors_unaffordable=int((~affordable_vendor).sum()),
            bound_before=bound_before,
            bound_after=bound_after,
            utility_delta=0.0 if level == "exact" else None,
        )
        engine.certificate = certificate
        recorder().gauge("engine.pruned_edges", certificate.edges_dropped)
    return certificate
