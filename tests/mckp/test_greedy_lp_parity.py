"""The column-wise greedy LP-relaxation against the item-by-item sweep.

:func:`repro.mckp.lp_relaxation.greedy_lp` computes dominance, the LP
hull, the increments and their order for every class at once.  The
oracle below is the classical per-item formulation: LP-dominance filter
each class with :func:`remove_lp_dominated`, emit one increment object
per chain step, sort them by ``(-efficiency, str(class_id), level)``
and sweep the budget.  Both must pick the same items in the same order
with bitwise-equal profit totals and LP values.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mckp.dominance import remove_lp_dominated
from repro.mckp.items import (
    MCKPInstance,
    MCKPItem,
    MCKPSolution,
    single_vendor_mckp,
)
from repro.mckp.lp_relaxation import solve_lp_relaxation
from repro.mckp.solvers import solve

_EPS = 1e-12

#: Class ids whose ``str`` order (``"10" < "100" < "2"``) differs from
#: their int order.
CLASS_IDS = (2, 10, 100, 1, 20, 3, 1000, 11)

#: Shared cost values, so classes hold equal-cost items.
COSTS = (0.5, 1.0, 1.5, 2.0, 3.0, 0.3, 2.7)

#: Profit = efficiency x cost: exact efficiency ties across classes.
EFFICIENCIES = (0.5, 1.0, 2.0, 3.0)


def oracle(instance: MCKPInstance):
    """The per-item greedy LP sweep: ``(chosen, lp, class, fraction)``."""
    increments = []
    for class_id, items in instance.classes.items():
        prev_cost, prev_profit = 0.0, 0.0
        for level, item in enumerate(remove_lp_dominated(items)):
            increments.append(
                (
                    class_id,
                    level,
                    item.cost - prev_cost,
                    item.profit - prev_profit,
                    item,
                )
            )
            prev_cost, prev_profit = item.cost, item.profit
    increments.sort(key=lambda inc: (-(inc[3] / inc[2]), str(inc[0]), inc[1]))

    remaining = instance.budget
    lp_value = 0.0
    fraction = 0.0
    fractional_class: Optional[Hashable] = None
    taken: Dict[Hashable, MCKPItem] = {}
    for class_id, _level, delta_cost, delta_profit, item in increments:
        if remaining <= _EPS:
            break
        if delta_cost <= remaining + _EPS:
            taken[class_id] = item
            lp_value += delta_profit
            remaining -= delta_cost
        else:
            fraction = remaining / delta_cost
            lp_value += fraction * delta_profit
            fractional_class = class_id
            remaining = 0.0
            break

    integral = MCKPSolution(upper_bound=lp_value)
    for item in taken.values():
        integral.add(item)
    best: Optional[MCKPItem] = None
    for item in instance.all_items():
        if item.cost <= instance.budget + _EPS:
            if best is None or item.profit > best.profit:
                best = item
    if best is not None and best.profit > integral.total_profit:
        integral = MCKPSolution(upper_bound=lp_value)
        integral.add(best)
    return integral, lp_value, fractional_class, fraction


def _bits(x) -> str:
    return float(x).hex()


def _chosen(solution: MCKPSolution) -> List[tuple]:
    return [
        (class_id, item.item_id, _bits(item.cost), _bits(item.profit))
        for class_id, item in solution.chosen.items()
    ]


def assert_same(result, expected) -> None:
    integral, lp_value, fractional_class, fraction = expected
    assert _chosen(result.integral) == _chosen(integral)
    assert _bits(result.integral.total_profit) == _bits(integral.total_profit)
    assert _bits(result.lp_value) == _bits(lp_value)
    assert _bits(result.integral.upper_bound) == _bits(lp_value)
    assert result.fractional_class == fractional_class
    assert _bits(result.fraction) == _bits(fraction)


def _cost(draw) -> float:
    return draw(st.one_of(st.sampled_from(COSTS), st.floats(0.05, 6.0)))


#: Offsets around the 1e-12 filtering tolerance.
NUDGES = (-5e-13, 5e-13, 1e-12, 1.5e-12, 2.5e-12)


def _profit(draw, cost: float, as_float32: bool, seen: List[float]) -> float:
    kinds = ("zero", "tie", "free") + (("near",) if seen else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "near":
        # Within a few tolerances of an earlier profit: the dominance
        # and hull tests sit right at their 1e-12 margins.
        profit = max(
            0.0, draw(st.sampled_from(seen)) + draw(st.sampled_from(NUDGES))
        )
    else:
        if kind == "zero":
            profit = 0.0
        elif kind == "tie":
            # Nudged ties put hull points within the tolerance of a line.
            profit = max(
                0.0,
                draw(st.sampled_from(EFFICIENCIES)) * cost
                + draw(st.sampled_from((0.0, 0.0, -5e-13, 5e-13))),
            )
        else:
            profit = draw(st.floats(0.0, 10.0))
        if as_float32:
            profit = float(np.float32(profit))
    seen.append(profit)
    return profit


def _budget(draw) -> float:
    kind = draw(st.sampled_from(("round", "free", "edge")))
    if kind == "round":
        return draw(st.sampled_from((0.0, 1.0, 2.0, 4.5, 6.0)))
    if kind == "free":
        return draw(st.floats(0.0, 14.0))
    # A sum of catalogue costs, within the tolerance: the sweep's
    # remainder lands right at an increment's cost.
    total = sum(draw(st.lists(st.sampled_from(COSTS), min_size=1, max_size=4)))
    return max(0.0, total + draw(st.sampled_from((-5e-13, 0.0, 5e-13))))


@st.composite
def item_instances(draw):
    """Optional classes with empty, copied, equal-cost and tied items."""
    as_float32 = draw(st.booleans())
    seen: List[float] = []
    classes: Dict[Hashable, tuple] = {}
    for class_id in draw(st.lists(st.sampled_from(CLASS_IDS), unique=True)):
        kind = draw(st.sampled_from(("copy", "line", "free")))
        if kind == "copy" and classes:
            # A copy of an earlier class: every efficiency ties exactly.
            source = draw(st.sampled_from(sorted(classes, key=str)))
            shape = [(i.cost, i.profit) for i in classes[source]]
        elif kind == "line":
            # Points on one ray from the origin, nudged within the hull
            # test's tolerance.
            slope = draw(st.sampled_from(EFFICIENCIES))
            shape = [
                (cost, slope * cost + draw(st.sampled_from(NUDGES)))
                for cost in draw(st.lists(st.sampled_from(COSTS), max_size=4))
            ]
        else:
            shape = []
            for _ in range(draw(st.integers(0, 4))):
                cost = _cost(draw)
                shape.append((cost, _profit(draw, cost, as_float32, seen)))
        classes[class_id] = tuple(
            MCKPItem(class_id=class_id, item_id=k, cost=cost, profit=profit)
            for k, (cost, profit) in enumerate(shape)
        )
    return MCKPInstance(classes=classes, budget=_budget(draw))


@st.composite
def vendor_slices(draw):
    """An engine slice: utilities over customers x ad types."""
    n_types = draw(st.integers(1, 4))
    type_cost = [_cost(draw) for _ in range(n_types)]
    type_ids = list(range(10, 10 + n_types))
    customer_ids = draw(st.lists(st.sampled_from(CLASS_IDS), unique=True))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    seen: List[float] = []
    rows = []
    for _ in customer_ids:
        if rows and draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(
                [
                    draw(st.sampled_from((-1.0, 0.0)))
                    if draw(st.integers(0, 4)) == 0
                    else _profit(draw, cost, False, seen)
                    for cost in type_cost
                ]
            )
    utilities = np.array(rows, dtype=dtype).reshape(len(customer_ids), n_types)
    return utilities, customer_ids, type_cost, type_ids, _budget(draw)


def engine_slice_items(utilities, customer_ids, type_cost, type_ids, budget):
    """The single-vendor item list as built one item at a time."""
    items = []
    for local, customer_id in enumerate(customer_ids):
        for k, cost in enumerate(type_cost):
            utility = float(utilities[local, k])
            if utility > 0 and cost <= budget + 1e-9:
                items.append(
                    MCKPItem(
                        class_id=customer_id,
                        item_id=type_ids[k],
                        cost=cost,
                        profit=utility,
                    )
                )
    return items


class TestColumnarParity:
    @given(item_instances())
    @settings(max_examples=400, deadline=None)
    def test_item_instances(self, instance):
        assert_same(solve_lp_relaxation(instance), oracle(instance))

    @given(vendor_slices())
    @settings(max_examples=400, deadline=None)
    def test_engine_slices(self, vendor):
        utilities, customer_ids, type_cost, type_ids, budget = vendor
        items = engine_slice_items(*vendor)
        mckp = single_vendor_mckp(*vendor)
        if not items:
            assert mckp is None
            return
        instance = MCKPInstance.from_items(items, budget=budget)
        assert mckp.to_instance() == instance
        assert_same(solve_lp_relaxation(mckp), oracle(instance))
        assert _chosen(solve(mckp, "dp")) == _chosen(solve(instance, "dp"))

    def test_ties_break_on_class_name_then_level(self):
        # Three classes with identical chains: equal efficiencies are
        # swept in str order ("10" < "100" < "2"), and the budget only
        # reaches the first two.
        chain = ((1.0, 2.0), (2.0, 3.0))
        instance = MCKPInstance(
            classes={
                cid: tuple(
                    MCKPItem(class_id=cid, item_id=k, cost=c, profit=p)
                    for k, (c, p) in enumerate(chain)
                )
                for cid in (2, 100, 10)
            },
            budget=2.0,
        )
        result = solve_lp_relaxation(instance)
        assert list(result.integral.chosen) == [10, 100]
        assert_same(result, oracle(instance))

    def test_equal_names_break_on_level(self):
        # Classes 2 and "2" share a name; class 2's second increment and
        # class "2"'s first have equal efficiency 2, so level decides.
        def cls(cid, chain):
            return tuple(
                MCKPItem(class_id=cid, item_id=k, cost=c, profit=p)
                for k, (c, p) in enumerate(chain)
            )

        instance = MCKPInstance(
            classes={
                2: cls(2, ((1.0, 3.0), (2.0, 5.0))),
                "2": cls("2", ((1.0, 2.0),)),
            },
            budget=1.5,
        )
        result = solve_lp_relaxation(instance)
        assert list(result.integral.chosen) == [2]
        assert result.fractional_class == "2"
        assert_same(result, oracle(instance))
