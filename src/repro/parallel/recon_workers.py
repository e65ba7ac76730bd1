"""Worker-side code for RECON's parallel per-vendor MCKP solves.

The parent (:class:`repro.algorithms.recon.Reconciliation`) ships the
engine's pre-scored state -- the ``(E, K)`` utility matrix, the
vendor-major edge table offsets, customer ids, budgets and the ad-type
catalogue columns -- through one shared-memory block.  Each worker task
is a contiguous ``[lo, hi)`` range of vendor rows; the worker builds
each vendor's MCKP from its edge slice with
:func:`~repro.mckp.items.single_vendor_mckp`, the builder the serial
loop uses, and solves it with the configured backend.

Workers return plain ``(vendor_row, [(customer_id, type_id), ...])``
tuples; the parent re-materialises :class:`AdInstance` objects through
``problem.make_instance`` so utilities come from the same engine floats
on both paths.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.mckp.items import single_vendor_mckp
from repro.mckp.solvers import solve as solve_mckp
from repro.obs.recorder import recorder
from repro.parallel.shm import AttachedColumns, ColumnHandle, attach_columns

#: Per-process worker state: (attached columns, mckp method).
_STATE: Optional[Tuple[AttachedColumns, str]] = None

#: The chosen type ids of one vendor, in solver choice order.
VendorChoice = List[Tuple[int, int]]


def init_worker(handle: ColumnHandle, mckp_method: str) -> None:
    """Pool initializer: attach the shared columns once per worker."""
    global _STATE
    _STATE = (attach_columns(handle), mckp_method)


def solve_vendor_span(span: Tuple[int, int]) -> List[Tuple[int, VendorChoice]]:
    """Solve the single-vendor MCKPs of vendor rows ``[lo, hi)``."""
    assert _STATE is not None, "worker initializer did not run"
    columns, method = _STATE
    utilities = columns["utilities"]
    edge_customer = columns["edge_customer"]
    starts = columns["vendor_starts"]
    customer_ids = columns["customer_ids"]
    budgets = columns["budget"].tolist()
    type_cost = columns["type_cost"]
    type_ids = columns["type_ids"]

    lo, hi = span
    rec = recorder()
    results: List[Tuple[int, VendorChoice]] = []
    for vendor_row in range(lo, hi):
        with rec.span("recon.vendor", vendor_row=vendor_row):
            edges = slice(int(starts[vendor_row]), int(starts[vendor_row + 1]))
            mckp = single_vendor_mckp(
                utilities[edges],
                customer_ids[edge_customer[edges]],
                type_cost,
                type_ids,
                budgets[vendor_row],
            )
            if mckp is None:
                results.append((vendor_row, []))
                continue
            solution = solve_mckp(mckp, method=method)
            results.append(
                (
                    vendor_row,
                    [
                        (int(customer_id), int(item.item_id))
                        for customer_id, item in solution.chosen.items()
                    ],
                )
            )
    return results
