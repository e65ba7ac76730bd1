"""Churn events, epochs, and seeded churn plans.

Long-running serving treats the problem as *mutable*: vendors join and
leave the marketplace, budgets deplete, and traffic hot-spots drift
between shards.  This module defines the shared vocabulary for those
mutations:

* :class:`ChurnEvent` -- one immutable delta (vendor insert/retire/
  deactivate, or a cell-group migration between shards);
* :class:`ChurnLog` -- the ordered, versioned event log.  The **epoch**
  is simply the number of events applied so far (epoch 0 = the cold
  build), so every consumer that processed the same prefix of the log
  agrees on the epoch number;
* :class:`ChurnState` -- the mutable churn bookkeeping *shared* between
  a problem and its shard views (deactivated-vendor set, skip/epoch
  counters), so one shared set keeps every view consistent.  Budget
  exhaustion is run state and lives on the run's assignment instead;
* :class:`ShardDelta` / :class:`VendorJoin` -- the per-shard payload a
  :class:`~repro.sharding.plan.ShardPlan` emits when applying an event,
  shippable to out-of-process shard workers;
* :class:`ChurnSchedule` -- events keyed by arrival tick, consumed by
  the stream simulator and the cluster episode loop;
* :func:`seeded_vendor_churn` -- a deterministic join/leave/exhaust
  plan for demos and benchmarks (``repro serve-cluster --churn``).

Every delta primitive downstream is **idempotent** (retiring an unknown
vendor, inserting a present one, or deactivating an inactive one is a
no-op), so the same log prefix may be applied to a state that already
contains it -- which is exactly what happens when a killed shard worker
is re-forked from a parent that already consumed the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.entities import Customer, Vendor
from repro.seeding import stream_rng

#: The recognised event kinds.
KIND_INSERT = "insert"
KIND_RETIRE = "retire"
KIND_DEACTIVATE = "deactivate"
KIND_MIGRATE = "migrate"

EVENT_KINDS = (KIND_INSERT, KIND_RETIRE, KIND_DEACTIVATE, KIND_MIGRATE)


class ChurnState:
    """Mutable churn bookkeeping shared by a problem and its views.

    Attributes:
        inactive: Vendor ids deactivated by explicit ``deactivate``
            events.  Candidate scans filter these out (and the vendors
            a run's assignment has exhausted).
        skips: Number of times a candidate scan skipped an inactive or
            exhausted vendor (surfaced in ``ResilienceStats`` and obs).
        deactivations: Number of distinct deactivations applied.
        epoch: Number of churn events processed so far (0 = cold).
    """

    __slots__ = ("inactive", "skips", "deactivations", "epoch")

    def __init__(self) -> None:
        self.inactive: Set[int] = set()
        self.skips: int = 0
        self.deactivations: int = 0
        self.epoch: int = 0


@dataclass(frozen=True)
class ChurnEvent:
    """One immutable delta against a problem (and optionally its plan).

    Attributes:
        kind: One of :data:`EVENT_KINDS`.
        tick: Arrival index at which the event fires in a schedule
            (``-1`` for events applied immediately).
        vendor: The joining vendor entity (``insert`` only).
        vendor_id: The target vendor (``retire`` / ``deactivate``).
        cells: Grid cells to move (``migrate`` only), in the plan's
            cell coordinates.
        src: Source shard of a migration.
        dst: Destination shard of a migration.
    """

    kind: str
    tick: int = -1
    vendor: Optional[Vendor] = None
    vendor_id: Optional[int] = None
    cells: Tuple[Tuple[int, int], ...] = ()
    src: int = -1
    dst: int = -1

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown churn event kind {self.kind!r}")


class ChurnLog:
    """The ordered, versioned churn-event log.

    The epoch counter equals ``base + len(events)``; ``base`` supports
    rebuilding a plan from serialised metadata that already carries an
    epoch (the events themselves are not persisted -- the post-churn
    vendor grouping is).
    """

    def __init__(self, base: int = 0) -> None:
        self._base = int(base)
        self._events: List[ChurnEvent] = []

    @property
    def epoch(self) -> int:
        """The current epoch (number of events ever applied)."""
        return self._base + len(self._events)

    @property
    def events(self) -> Tuple[ChurnEvent, ...]:
        """The events applied through this log, oldest first."""
        return tuple(self._events)

    def append(self, event: ChurnEvent) -> int:
        """Record one applied event; returns the new epoch."""
        self._events.append(event)
        return self.epoch

    def since(self, epoch: int) -> Tuple[ChurnEvent, ...]:
        """Events applied after ``epoch`` (for catch-up replays)."""
        offset = max(0, epoch - self._base)
        return tuple(self._events[offset:])

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ChurnEvent]:
        return iter(self._events)


@dataclass(frozen=True)
class VendorJoin:
    """A vendor joining one shard view (new vendor or migration).

    Attributes:
        vendor: The joining vendor entity.
        position: Catalogue-order insertion index inside the view's
            vendor list (``None`` appends; joins in a delta are ordered
            by ascending position so sequential insertion is correct).
        admit: Customers that are new to the target view (replicas of
            the vendor's in-range customers not yet present there).
    """

    vendor: Vendor
    position: Optional[int] = None
    admit: Tuple[Customer, ...] = ()


@dataclass(frozen=True)
class ShardDelta:
    """The per-shard payload of one applied churn event.

    Emitted by ``ShardPlan.apply_churn`` for every shard the event
    touches; the cluster episode forwards it to the shard's worker as a
    ``ChurnRequest`` so out-of-process copies of the view stay in sync.
    Apply one with ``MUAAProblem.apply_delta``.  A joining vendor also
    listed in ``deactivate`` (a deactivated vendor whose cell migrated)
    arrives deactivated.
    """

    shard: int
    epoch: int
    retire: Tuple[int, ...] = ()
    deactivate: Tuple[int, ...] = ()
    join: Tuple[VendorJoin, ...] = ()


class ChurnSchedule:
    """Churn events keyed by the arrival tick at which they fire."""

    def __init__(self, events: Iterable[ChurnEvent] = ()) -> None:
        self._by_tick: Dict[int, List[ChurnEvent]] = {}
        self._count = 0
        for event in events:
            self.add(event)

    def add(self, event: ChurnEvent) -> None:
        """Schedule one event at its ``tick``."""
        self._by_tick.setdefault(event.tick, []).append(event)
        self._count += 1

    def at(self, tick: int) -> Tuple[ChurnEvent, ...]:
        """Events scheduled to fire at one arrival index."""
        return tuple(self._by_tick.get(tick, ()))

    @property
    def events(self) -> Tuple[ChurnEvent, ...]:
        """All events, ordered by tick (stable within a tick)."""
        ordered: List[ChurnEvent] = []
        for tick in sorted(self._by_tick):
            ordered.extend(self._by_tick[tick])
        return tuple(ordered)

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0


def seeded_vendor_churn(
    problem,
    n_events: int,
    seed: int,
    n_ticks: int,
    plan=None,
    kinds: Sequence[str] = EVENT_KINDS,
) -> ChurnSchedule:
    """A deterministic vendor join/leave/exhaust/migrate plan.

    Events are spread evenly over ``(0, n_ticks)`` and drawn from a
    dedicated RNG stream (``stream_rng(seed, "churn")`` -- the shared
    :mod:`repro.seeding` derivation, so scenario move/arrival schedules
    drawing their own streams can never shift these draws).  Joining
    vendors
    get fresh ids above the existing catalogue, locations uniform in
    the unit square, radii/budgets sampled within the existing range,
    and the tag vector of a seeded donor vendor -- so the utility model
    keeps working unchanged.  ``migrate`` events (emitted only when a
    non-identity ``plan`` is supplied) move one occupied cell from a
    seeded source shard to its neighbour.

    Args:
        problem: The instance the events will apply to.
        n_events: Number of events to schedule.
        seed: Seed for the dedicated churn RNG stream.
        n_ticks: Length of the arrival stream the schedule spans.
        plan: Optional :class:`~repro.sharding.plan.ShardPlan`; enables
            ``migrate`` events.
        kinds: Event kinds to draw from (deterministically filtered to
            the ones applicable to this problem/plan).
    """
    rng = stream_rng(seed, "churn")
    usable = [k for k in kinds if k in EVENT_KINDS]
    if plan is None or getattr(plan, "is_identity", True):
        usable = [k for k in usable if k != KIND_MIGRATE]
    if not usable:
        raise ValueError("no applicable churn event kinds")

    vendors = list(problem.vendors)
    if not vendors:
        raise ValueError("cannot build a churn plan for a vendor-less problem")
    next_id = max(v.vendor_id for v in vendors) + 1
    radii = sorted(v.radius for v in vendors)
    budgets = sorted(v.budget for v in vendors)
    #: ids eligible for retire/deactivate (never retire a vendor twice).
    live = [v.vendor_id for v in vendors]

    schedule = ChurnSchedule()
    for index in range(n_events):
        tick = max(1, ((index + 1) * n_ticks) // (n_events + 1))
        kind = rng.choice(usable)
        if kind == KIND_INSERT or (kind in (KIND_RETIRE, KIND_DEACTIVATE) and not live):
            donor = rng.choice(vendors)
            vendor = Vendor(
                vendor_id=next_id,
                location=(rng.random(), rng.random()),
                radius=rng.uniform(radii[0], radii[-1]),
                budget=rng.uniform(budgets[0], budgets[-1]),
                tags=donor.tags,
            )
            next_id += 1
            live.append(vendor.vendor_id)
            schedule.add(ChurnEvent(kind=KIND_INSERT, tick=tick, vendor=vendor))
        elif kind == KIND_RETIRE:
            vendor_id = live.pop(rng.randrange(len(live)))
            schedule.add(
                ChurnEvent(kind=KIND_RETIRE, tick=tick, vendor_id=vendor_id)
            )
        elif kind == KIND_DEACTIVATE:
            vendor_id = rng.choice(live)
            schedule.add(
                ChurnEvent(kind=KIND_DEACTIVATE, tick=tick, vendor_id=vendor_id)
            )
        else:  # KIND_MIGRATE
            src = rng.randrange(plan.n_shards)
            dst = (src + 1) % plan.n_shards
            cells = sorted(
                {
                    plan.cell_of(problem.vendors_by_id[vid].location)
                    for vid in plan.vendor_ids(src)
                    if vid in problem.vendors_by_id
                }
            )
            if not cells:
                schedule.add(
                    ChurnEvent(kind=KIND_MIGRATE, tick=tick, src=src, dst=dst)
                )
                continue
            cell = cells[rng.randrange(len(cells))]
            schedule.add(
                ChurnEvent(
                    kind=KIND_MIGRATE,
                    tick=tick,
                    cells=(cell,),
                    src=src,
                    dst=dst,
                )
            )
    return schedule
