"""The three workloads of the ad-broker benchmark.

Each workload generates its instance from the seed, sets itself up
(timed as ``setup_s``), then repeats whole passes of the same work for
the measured seconds, and finally checks its outputs with
:mod:`oracle` and against a reference path the timed code does not
take.  Why each workload exists, and which layers it stresses, is in
``README.md`` beside this file.

* ``serve-poisson`` -- 4-shard sharded store, booted by ``mmap``,
  replayed through :class:`repro.serve.ReplayDriver` from a seeded
  Poisson schedule well below capacity (no request shed or expired).
* ``offline-plan`` -- GREEDY then serial RECON on one unsharded
  instance.
* ``stream-churn`` -- sequential O-AFA through
  :class:`repro.stream.OnlineSimulator` over a 4-shard plan with a warm
  engine, with seeded vendor churn (insert, retire, deactivate and cell
  migration) spread across the stream.
"""

from __future__ import annotations

import gc
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.store as store_mod
from repro.algorithms import calibration
from repro.algorithms import recon as recon_mod
from repro.algorithms.bounds import combined_bound
from repro.algorithms.greedy import GreedyEfficiency
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.algorithms.recon import Reconciliation
from repro.churn import ChurnSchedule, seeded_vendor_churn
from repro.core import problem as problem_mod
from repro.core.problem import MUAAProblem
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem
from repro.engine import engine as engine_mod
from repro.engine.engine import ComputeEngine
from repro.engine.sharded import ShardedEngine
from repro.serve import ReplayDriver, ServeConfig, build_schedule
from repro.serve.request import SERVED
from repro.sharding import ShardPlan
from repro.stream.simulator import OnlineSimulator
from repro.taxonomy.foursquare import foursquare_taxonomy
from repro.utility.activity import ActivityModel
from repro.utility.model import TaxonomyUtilityModel

import oracle
from tracer import Tracer

#: Set-ups per run of the workloads that set up once (median reported).
SETUP_REPEATS = 5

#: Customers sampled per shard view for the O-AFA threshold fit.
CALIBRATION_SAMPLE = 500

#: Shards of the serve and stream workloads.
SHARDS = 4


@dataclass(frozen=True)
class Size:
    """Make-up of one workload's instance and schedule."""

    customers: int
    vendors: int
    #: Budget and radius ranges.  Every instance is contended: about
    #: half of the vendors exhaust their budget and the phi threshold
    #: rejects candidates.
    budgets: Tuple[float, float] = (5.0, 15.0)
    radii: Tuple[float, float] = (0.02, 0.04)
    #: serve-poisson: offered Poisson rate (requests per virtual second).
    rate: float = 0.0
    #: stream-churn: migrate events, and insert/retire/deactivate events.
    migrations: int = 0
    other_events: int = 0
    #: stream-churn: shard-plan cell side (floored at the max radius).
    cell: float = 0.0


SIZES: Dict[str, Dict[str, Size]] = {
    "serve-poisson": {
        "full": Size(
            customers=20_000, vendors=400, budgets=(10.0, 30.0),
            radii=(0.03, 0.06), rate=1_500.0,
        ),
        "tiny": Size(customers=600, vendors=40, rate=500.0),
    },
    "offline-plan": {
        "full": Size(customers=50_000, vendors=1_200),
        "tiny": Size(customers=600, vendors=40),
    },
    "stream-churn": {
        "full": Size(
            customers=20_000, vendors=400, budgets=(10.0, 30.0),
            radii=(0.03, 0.06), migrations=20, other_events=20, cell=0.125,
        ),
        "tiny": Size(
            customers=600, vendors=40, migrations=4, other_events=4,
            cell=0.125,
        ),
    },
}

#: Serving knobs: the queue holds every request of a pass, and there is
#: no deadline and no rate limit, so nothing is shed or expires.
SERVE_CONFIG = dict(max_batch=64, max_wait=0.002, queue_depth=1_000_000)

# --- per-layer metrics (traced run) -----------------------------------

#: Per-layer metrics taken from set-up, as opposed to timed passes.
SETUP_LAYERS = (
    "engine.build_s", "engine.edges", "store.save_s", "store.attach_s",
    "sharding.plan_s", "calibration.fit_s",
)

#: Every per-layer metric and its unit, in report order.
LAYER_UNITS = {
    "engine.build_s": "s",
    "engine.edges": "count",
    "engine.batch_best_calls": "count",
    "engine.batch_best_s": "s",
    "store.save_s": "s",
    "store.attach_s": "s",
    "sharding.plan_s": "s",
    "sharding.route_s": "s",
    "calibration.fit_s": "s",
    "serve.batches": "count",
    "serve.batch_size_mean": "count",
    "serve.score_s": "s",
    "serve.score_ms_p50": "ms",
    "serve.score_ms_p99": "ms",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p99": "ms",
    "serve.driver_s": "s",
    "greedy.solve_s": "s",
    "recon.solve_s": "s",
    "mckp.solve_s": "s",
    "mckp.calls": "count",
    "recon.reconcile_s": "s",
    "recon.violations": "count",
    "stream.decide_s": "s",
    "stream.decisions": "count",
    "churn.insert_s": "s",
    "churn.retire_s": "s",
    "churn.deactivate_s": "s",
    "churn.migrate_s": "s",
    "churn.events": "count",
    "spatial.customer_index_builds": "count",
    "trace.overhead_pct": "%",
}

#: Per-layer metrics taken from timed passes.
PASS_LAYERS = tuple(k for k in LAYER_UNITS if k not in SETUP_LAYERS)

_ENGINE_BUILD = (
    "engine.create", "engine.build_edges", "engine.pair_bases", "engine.warm"
)
_CHURN_KINDS = ("insert", "retire", "deactivate", "migrate")


def _count_edges(tracer, result, args, kwargs) -> None:
    tracer.counts["engine.edges"] += len(result)


def _count_violations(tracer, result, args, kwargs) -> None:
    tracer.counts["recon.violations"] += int(
        args[0].last_stats.get("violated_customers", 0)
    )


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the entry point of every layer the workloads reach.

    Module-level functions are wrapped where their caller looks them
    up (``build_candidate_edges`` and the Eq. 4/5 kernel in the engine
    module, ``solve_mckp``/``reconcile_capacity`` in the RECON module,
    ``build_customer_index`` in the problem module).
    """
    wrap = tracer.wrap
    wrap(ComputeEngine, "create", "engine.create")
    wrap(engine_mod, "build_candidate_edges", "engine.build_edges",
         on_call=_count_edges)
    wrap(engine_mod, "_kernel_pair_bases", "engine.pair_bases")
    wrap(ComputeEngine, "warm", "engine.warm")
    wrap(ComputeEngine, "batch_best", "engine.batch_best")
    wrap(store_mod, "save_sharded", "store.save")
    wrap(store_mod, "load_engine", "store.load")
    wrap(ShardedEngine, "attach_store", "store.attach")
    wrap(ShardPlan, "build", "sharding.plan")
    wrap(ShardPlan, "route", "sharding.route")
    wrap(calibration, "observed_efficiencies", "calibration.fit")
    wrap(calibration, "estimate_gamma_bounds", "calibration.fit")
    wrap(GreedyEfficiency, "solve", "greedy.solve")
    wrap(Reconciliation, "solve", "recon.solve", on_call=_count_violations)
    wrap(recon_mod, "solve_mckp", "mckp.solve")
    wrap(recon_mod, "reconcile_capacity", "recon.reconcile")
    wrap(OnlineAdaptiveFactorAware, "process_customer", "stream.decide")
    wrap(ShardPlan, "apply_churn", lambda args, kwargs: "churn." + args[1].kind)
    wrap(problem_mod, "build_customer_index", "spatial.customer_index")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (0 for no samples)."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def layer_values(tracer: Tracer, mark: int, counts_before) -> Dict[str, float]:
    """Per-layer values of the spans and counts recorded since ``mark``."""
    counts = tracer.counts - counts_before
    total = lambda *names: tracer.total(names, mark)  # noqa: E731
    out = {
        "engine.build_s": total(*_ENGINE_BUILD),
        "engine.edges": counts["engine.edges"],
        "engine.batch_best_calls": counts["engine.batch_best.calls"],
        "engine.batch_best_s": total("engine.batch_best"),
        "store.save_s": total("store.save"),
        "store.attach_s": total("store.attach", "store.load"),
        "sharding.plan_s": total("sharding.plan"),
        "sharding.route_s": total("sharding.route"),
        "calibration.fit_s": total("calibration.fit"),
        "greedy.solve_s": total("greedy.solve"),
        "recon.solve_s": total("recon.solve"),
        "mckp.solve_s": total("mckp.solve"),
        "mckp.calls": counts["mckp.solve.calls"],
        "recon.reconcile_s": total("recon.reconcile"),
        "recon.violations": counts["recon.violations"],
        "stream.decide_s": total("stream.decide"),
        "stream.decisions": counts["stream.decide.calls"],
        "churn.events": sum(counts[f"churn.{k}.calls"] for k in _CHURN_KINDS),
        "spatial.customer_index_builds": counts["spatial.customer_index.calls"],
    }
    for kind in _CHURN_KINDS:
        out[f"churn.{kind}_s"] = total(f"churn.{kind}")
    return out


# --- shared helpers ----------------------------------------------------

def scalar_model() -> TaxonomyUtilityModel:
    """A fresh scalar Eq. 4 model, built like the generator's."""
    return TaxonomyUtilityModel(ActivityModel.diurnal(foursquare_taxonomy()))


def generate(size: Size, seed: int) -> MUAAProblem:
    """The seeded synthetic instance of one workload."""
    return synthetic_problem(
        WorkloadConfig(
            n_customers=size.customers,
            n_vendors=size.vendors,
            budget_range=ParameterRange(*size.budgets),
            radius_range=ParameterRange(*size.radii),
            seed=seed,
        )
    )


def calibrate(views, seed: int) -> OnlineAdaptiveFactorAware:
    """O-AFA with thresholds fit on the efficiencies of every shard
    view's built engine (a broker calibrating on the day's table)."""
    observed: List[float] = []
    for view in views:
        observed.extend(
            calibration.observed_efficiencies(view, CALIBRATION_SAMPLE, seed)
        )
    bounds = calibration.estimate_gamma_bounds(observed)
    return OnlineAdaptiveFactorAware(gamma_min=bounds.gamma_min, g=bounds.g)


def check_against(problem, instances, reported, vendors=None) -> List[str]:
    """:func:`oracle.check_assignment` over ``problem``'s entities."""
    return oracle.check_assignment(
        instances,
        {c.customer_id: c for c in problem.customers},
        vendors if vendors is not None else dict(problem.vendors_by_id),
        dict(problem.ad_types_by_id),
        scalar_model(),
        reported,
    )


@dataclass
class Tally:
    """What one workload run produced: operation counts, set-up times,
    end-to-end values of the untraced passes, and check results.

    Passes are checked one by one, so no pass output but the first
    outlives its pass.
    """

    attempted: int = 0
    failed: int = 0
    passes: int = 0
    problems: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    #: One dict of end-to-end values per untraced pass.
    values: List[Dict[str, float]] = field(default_factory=list)
    utility: float = 0.0
    #: What pass 0 kept for the final checks, and its identity.
    first: object = None
    reference: object = None

    def fail(self, problem: str) -> None:
        self.problems.append(f"pass {self.passes}: {problem}")

    def same_as_first(self, identity, keep) -> None:
        """Close one pass: keep pass 0's output, and report any later
        pass whose output ``identity`` differs from pass 0's."""
        if self.passes == 0:
            self.first, self.reference = keep, identity
        elif identity != self.reference:
            self.fail("output differs from pass 0")
        self.passes += 1


class Runner:
    """Drives set-ups and passes, tracing every other pass when asked."""

    def __init__(self, seconds: float, tracer: Optional[Tracer]) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.layer_units: List[Dict[str, float]] = []
        self.walls: Dict[bool, List[float]] = {False: [], True: []}
        #: Peak resident MiB when the timed passes ended (before checks).
        self.peak_rss_mb = 0.0

    def unit(self, traced: bool, body: Callable, keys=None):
        """Time ``body()`` and return ``(seconds, its result)``; when
        traced, also record its per-layer values (only ``keys``).

        The heap is collected first, outside the timed region, so a
        full collection of the previous unit's garbage cannot land at a
        random point of this one.
        """
        gc.collect()
        tracer = self.tracer
        if not traced:
            start = time.perf_counter()
            result = body()
            return time.perf_counter() - start, result
        mark = len(tracer.spans)
        before = tracer.counts.copy()
        install_layer_wrappers(tracer)
        try:
            start = time.perf_counter()
            result = body()
            seconds = time.perf_counter() - start
        finally:
            tracer.restore()
        values = layer_values(tracer, mark, before)
        if keys is not None:
            values = {k: v for k, v in values.items() if k in keys}
        self.layer_units.append(values)
        return seconds, result

    def loop(self, one_pass: Callable[[bool], Tuple[float, Dict]]):
        """Repeat whole passes until the measured seconds are spent.

        ``one_pass(traced)`` returns ``(wall seconds, values)``; the
        values of the untraced passes are returned.  In a trace run,
        passes alternate untraced and traced (at least one of each), so
        the tracing overhead is measured in-process.
        """
        untraced = []
        start = time.perf_counter()
        index = 0
        while True:
            traced = self.tracer is not None and index % 2 == 1
            wall, values = one_pass(traced)
            self.walls[traced].append(wall)
            if not traced:
                untraced.append(values)
            index += 1
            enough = time.perf_counter() - start >= self.seconds
            if enough and (self.tracer is None or index >= 2):
                # ru_maxrss is in KiB on Linux.
                self.peak_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                )
                return untraced


# --- serve-poisson -----------------------------------------------------

def run_serve(seed: int, size: Size, runner: Runner, workdir: str) -> Tally:
    problem = generate(size, seed)
    schedule = build_schedule(
        problem.customers, rate=size.rate, process="poisson", seed=seed
    )
    expected = [a.customer.customer_id for a in schedule]
    tracer = runner.tracer

    def set_up():
        plan = ShardPlan.build(problem, SHARDS)
        directory = tempfile.mkdtemp(prefix="store-", dir=workdir)
        store_mod.save_sharded(plan, directory)
        sharded = ShardedEngine.create(plan)
        sharded.attach_store(directory)
        views = []
        for shard in range(plan.n_shards):
            sharded.engine(shard).warm()
            views.append(plan.problem_for(shard))
        return plan, sharded, calibrate(views, seed)

    tally = Tally()
    for _ in range(SETUP_REPEATS):
        seconds, state = runner.unit(tracer is not None, set_up, SETUP_LAYERS)
        tally.setup_s.append(seconds)
    plan, sharded, algorithm = state

    def one_pass(traced: bool):
        driver = ReplayDriver(
            problem, algorithm, config=ServeConfig(**SERVE_CONFIG),
            shard_plan=plan, sharded_engine=sharded,
        )
        waits: List[float] = []
        sizes: List[int] = []

        def replay():
            if traced:
                def note_batch(tracer, result, args, kwargs):
                    # The driver advances its virtual clock only after
                    # scoring returns, so ``now`` is the flush instant.
                    now = driver.clock.now()
                    waits.extend(now - r.arrival_time for r in args[0])
                    sizes.append(len(args[0]))
                tracer.wrap(driver.scorer, "score", "serve.score",
                            on_call=note_batch)
            return driver.run(schedule)

        mark = len(tracer.spans) if traced else 0
        wall, result = runner.unit(traced, replay, PASS_LAYERS)
        stats = result.stats
        lat = stats.latencies
        values = {
            "throughput_per_s": stats.served / wall,
            "p50_ms": percentile(lat, 50) * 1e3,
            "p99_ms": percentile(lat, 99) * 1e3,
            "plan_s": wall,
        }
        if traced:
            scores = tracer.durations("serve.score", mark)
            runner.layer_units[-1].update({
                "serve.batches": len(scores),
                "serve.batch_size_mean": statistics.fmean(sizes),
                "serve.score_s": sum(scores),
                "serve.score_ms_p50": percentile(scores, 50) * 1e3,
                "serve.score_ms_p99": percentile(scores, 99) * 1e3,
                "serve.queue_wait_ms_p50": percentile(waits, 50) * 1e3,
                "serve.queue_wait_ms_p99": percentile(waits, 99) * 1e3,
                "serve.driver_s": wall - sum(scores),
            })

        # Checks of this pass, outside its timed replay.
        decisions = result.decisions
        if [d.customer_id for d in decisions] != expected:
            tally.fail("requests not answered once each, in order")
        unserved = sum(1 for d in decisions if d.status != SERVED)
        if unserved:
            tally.fail(f"{unserved} requests not served")
        if stats.rejected_instances:
            tally.fail(f"{stats.rejected_instances} instances rejected")
        tally.attempted += stats.submitted
        tally.failed += stats.submitted - stats.served
        assignment = driver.scorer.assignment
        tally.same_as_first(oracle.triples(assignment), (result, assignment))
        return wall, values

    tally.values = runner.loop(one_pass)

    first_result, first = tally.first
    tally.problems += check_against(
        problem, first, first_result.stats.utility
    )
    sequential = OnlineSimulator(problem).run(
        algorithm,
        arrivals=[a.customer for a in schedule],
        measure_latency=False,
        shard_plan=plan,
    )
    if oracle.triples(sequential.assignment) != tally.reference:
        tally.problems.append("batched decisions differ from sequential O-AFA")
    tally.utility = first_result.stats.utility
    return tally


# --- offline-plan ------------------------------------------------------

def run_offline(seed: int, size: Size, runner: Runner, workdir: str) -> Tally:
    problem = generate(size, seed)
    tracer = runner.tracer

    def set_up():
        problem.drop_engine()
        problem.warm_utilities()

    tally = Tally(setup_s=[
        runner.unit(tracer is not None, set_up, SETUP_LAYERS)[0]
        for _ in range(SETUP_REPEATS)
    ])

    def one_pass(traced: bool):
        greedy = GreedyEfficiency()
        recon = Reconciliation(seed=seed, jobs=1)
        vendor_s: List[float] = []
        solve_vendor = recon._solve_single_vendor

        def timed_vendor(problem, vendor):
            start = time.perf_counter()
            try:
                return solve_vendor(problem, vendor)
            finally:
                vendor_s.append(time.perf_counter() - start)

        # Per-vendor planning latency is the offline workload's latency
        # distribution: one MCKP per vendor (Alg. 1, lines 2-5).
        recon._solve_single_vendor = timed_vendor

        def plan_both():
            return greedy.solve(problem), recon.solve(problem)

        wall, (greedy_plan, recon_plan) = runner.unit(
            traced, plan_both, PASS_LAYERS
        )
        tally.attempted += 2
        tally.same_as_first(
            (oracle.triples(greedy_plan), oracle.triples(recon_plan)),
            (greedy_plan, recon_plan),
        )
        return wall, {
            "throughput_per_s": len(problem.customers) / wall,
            "p50_ms": percentile(vendor_s, 50) * 1e3,
            "p99_ms": percentile(vendor_s, 99) * 1e3,
            "plan_s": wall,
        }

    tally.values = runner.loop(one_pass)

    greedy_plan, recon_plan = tally.first
    bound = combined_bound(problem)
    for name, plan in (("GREEDY", greedy_plan), ("RECON", recon_plan)):
        tally.problems += [
            f"{name}: {p}"
            for p in check_against(problem, plan, plan.total_utility)
        ]
        if plan.total_utility > bound * (1 + oracle.REL_TOL):
            tally.problems.append(
                f"{name}: utility {plan.total_utility!r} above the upper "
                f"bound {bound!r}"
            )
    tally.utility = recon_plan.total_utility
    return tally


# --- stream-churn ------------------------------------------------------

def churn_schedule(problem, plan, size: Size, seed: int) -> ChurnSchedule:
    """A fixed mix of churn events over the stream.

    Migrations and the other kinds are drawn as two seeded schedules
    of fixed length, so every seed gets the same number of migrate
    events (the costly kind) rather than a random share of them.
    """
    ticks = len(problem.customers)
    moves = seeded_vendor_churn(
        problem, size.migrations, seed=seed, n_ticks=ticks, plan=plan,
        kinds=("migrate",),
    )
    others = seeded_vendor_churn(
        problem, size.other_events, seed=seed, n_ticks=ticks,
        kinds=("insert", "retire", "deactivate"),
    )
    return ChurnSchedule(list(moves.events) + list(others.events))


def run_stream(seed: int, size: Size, runner: Runner, workdir: str) -> Tally:
    base = generate(size, seed)
    tracer = runner.tracer
    tally = Tally()

    def one_pass(traced: bool):
        # Churn changes the marketplace, so every pass starts from the
        # generated entities with a fresh problem, plan and engines.
        def set_up():
            problem = MUAAProblem(
                list(base.customers), list(base.vendors),
                list(base.ad_types), scalar_model(),
            )
            plan = ShardPlan.build(problem, SHARDS, cell_size=size.cell)
            views = [plan.problem_for(s) for s in range(plan.n_shards)]
            for view in views:
                view.warm_utilities()
            return problem, plan, calibrate(views, seed)

        seconds, (problem, plan, algorithm) = runner.unit(
            traced, set_up, SETUP_LAYERS
        )
        tally.setup_s.append(seconds)
        schedule = churn_schedule(problem, plan, size, seed)

        def stream():
            return OnlineSimulator(problem).run(
                algorithm, warm_engine=True, shard_plan=plan, churn=schedule
            )

        wall, result = runner.unit(traced, stream, PASS_LAYERS)
        lat = result.latencies
        values = {
            "throughput_per_s": len(problem.customers) / wall,
            "p50_ms": percentile(lat, 50) * 1e3,
            "p99_ms": percentile(lat, 99) * 1e3,
            "plan_s": wall,
        }
        if result.customers_lost or result.rejected_instances:
            tally.fail(
                f"{result.customers_lost} customers lost, "
                f"{result.rejected_instances} instances rejected"
            )
        if result.churn_epoch != len(schedule):
            tally.fail(
                f"churn epoch {result.churn_epoch} != {len(schedule)} events"
            )
        tally.attempted += len(problem.customers) + len(schedule)
        tally.failed += result.customers_lost
        tally.same_as_first(
            oracle.triples(result.assignment), (result, schedule)
        )
        return wall, values

    tally.values = runner.loop(one_pass)

    first, schedule = tally.first
    # The churned marketplace: every vendor that was ever live,
    # including those inserted mid-stream and those retired later.
    vendors = {v.vendor_id: v for v in base.vendors}
    for event in schedule.events:
        if event.vendor is not None:
            vendors[event.vendor.vendor_id] = event.vendor
    tally.problems += check_against(
        base, first.assignment, first.total_utility, vendors=vendors
    )
    tally.utility = first.total_utility
    return tally


WORKLOADS = {
    "serve-poisson": run_serve,
    "offline-plan": run_offline,
    "stream-churn": run_stream,
}
