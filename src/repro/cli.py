"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      -- run the full algorithm panel on a synthetic instance
* ``figure N``  -- regenerate paper figure N's tables (3-8)
* ``ratio``     -- measure empirical approximation/competitive ratios
* ``calibrate`` -- print O-AFA's gamma/g calibration for a workload
* ``obs``       -- inspect recorded traces (``obs summary TRACE``)
* ``serve``     -- run the async micro-batching serving front-end
  over a seeded open-loop arrival stream (``docs/serving.md``)
* ``serve-cluster`` -- stream a workload through the process-per-shard
  cluster (optionally killing a shard mid-stream to watch recovery)
* ``build-artifact`` -- pre-build mmap-able engine artifacts (single or
  sharded) for ``--artifact`` consumers
* ``info``      -- runtime/backend card of this installation

``demo`` and ``reproduce`` accept ``--artifact DIR`` (a fingerprint-
keyed engine artifact cache: warm runs mmap their engines instead of
re-scoring); ``serve-cluster --artifact DIR`` boots shard workers from
a sharded store written by ``build-artifact --shards S``.

``demo``, ``figure`` and ``reproduce`` accept ``--trace PATH`` (record
a merged Chrome-trace timeline of the run, loadable in
chrome://tracing or Perfetto) and ``--metrics PATH`` (write the run's
metrics snapshot as JSON).

All commands are deterministic for a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.experiments.report import full_report


def _artifact_cache_from_args(args: argparse.Namespace):
    """The installed engine cache for ``--artifact DIR``, or a no-op."""
    directory = getattr(args, "artifact", None)
    if directory is None:
        from contextlib import nullcontext

        return nullcontext(None)
    from repro.store import engine_cache

    return engine_cache(directory)


def _report_cache(cache) -> None:
    if cache is not None:
        print(
            f"artifact cache {cache.directory}: "
            f"{cache.hits} warm load(s), {cache.misses} build(s)"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Maximizing the Utility in Location-Based "
            "Mobile Advertising' (ICDE 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_jobs(command) -> None:
        command.add_argument(
            "--jobs", "-j", type=int, default=1, metavar="N",
            help="worker processes for the experiment fan-out "
                 "(default 1 = serial; 0 = all cores; results are "
                 "identical at any value)",
        )

    def add_shards(command) -> None:
        command.add_argument(
            "--shards", "-s", type=int, default=1, metavar="S",
            help="spatial shards for the solvers (default 1 = "
                 "unsharded; peak memory becomes the largest shard; "
                 "total utility matches unsharded to within 1e-9)",
        )

    def add_obs(command) -> None:
        command.add_argument(
            "--trace", type=str, default=None, metavar="PATH",
            help="record the run and write a Chrome-trace timeline "
                 "(worker processes appear as separate lanes; load in "
                 "chrome://tracing or Perfetto)",
        )
        command.add_argument(
            "--metrics", type=str, default=None, metavar="PATH",
            help="write the run's metrics snapshot (counters, gauges, "
                 "histograms) as JSON",
        )

    def add_artifact(command) -> None:
        command.add_argument(
            "--artifact", type=str, default=None, metavar="DIR",
            help="engine artifact cache directory: problems warm-load "
                 "their engine from a matching artifact (mmap, no "
                 "re-scoring) and persist freshly built ones for the "
                 "next run; entries are fingerprint-keyed so a stale "
                 "artifact is never used (see docs/scale.md)",
        )

    def add_dtype(command) -> None:
        command.add_argument(
            "--dtype", choices=("float64", "float32"), default="float64",
            help="engine dtype policy: float64 = bitwise parity "
                 "reference; float32 = compact columns (half the edge "
                 "table, utilities within 1e-3 relative)",
        )

    demo = sub.add_parser("demo", help="run the algorithm panel once")
    demo.add_argument("--customers", type=int, default=2_000)
    demo.add_argument("--vendors", type=int, default=150)
    demo.add_argument("--seed", type=int, default=7)
    from repro.scenario import DEFAULT_SCENARIO, scenario_names

    demo.add_argument(
        "--scenario", type=str, default=DEFAULT_SCENARIO,
        choices=scenario_names(),
        help="workload scenario to realize before solving "
             f"(default: {DEFAULT_SCENARIO}, the paper's single-slot "
             "static setting; see `repro info` for the card)",
    )
    add_jobs(demo)
    add_shards(demo)
    add_obs(demo)
    add_artifact(demo)
    add_dtype(demo)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=range(3, 12),
                        help="figure number (3-8 paper, 9-11 scenarios)")
    figure.add_argument("--scale", type=float, default=None,
                        help="fraction of the paper's workload size")
    figure.add_argument("--seed", type=int, default=42)
    figure.add_argument("--csv", type=str, default=None,
                        help="also write the rows as CSV")
    figure.add_argument("--json", type=str, default=None,
                        help="also write the rows as JSON")
    add_jobs(figure)
    add_shards(figure)
    add_obs(figure)

    ratio = sub.add_parser(
        "ratio", help="empirical ratios vs the exact optimum"
    )
    ratio.add_argument("--instances", type=int, default=10)
    ratio.add_argument("--g", type=float, default=10.0)
    ratio.add_argument("--seed", type=int, default=0)

    calibrate = sub.add_parser(
        "calibrate", help="estimate gamma_min/gamma_max/g for a workload"
    )
    calibrate.add_argument("--customers", type=int, default=2_000)
    calibrate.add_argument("--vendors", type=int, default=150)
    calibrate.add_argument("--seed", type=int, default=7)

    bounds = sub.add_parser(
        "bounds", help="upper bounds and certified optimality gaps"
    )
    bounds.add_argument("--customers", type=int, default=1_000)
    bounds.add_argument("--vendors", type=int, default=80)
    bounds.add_argument("--seed", type=int, default=7)

    reproduce = sub.add_parser(
        "reproduce",
        help="run the whole evaluation section (figs 3-8 + scenario "
             "figs 9-11)",
    )
    reproduce.add_argument("--scale-multiplier", type=float, default=1.0)
    reproduce.add_argument("--seed", type=int, default=42)
    reproduce.add_argument("--out", type=str, default=None,
                           help="directory for the regenerated tables")
    reproduce.add_argument(
        "--figures", type=int, nargs="+", default=None,
        choices=range(3, 12), help="subset of figures to run",
    )
    add_jobs(reproduce)
    add_shards(reproduce)
    add_obs(reproduce)
    add_artifact(reproduce)

    stats = sub.add_parser(
        "stats", help="print the instance card of a workload"
    )
    stats.add_argument("--customers", type=int, default=2_000)
    stats.add_argument("--vendors", type=int, default=150)
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument(
        "--checkins", action="store_true",
        help="use the check-in workload instead of the synthetic one",
    )

    obs = sub.add_parser("obs", help="inspect recorded observability data")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_summary = obs_sub.add_parser(
        "summary",
        help="per-stage wall time and latency percentiles of a trace",
    )
    # dest must not be "trace": main() treats an args.trace attribute
    # as the recording flag, and obs must never record over its input.
    obs_summary.add_argument(
        "trace_file", metavar="TRACE",
        help="Chrome-trace JSON written by --trace",
    )

    serving = sub.add_parser(
        "serve",
        help="run the async micro-batching serving front-end over a "
             "seeded open-loop arrival stream",
    )
    serving.add_argument("--customers", type=int, default=1_000)
    serving.add_argument("--vendors", type=int, default=100)
    serving.add_argument("--seed", type=int, default=7)
    serving.add_argument(
        "--shards", "-s", type=int, default=1, metavar="S",
        help="route requests across S shard views (default 1 = "
             "unsharded; decisions match the unsharded stream)",
    )
    serving.add_argument(
        "--rps", type=float, default=500.0,
        help="mean offered arrival rate of the open-loop schedule",
    )
    serving.add_argument(
        "--arrival", choices=("poisson", "bursty"), default="poisson",
        help="seeded arrival process of the schedule",
    )
    serving.add_argument(
        "--mode", choices=("replay", "async"), default="replay",
        help="replay = deterministic virtual-time closed loop "
             "(default); async = real asyncio event loop with "
             "wall-clock waits",
    )
    serving.add_argument(
        "--max-batch", type=int, default=32,
        help="flush a micro-batch at this many queued requests",
    )
    serving.add_argument(
        "--max-wait-ms", type=float, default=5.0,
        help="flush when the oldest queued request waited this long",
    )
    serving.add_argument(
        "--queue-depth", type=int, default=256,
        help="bounded queue capacity; overflow sheds the "
             "lowest-expected-utility request",
    )
    serving.add_argument(
        "--rate-limit", type=float, default=None, metavar="RPS",
        help="token-bucket sustained admission rate (default: off)",
    )
    serving.add_argument(
        "--burst", type=float, default=None,
        help="token-bucket size (default max(1, rate))",
    )
    serving.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline; late work is dropped, not served",
    )
    serving.add_argument(
        "--artifact", type=str, default=None, metavar="DIR",
        help="with --shards S > 1: a sharded store written by `repro "
             "build-artifact --shards S`; only shards a batch routes "
             "to are demand-paged from mmap.  With --shards 1: a "
             "fingerprint-keyed engine cache (as in demo/reproduce)",
    )
    add_obs(serving)

    serve = sub.add_parser(
        "serve-cluster",
        help="serve a synthetic arrival stream through the "
             "process-per-shard cluster",
    )
    serve.add_argument("--customers", type=int, default=1_000)
    serve.add_argument("--vendors", type=int, default=100)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--shards", "-s", type=int, default=4, metavar="S",
        help="worker count (one shard and one worker per shard)",
    )
    serve.add_argument(
        "--transport", choices=("process", "inline"), default="process",
        help="process = one forked worker per shard over shared "
             "memory; inline = deterministic in-process stand-ins",
    )
    serve.add_argument(
        "--kill-shard", type=int, default=None, metavar="SHARD",
        help="chaos: SIGKILL this shard's worker mid-stream (the "
             "control plane restarts it with replay)",
    )
    serve.add_argument(
        "--kill-tick", type=int, default=None, metavar="TICK",
        help="arrival index of the kill (default: halfway)",
    )
    serve.add_argument(
        "--churn", type=int, default=0, metavar="N",
        help="apply N seeded vendor join/leave/exhaust/migrate events "
             "spread over the stream (delta-spliced, never rebuilt)",
    )
    serve.add_argument(
        "--churn-seed", type=int, default=None, metavar="SEED",
        help="seed of the churn event stream (default: --seed)",
    )
    serve.add_argument(
        "--artifact", type=str, default=None, metavar="DIR",
        help="sharded artifact store written by `repro build-artifact "
             "--shards S` (plan.json + shard-NNNN.cols): workers boot "
             "their shard engine from the mapped file instead of "
             "scoring locally or shipping shm columns",
    )
    add_obs(serve)

    build = sub.add_parser(
        "build-artifact",
        help="pre-build engine artifacts for a synthetic workload",
    )
    build.add_argument("--customers", type=int, default=2_000)
    build.add_argument("--vendors", type=int, default=150)
    build.add_argument("--seed", type=int, default=7)
    build.add_argument(
        "--radius", type=float, nargs=2, default=(0.03, 0.06),
        metavar=("LO", "HI"),
        help="vendor radius range of the workload; must match the "
             "consumer's (demo/figures use 0.03 0.06, serve-cluster "
             "uses 0.15 0.25)",
    )
    add_dtype(build)
    build.add_argument(
        "--shards", "-s", type=int, default=1, metavar="S",
        help="1 (default) writes one fingerprint-keyed engine artifact "
             "(consumed by demo/reproduce --artifact); S > 1 writes a "
             "sharded store -- plan.json + one artifact per shard "
             "(consumed by serve-cluster --artifact)",
    )
    build.add_argument(
        "--prune", choices=("exact", "lp"), default=None,
        help="prune the edge table before saving; 'exact' is certified "
             "utility-neutral for every solver, 'lp' additionally "
             "drops below-LP-marginal edges (bound-preserving)",
    )
    build.add_argument(
        "--out", type=str, required=True, metavar="DIR",
        help="output directory for the artifact(s)",
    )

    info = sub.add_parser(
        "info", help="print version, runtime, and backend information"
    )
    info.add_argument("--customers", type=int, default=500)
    info.add_argument("--vendors", type=int, default=50)
    info.add_argument("--seed", type=int, default=7)
    info.add_argument(
        "--shards", "-s", type=int, default=4, metavar="S",
        help="shard count of the sample shard card (default 4)",
    )
    return parser


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.validation import validate_assignment
    from repro.datagen.config import ParameterRange, WorkloadConfig
    from repro.datagen.synthetic import synthetic_problem
    from repro.experiments.runner import run_panel
    from repro.scenario import DEFAULT_SCENARIO, get_scenario

    problem = synthetic_problem(
        WorkloadConfig(
            n_customers=args.customers,
            n_vendors=args.vendors,
            radius_range=ParameterRange(0.03, 0.06),
            seed=args.seed,
        ),
        dtype=getattr(args, "dtype", None),
    )
    scenario = get_scenario(getattr(args, "scenario", DEFAULT_SCENARIO))
    run = scenario.realize(problem, args.seed)
    problem = run.problem
    if run.scenario != DEFAULT_SCENARIO:
        moved = f", {len(run.moves)} moves" if run.moves else ""
        print(f"scenario: {run.scenario} ({len(problem.customers)} "
              f"customers x {len(problem.vendors)} vendors{moved})")
    with _artifact_cache_from_args(args) as cache:
        results = run_panel(
            problem, seed=args.seed, jobs=args.jobs,
            shards=getattr(args, "shards", 1),
            moves=run.moves,
        )
    _report_cache(cache)
    print(f"{'algorithm':10s} {'utility':>12s} {'ads':>6s} {'time':>9s}")
    for name, result in results.items():
        # Range validation assumes static locations; under a move
        # schedule streaming members legitimately assign at mid-stream
        # positions, so the static check does not apply.
        flag = "" if run.moves is not None or validate_assignment(
            problem, result.assignment
        ).ok else "  INVALID"
        print(
            f"{name:10s} {result.total_utility:12.3f} "
            f"{len(result.assignment):6d} {result.wall_time:8.3f}s{flag}"
        )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import figure_by_number

    runner, default_scale = figure_by_number(args.number)
    scale = args.scale if args.scale is not None else default_scale
    result = runner(
        scale=scale, seed=args.seed, jobs=args.jobs,
        shards=getattr(args, "shards", 1),
    )
    from repro.experiments.report import utility_chart

    print(full_report(result))
    print()
    print(utility_chart(result))
    if args.csv:
        from repro.experiments.io import write_csv

        write_csv(result, args.csv)
        print(f"\nwrote {args.csv}")
    if args.json:
        from repro.experiments.io import write_json

        write_json(result, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_ratio(args: argparse.Namespace) -> int:
    from repro.experiments.ratios import (
        measure_online_ratio,
        measure_recon_ratio,
    )

    print(measure_recon_ratio(n_instances=args.instances, seed=args.seed))
    print(
        measure_online_ratio(
            n_instances=args.instances, seed=args.seed, g=args.g
        )
    )
    print(f"(Corollary IV.1 factor ln(g)+1 = {math.log(args.g) + 1:.2f})")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.algorithms.calibration import calibrate_from_problem
    from repro.datagen.config import ParameterRange, WorkloadConfig
    from repro.datagen.synthetic import synthetic_problem

    problem = synthetic_problem(
        WorkloadConfig(
            n_customers=args.customers,
            n_vendors=args.vendors,
            radius_range=ParameterRange(0.03, 0.06),
            seed=args.seed,
        )
    )
    bounds = calibrate_from_problem(problem, seed=args.seed)
    print(f"gamma_min = {bounds.gamma_min:.6f}")
    print(f"gamma_max = {bounds.gamma_max:.6f}")
    print(f"g         = {bounds.g:.2f}")
    print(f"ln(g)+1   = {math.log(bounds.g) + 1:.2f} "
          "(competitive bound factor, divide theta by it)")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.algorithms.bounds import (
        capacity_bound,
        combined_bound,
        vendor_lp_bound,
    )
    from repro.datagen.config import ParameterRange, WorkloadConfig
    from repro.datagen.synthetic import synthetic_problem
    from repro.experiments.runner import run_panel

    problem = synthetic_problem(
        WorkloadConfig(
            n_customers=args.customers,
            n_vendors=args.vendors,
            radius_range=ParameterRange(0.03, 0.06),
            seed=args.seed,
        )
    )
    vendor_side = vendor_lp_bound(problem)
    customer_side = capacity_bound(problem)
    bound = combined_bound(problem)
    print(f"vendor-LP bound   (budgets tight):    {vendor_side:12.3f}")
    print(f"capacity bound    (capacities tight): {customer_side:12.3f}")
    print(f"combined bound:                       {bound:12.3f}")
    results = run_panel(
        problem, algorithms=("GREEDY", "RECON", "ONLINE"), seed=args.seed
    )
    print("\ncertified fractions of the optimum:")
    for name, result in results.items():
        print(f"  {name:8s} >= {result.total_utility / bound:6.1%} "
              f"(utility {result.total_utility:.3f})")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.datagen.config import ParameterRange, WorkloadConfig
    from repro.datagen.stats import instance_card

    if args.checkins:
        from repro.datagen.checkins import (
            problem_from_checkins,
            simulate_checkins,
        )

        feed = simulate_checkins(
            n_users=max(50, args.customers // 10),
            n_venues=max(100, args.vendors * 3),
            n_checkins=max(2_000, args.customers * 4),
            seed=args.seed,
        )
        problem = problem_from_checkins(
            feed,
            max_customers=args.customers,
            max_vendors=args.vendors,
            seed=args.seed,
        )
    else:
        from repro.datagen.synthetic import synthetic_problem

        problem = synthetic_problem(
            WorkloadConfig(
                n_customers=args.customers,
                n_vendors=args.vendors,
                radius_range=ParameterRange(0.03, 0.06),
                seed=args.seed,
            )
        )
    print(instance_card(problem))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.paper import ALL_FIGURES, reproduce_all

    with _artifact_cache_from_args(args) as cache:
        report = reproduce_all(
            scale_multiplier=args.scale_multiplier,
            seed=args.seed,
            figures=tuple(args.figures) if args.figures else ALL_FIGURES,
            output_dir=args.out,
            progress=print,
            jobs=args.jobs,
            shards=getattr(args, "shards", 1),
        )
    _report_cache(cache)
    print()
    print(report.summary())
    if report.output_dir is not None:
        print(f"\ntables written to {report.output_dir}/")
    return 0 if report.all_passed else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.summary import spans_from_chrome_trace, summary_table

    spans = spans_from_chrome_trace(args.trace_file)
    if not spans:
        print(f"no spans recorded in {args.trace_file}")
        return 1
    print(summary_table(spans))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.algorithms.calibration import calibrate_from_problem
    from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
    from repro.datagen.config import ParameterRange, WorkloadConfig
    from repro.datagen.synthetic import synthetic_problem
    from repro.serve import (
        ReplayDriver,
        ServeConfig,
        build_schedule,
        utility_estimator,
    )

    problem = synthetic_problem(
        WorkloadConfig(
            n_customers=args.customers,
            n_vendors=args.vendors,
            radius_range=ParameterRange(0.03, 0.06),
            seed=args.seed,
        )
    )
    bounds = calibrate_from_problem(problem, seed=args.seed)
    algorithm = OnlineAdaptiveFactorAware(
        gamma_min=bounds.gamma_min, g=bounds.g
    )
    plan = None
    sharded = None
    if args.shards > 1:
        from repro.engine.sharded import ShardedEngine
        from repro.sharding import ShardPlan

        plan = ShardPlan.build(problem, args.shards)
        sharded = ShardedEngine.create(plan)
        if args.artifact is not None:
            if sharded is None:
                print("this workload's utility model has no vectorized "
                      "engine; --artifact needs one")
                return 2
            sharded.attach_store(args.artifact)
            print(f"artifact store: {args.artifact} (only routed shards "
                  f"demand-page their engine)")
    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait=args.max_wait_ms / 1000.0,
        queue_depth=args.queue_depth,
        rate=args.rate_limit,
        burst=args.burst,
        deadline=(
            None if args.deadline_ms is None else args.deadline_ms / 1000.0
        ),
    )
    schedule = build_schedule(
        problem.customers, rate=args.rps,
        process=args.arrival, seed=args.seed,
    )
    if args.shards == 1:
        cache_ctx = _artifact_cache_from_args(args)
    else:
        from contextlib import nullcontext

        cache_ctx = nullcontext(None)
    with cache_ctx as cache:
        # The shed policy ranks by the engine-backed utility estimate
        # when the global engine is (or will be) resident; with a
        # sharded demand-paged store the cheap prior avoids building
        # the global table the store exists to replace.
        estimator = None if sharded is not None else utility_estimator(problem)
        if args.mode == "replay":
            driver = ReplayDriver(
                problem,
                algorithm,
                config,
                shard_plan=plan,
                sharded_engine=sharded,
                estimator=estimator,
            )
            result = driver.run(schedule)
        else:
            result = _serve_async(
                problem, algorithm, config, schedule,
                plan, sharded, estimator,
            )
    _report_cache(cache)
    card = result.card()
    width = max(len(key) for key in card)
    for key, value in card.items():
        if isinstance(value, float):
            print(f"{key:{width}s}  {value:.6g}")
        else:
            print(f"{key:{width}s}  {value}")
    if sharded is not None:
        paged = sorted(sharded.loads_by_shard)
        if paged:
            print(f"shards demand-paged from store: {paged}")
    return 0


def _serve_async(
    problem, algorithm, config, schedule, plan, sharded, estimator
):
    import asyncio
    import time

    from repro.serve import AdServer, ServeResult, run_open_loop
    from repro.serve.server import default_estimator

    async def episode():
        server = AdServer.create(
            problem,
            algorithm,
            max_batch=config.max_batch,
            max_wait=config.max_wait,
            queue_depth=config.queue_depth,
            rate=config.rate,
            burst=config.burst,
            shard_plan=plan,
            sharded_engine=sharded,
            estimator=(
                estimator if estimator is not None else default_estimator
            ),
            warm=config.warm,
        )
        start = time.perf_counter()
        async with server:
            await run_open_loop(server, schedule, deadline=config.deadline)
        return server.stats, time.perf_counter() - start

    stats, duration = asyncio.run(episode())
    offered = 0.0
    if schedule and schedule[-1].time > 0:
        offered = len(schedule) / schedule[-1].time
    return ServeResult(
        stats=stats, duration=duration, offered_rps=offered
    )


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    import multiprocessing

    from repro.cluster import ChaosEvent, ChaosPlan, ClusterConfig, run_episode
    from repro.datagen.config import ParameterRange, WorkloadConfig
    from repro.datagen.synthetic import synthetic_problem

    transport = args.transport
    if (
        transport == "process"
        and "fork" not in multiprocessing.get_all_start_methods()
    ):
        print("fork start method unavailable; using the inline transport")
        transport = "inline"
    problem = synthetic_problem(
        WorkloadConfig(
            n_customers=args.customers,
            n_vendors=args.vendors,
            seed=args.seed,
            radius_range=ParameterRange(0.15, 0.25),
        )
    )
    chaos = None
    if args.kill_shard is not None:
        if not 0 <= args.kill_shard < args.shards:
            print(
                f"--kill-shard must be in [0, {args.shards}), "
                f"got {args.kill_shard}"
            )
            return 2
        tick = (
            args.customers // 2 if args.kill_tick is None else args.kill_tick
        )
        chaos = ChaosPlan(
            seed=args.seed,
            events=(
                ChaosEvent(tick=tick, kind="kill", shard=args.kill_shard),
            ),
        )
        print(
            f"chaos: killing shard {args.kill_shard} at tick {tick}"
        )
    plan = None
    churn = None
    if args.churn > 0:
        from repro.churn import seeded_vendor_churn
        from repro.sharding import ShardPlan

        plan = ShardPlan.build(problem, args.shards)
        churn_seed = (
            args.seed if args.churn_seed is None else args.churn_seed
        )
        churn = seeded_vendor_churn(
            problem,
            args.churn,
            seed=churn_seed,
            n_ticks=args.customers,
            plan=plan,
        )
        print(
            f"churn: {len(churn)} seeded event(s), seed {churn_seed}"
        )
    if args.artifact is not None:
        print(f"artifact store: {args.artifact} (shards with a saved "
              f"shard-NNNN.cols boot from it)")
    result = run_episode(
        problem,
        ClusterConfig(
            shards=args.shards,
            transport=transport,
            artifact_dir=args.artifact,
        ),
        chaos=chaos,
        shard_plan=plan,
        churn=churn,
    )
    print(result.card())
    return 0


def _cmd_build_artifact(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.datagen.config import ParameterRange, WorkloadConfig
    from repro.datagen.synthetic import synthetic_problem
    from repro.store import EngineCache, save_sharded

    problem = synthetic_problem(
        WorkloadConfig(
            n_customers=args.customers,
            n_vendors=args.vendors,
            radius_range=ParameterRange(*args.radius),
            seed=args.seed,
        ),
        dtype=args.dtype,
    )
    out = Path(args.out)
    if args.shards > 1:
        from repro.sharding import ShardPlan

        plan = ShardPlan.build(problem, args.shards)
        paths = save_sharded(plan, out, prune=args.prune)
        for path in paths:
            print(f"wrote {path}")
        if args.prune is not None:
            print(f"each shard pruned at level={args.prune} "
                  f"(certificates saved in the artifacts)")
        print(f"{args.shards} shard artifact(s) + plan.json in {out}/ "
              f"(consume with: repro serve-cluster --artifact {out})")
        return 0
    engine = problem.acquire_engine()
    if engine is None:
        print("this workload's utility model has no vectorized engine")
        return 2
    engine.num_edges
    engine.pair_bases
    if args.prune is not None:
        certificate = engine.prune(args.prune)
        print(f"pruned {certificate.edges_dropped} of "
              f"{certificate.edges_before} edges "
              f"({certificate.prune_ratio:.1%}, level={args.prune})")
    path = EngineCache(out).store(problem, engine)
    print(f"wrote {path} ({path.stat().st_size} bytes, "
          f"{engine.num_edges} edges, dtype {args.dtype})")
    print(f"consume with: repro demo --artifact {out} (matching "
          f"--customers/--vendors/--seed/--dtype)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    import platform

    import numpy

    import repro
    from repro.mckp.solvers import _BACKENDS, SOLVER_NAMES
    from repro.parallel.pool import available_cpus, start_method
    from repro.parallel.shm import HAVE_SHARED_MEMORY

    backends = ", ".join(
        name for name in SOLVER_NAMES if callable(_BACKENDS.get(name))
    )
    print(f"repro version:  {repro.__version__}")
    print(f"python:         {platform.python_version()}")
    print(f"numpy:          {numpy.__version__}")
    print(f"platform:       {platform.platform()}")
    print(f"cpu count:      {available_cpus()} (usable by --jobs)")
    print(f"start method:   {start_method()} (worker pool)")
    print(f"shared memory:  {'yes' if HAVE_SHARED_MEMORY else 'no'}")
    print(f"mckp backends:  {backends}")
    print("lp backend:     in-tree simplex (repro.lp.model.LinearProgram)")

    # Shard card of a small sample instance: what --shards would do.
    from repro.datagen.config import ParameterRange, WorkloadConfig
    from repro.datagen.synthetic import synthetic_problem
    from repro.sharding import ShardPlan

    problem = synthetic_problem(
        WorkloadConfig(
            n_customers=args.customers,
            n_vendors=args.vendors,
            radius_range=ParameterRange(0.03, 0.06),
            seed=args.seed,
        )
    )
    plan = ShardPlan.build(problem, shards=args.shards)
    print()
    print(f"shard card ({args.customers} customers x {args.vendors} "
          f"vendors, seed {args.seed}, --shards {args.shards}):")
    for line in plan.card().splitlines():
        print(f"  {line}")

    # Cluster card: what serve-cluster would run on this machine.
    from repro.cluster.episode import TRANSPORTS

    default_transport = "process" if start_method() == "fork" else "inline"
    print()
    print("cluster card (repro serve-cluster):")
    print(f"  transports:     {', '.join(TRANSPORTS)} "
          f"(default: {default_transport})")
    print(f"  workers:        one process per shard "
          f"({plan.n_shards} at --shards {args.shards})")
    print(f"  engine columns: {'shared memory' if HAVE_SHARED_MEMORY else 'per-worker local scoring'}")
    print("  resilience:     per-shard breakers, heartbeats, "
          "restart-with-replay, replica/static/nearest/shed ladder")

    # Churn card: live marketplace churn on the sample plan.
    from repro.churn import EVENT_KINDS, seeded_vendor_churn

    sample = seeded_vendor_churn(
        problem, 8, seed=args.seed, n_ticks=args.customers, plan=plan
    )
    kinds: dict = {}
    for event in sample.events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    mix = ", ".join(f"{kind}={kinds[kind]}" for kind in sorted(kinds))
    print()
    print("churn card (serve-cluster --churn N):")
    print(f"  event kinds:    {', '.join(EVENT_KINDS)}")
    print(f"  plan epoch:     {plan.epoch} "
          f"(schema v2 metadata round-trips the epoch)")
    print(f"  sample of 8:    {mix} (seed {args.seed})")
    print("  delta path:     engine segments spliced in place; "
          "cold rebuild kept as the parity reference")

    # Serving card: the async front-end (docs/serving.md).
    from repro.serve import ServeConfig
    from repro.serve.loadgen import PROCESSES
    from repro.serve.request import STATUSES

    defaults = ServeConfig()
    print()
    print("serving card (repro serve, docs/serving.md):")
    print(f"  micro-batching: flush at max_batch={defaults.max_batch} "
          f"or max_wait={defaults.max_wait * 1000:.0f}ms; one engine "
          f"kernel call per routed shard")
    print(f"  admission:      bounded queue (depth "
          f"{defaults.queue_depth}, sheds lowest expected utility "
          f"first) + optional token bucket + per-request deadlines")
    print(f"  arrivals:       {', '.join(PROCESSES)} (seeded, open-loop)")
    print(f"  statuses:       {', '.join(STATUSES)}")
    print("  parity:         batch decisions identical to the "
          "sequential online stream over the same arrival order")

    # Scale card: dtype policies and the artifact store (docs/scale.md).
    from repro.engine import FLOAT32, FLOAT64
    from repro.store import ENGINE_SCHEMA_VERSION, FORMAT_VERSION, MAGIC

    print()
    print("scale card (docs/scale.md):")
    print(f"  dtype policies: {FLOAT64.name} (reference, bitwise parity) "
          f"| {FLOAT32.name} (compact, utility rtol "
          f"{FLOAT32.utility_rtol:.0e}, half the edge-table bytes)")
    print(f"  artifact store: {MAGIC.decode()} container v{FORMAT_VERSION}, "
          f"engine schema v{ENGINE_SCHEMA_VERSION}, mmap-able "
          f"(repro build-artifact / --artifact)")
    print("  edge pruning:   exact (certified utility-neutral) | lp "
          "(bound-preserving); certificates travel with artifacts")

    # Scenario card: pluggable workloads (docs/scenarios.md).
    from repro.scenario import DEFAULT_SCENARIO, SCENARIOS

    print()
    print("scenario card (repro demo --scenario, docs/scenarios.md):")
    for name in sorted(SCENARIOS):
        marker = " (default)" if name == DEFAULT_SCENARIO else ""
        print(f"  {name + ':':22s}{SCENARIOS[name].description}{marker}")
    print("  parity:         single-slot-static is the identity -- "
          "every solver output is bitwise the pre-scenario result")
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "figure": _cmd_figure,
    "ratio": _cmd_ratio,
    "calibrate": _cmd_calibrate,
    "bounds": _cmd_bounds,
    "stats": _cmd_stats,
    "reproduce": _cmd_reproduce,
    "obs": _cmd_obs,
    "serve": _cmd_serve,
    "serve-cluster": _cmd_serve_cluster,
    "build-artifact": _cmd_build_artifact,
    "info": _cmd_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if trace_path is None and metrics_path is None:
        return command(args)

    from repro.obs.recorder import observed

    with observed() as rec:
        code = command(args)
    if trace_path is not None:
        rec.write_trace(trace_path)
        print(f"wrote trace {trace_path}")
    if metrics_path is not None:
        rec.write_metrics(metrics_path)
        print(f"wrote metrics {metrics_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
