"""Ad-broker benchmark: run one workload, print one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload serve-poisson --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload with every other pass traced and prints the per-layer
metrics, writing the spans to ``perfbench/runs/``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
The program is imported from ``src/`` of the same checkout; nothing is
cached across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

# One process, one thread of numeric work: native thread pools would
# make timings depend on what else the machine runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"

#: End-to-end metrics and their units (see README.md).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "plan_s": "s",
    "utility": "utility",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-poisson", "offline-plan",
                                 "stream-churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="instance size; 'tiny' is for smoke tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and make sure the
    ``repro`` package really comes from there."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve().parent.parent
    if origin != src:
        raise ImportError(f"repro imported from {origin}, not {src}")


def layer_metrics(runner, units) -> dict:
    """Median of each per-layer metric over the units that report it
    (0 for a layer the workload does not reach), plus the overhead."""
    values = {}
    for name in units:
        if name == "trace.overhead_pct":
            continue
        samples = [u[name] for u in runner.layer_units if name in u]
        values[name] = statistics.median(samples) if samples else 0
    traced = statistics.median(runner.walls[True])
    plain = statistics.median(runner.walls[False])
    values["trace.overhead_pct"] = (traced / plain - 1.0) * 100.0
    return values


def main(argv=None) -> dict:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import Tracer

    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(
        prefix=f"{args.workload}-seed{args.seed}-", dir=RUNS
    )
    try:
        tracer = Tracer() if args.trace else None
        runner = workloads.Runner(args.seconds, tracer)
        size = workloads.SIZES[args.workload][args.size]
        tally = workloads.WORKLOADS[args.workload](
            args.seed, size, runner, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = layer_metrics(runner, workloads.LAYER_UNITS)
        units = workloads.LAYER_UNITS
        trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "pass_walls_untraced": runner.walls[False],
            "pass_walls_traced": runner.walls[True],
            "metrics": values,
        })
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(tally.setup_s),
            **{
                name: statistics.median(p[name] for p in tally.values)
                for name in ("throughput_per_s", "p50_ms", "p99_ms", "plan_s")
            },
            "utility": tally.utility,
            "peak_rss_mb": runner.peak_rss_mb,
        }
        units = END_TO_END
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(
        f"{args.workload} seed={args.seed}: {len(runner.walls[False])} "
        f"untraced + {len(runner.walls[True])} traced passes, "
        f"{len(tally.setup_s)} set-ups"
    )
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
