"""The process fan-out primitive: ordered map with graceful fallback.

:func:`parallel_map` is the one entry point every consumer uses, and
``jobs`` is its one setting.  It returns the task results **in task
order** (so merges are deterministic), or ``None`` whenever a pool is
not worth having or not available -- too few tasks, one usable worker,
no shared memory, unpicklable state, or a worker crash.  ``None`` is
the signal to run the serial reference path; consumers never need to
know *why* the pool declined.

Worker functions must be module-level (they are pickled by reference),
and heavy state travels either through the pool initializer (inherited
for free under ``fork``) or through :mod:`repro.parallel.shm` handles.

When the parent process has an enabled :mod:`repro.obs` recorder, the
pool transparently instruments itself: each worker gets its own
recorder (lane ``"worker-<pid>"``), every task ships the spans and
metric increments it produced back alongside its result, and the
parent merges them -- so one ``--trace`` run yields a single timeline
with per-worker lanes.  With the default no-op recorder none of this
machinery engages and the dispatch path is byte-for-byte the
uninstrumented one.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs.recorder import Recorder, recorder, set_recorder
from repro.parallel.shm import HAVE_SHARED_MEMORY

#: Ceiling applied when ``jobs <= 0`` requests "all cores".
_MAX_AUTO_JOBS = 32

#: Pool-infrastructure failures that trigger the serial fallback.  Task
#: *logic* exceptions are deliberately not in this set -- they re-raise,
#: because the serial path would fail identically.
_POOL_FAILURES = (
    BrokenProcessPool,
    PicklingError,
    AttributeError,  # "Can't pickle local object ..." under spawn
    ImportError,  # worker re-import failure under spawn
    OSError,  # fork/shm resource exhaustion
)


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware when possible)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pool_workers(jobs: int, n_tasks: int) -> int:
    """Worker processes :func:`parallel_map` starts for ``n_tasks`` tasks.

    ``jobs <= 0`` means all available CPUs (capped at 32); a positive
    ``jobs`` is clamped to the available CPUs, since more workers than
    cores can only lose on CPU-bound solves.  ``1`` means no pool: one
    worker, fewer than two tasks, or no shared memory on the platform.
    """
    cpus = available_cpus()
    workers = min(cpus, _MAX_AUTO_JOBS) if jobs <= 0 else min(jobs, cpus)
    if not HAVE_SHARED_MEMORY or workers < 2 or n_tasks < 2:
        return 1
    return min(workers, n_tasks)


def start_method() -> str:
    """The start method the pool uses: ``fork`` where available."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _obs_init(initializer: Optional[Callable], initargs: Tuple) -> None:
    """Observability-aware pool initializer.

    Installs a fresh enabled recorder in the worker -- replacing any
    recorder state inherited under ``fork``, which belongs to the
    parent's timeline -- then runs the caller's initializer.  The lane
    is named after the worker pid, so each worker process becomes one
    distinct timeline row in the merged trace.
    """
    set_recorder(Recorder(lane=f"worker-{os.getpid()}"))
    if initializer is not None:
        initializer(*initargs)


def _obs_task(fn: Callable, task):
    """Run one task and ship its recording increment with the result."""
    result = fn(task)
    rec = recorder()
    snapshot = rec.drain() if rec.enabled else None
    return result, snapshot


def parallel_map(
    fn: Callable,
    tasks: Sequence,
    jobs: int,
    initializer: Optional[Callable] = None,
    initargs: Tuple = (),
) -> Optional[List]:
    """Run ``fn`` over ``tasks`` in a worker pool, results in task order.

    Args:
        fn: Module-level worker function of one task.
        tasks: The task values (must be picklable; keep them tiny --
            indices and ranges -- and ship bulk data via shm/initargs).
        jobs: Requested worker count, resolved by :func:`pool_workers`.
        initializer: Per-worker setup (attach shared memory, stash
            state in module globals).
        initargs: Arguments for ``initializer``.  Under ``fork`` these
            are inherited, not pickled, so closures and problem objects
            are fine; under ``spawn`` they must pickle.

    Returns:
        The ordered result list, or ``None`` when the caller should run
        its serial path instead (no pool worth starting, or the pool
        infrastructure failed).
    """
    tasks = list(tasks)
    workers = pool_workers(jobs, len(tasks))
    if workers < 2:
        return None
    rec = recorder()
    if rec.enabled:
        # Route tasks through the observability wrapper: workers get
        # their own lanes, every task returns (result, recording).
        mapped_fn: Callable = functools.partial(_obs_task, fn)
        pool_initializer: Callable = _obs_init
        pool_initargs: Tuple = (initializer, initargs)
    else:
        mapped_fn = fn
        pool_initializer = initializer
        pool_initargs = initargs
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(start_method()),
            initializer=pool_initializer,
            initargs=pool_initargs,
        ) as executor:
            mapped = list(
                executor.map(
                    mapped_fn,
                    tasks,
                    chunksize=max(1, -(-len(tasks) // (workers * 4))),
                )
            )
    except _POOL_FAILURES:
        return None
    if not rec.enabled:
        return mapped
    results = []
    for result, snapshot in mapped:
        if snapshot is not None:
            rec.merge(snapshot)
        results.append(result)
    return results
