"""Shared-memory process fan-out for RECON and the experiment sweeps.

The layer has two pieces, driven by one ``jobs: int``:

* :mod:`repro.parallel.pool` -- :func:`parallel_map`, an ordered
  process-pool map that returns ``None`` whenever the serial path
  should run instead (too few tasks, one usable worker, missing
  platform support, worker crash), and :func:`pool_workers`, the
  worker count it resolves ``jobs`` to;
* :mod:`repro.parallel.shm` -- zero-copy column shipping over
  ``multiprocessing.shared_memory`` (ship once, attach per worker).

Consumers: ``Reconciliation(jobs=...)`` fans its per-vendor MCKP solves
(:mod:`repro.parallel.recon_workers`), and ``run_sweep(jobs=...)`` /
``run_panel(jobs=...)`` fan sweep points and panel algorithms.
Determinism is guaranteed everywhere: parallel and serial runs produce
identical assignments and rows.  See ``docs/parallel.md``.
"""

from repro.parallel.pool import (
    available_cpus,
    parallel_map,
    pool_workers,
    start_method,
)
from repro.parallel.shm import (
    HAVE_SHARED_MEMORY,
    AttachedColumns,
    ColumnHandle,
    ColumnShipment,
    attach_columns,
    ship_columns,
)

__all__ = [
    "available_cpus",
    "parallel_map",
    "pool_workers",
    "start_method",
    "HAVE_SHARED_MEMORY",
    "AttachedColumns",
    "ColumnHandle",
    "ColumnShipment",
    "attach_columns",
    "ship_columns",
]
