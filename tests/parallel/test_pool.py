"""The pool primitive: ordered results, crash fallback, declines."""

from __future__ import annotations

import os
import random
import signal

import pytest

from repro.parallel import HAVE_SHARED_MEMORY, parallel_map, pool

needs_shm = pytest.mark.skipif(
    not HAVE_SHARED_MEMORY,
    reason="platform lacks multiprocessing.shared_memory",
)

# Worker functions must live at module level (pickled by reference).
def _square(x: int) -> int:
    return x * x


def _crash(x: int) -> int:
    os._exit(13)  # kill the worker process outright


#: Seeded victim task for the SIGKILL test: which task murders its
#: worker is a pure function of the seed, so the test is deterministic.
_KILL_VICTIM = random.Random(0xC1A0).randrange(8)


def _sigkill_on_victim(x: int) -> int:
    if x == _KILL_VICTIM:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _fail_logically(x: int) -> int:
    raise ValueError(f"task {x} is bad")


class TestDeclines:
    def test_jobs_1_declines(self):
        assert parallel_map(_square, range(10), 1) is None

    def test_too_few_tasks_declines(self, pin_cpus):
        pin_cpus(4)
        assert parallel_map(_square, [3], 4) is None

    def test_clamped_jobs_decline(self, pin_cpus):
        # jobs=4 on a 1-CPU box resolves to a single worker, and a
        # one-worker pool is never worth starting.
        pin_cpus(1)
        assert parallel_map(_square, range(100), 4) is None

    def test_pool_startup_failure_declines(self, pin_cpus, monkeypatch):
        # A pool that cannot start (fork/shm resource exhaustion) is an
        # infrastructure failure: the caller runs serial.
        def no_processes(*args, **kwargs):
            raise OSError("cannot start worker processes")

        pin_cpus(2)
        monkeypatch.setattr(pool, "ProcessPoolExecutor", no_processes)
        assert parallel_map(_square, range(10), 2) is None


# Pool tests deliberately oversubscribe tiny CI boxes: two pinned CPUs
# give two real worker processes on any machine.
@needs_shm
@pytest.mark.usefixtures("two_cpus")
class TestPool:
    @pytest.fixture
    def two_cpus(self, pin_cpus):
        pin_cpus(2)

    def test_results_in_task_order(self):
        result = parallel_map(_square, range(20), 2)
        assert result == [x * x for x in range(20)]

    def test_worker_crash_falls_back_to_none(self):
        assert parallel_map(_crash, range(4), 2) is None

    def test_sigkilled_worker_falls_back_to_none(self):
        # A child killed by SIGKILL (no Python exception, no exit
        # handler) must surface as a BrokenProcessPool and trigger the
        # serial fallback -- not hang the parent on a dead pipe.
        assert parallel_map(_sigkill_on_victim, range(8), 2) is None

    def test_task_logic_error_reraises(self):
        # A task exception is not a pool failure: the serial path would
        # fail identically, so it must surface, not trigger fallback.
        with pytest.raises(ValueError, match="is bad"):
            parallel_map(_fail_logically, range(4), 2)

    def test_initializer_runs_per_worker(self):
        result = parallel_map(
            _read_init_state, range(6), 2,
            initializer=_set_init_state, initargs=(7,),
        )
        assert result == [7] * 6


_INIT_STATE = None


def _set_init_state(value: int) -> None:
    global _INIT_STATE
    _INIT_STATE = value


def _read_init_state(x: int) -> int:
    assert _INIT_STATE is not None
    return _INIT_STATE
