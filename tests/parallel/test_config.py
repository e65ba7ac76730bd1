"""Unit tests for the fan-out sizing: worker count and RECON spans."""

from __future__ import annotations

import pytest

from repro.algorithms.recon import vendor_spans
from repro.parallel import available_cpus, pool_workers


class TestResolvedJobs:
    def test_default_is_serial(self):
        assert pool_workers(1, 1_000) == 1

    def test_explicit_jobs_clamped_to_cpus(self):
        resolved = pool_workers(4, 1_000)
        assert resolved == max(1, min(4, available_cpus()))

    def test_clamp_pins_to_cpu_count(self, pin_cpus):
        # Regression: jobs=4 on a 1-CPU box measured a 0.85x RECON
        # *slowdown* -- oversubscribed workers must resolve serial.
        pin_cpus(1)
        assert pool_workers(4, 1_000) == 1
        pin_cpus(2)
        assert pool_workers(4, 1_000) == 2
        assert pool_workers(2, 1_000) == 2

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_all_cores(self, jobs, pin_cpus):
        pin_cpus(64)
        assert pool_workers(jobs, 1_000) == 32
        pin_cpus(3)
        assert pool_workers(jobs, 1_000) == 3


class TestActive:
    def test_serial_never_active(self):
        assert pool_workers(1, 1_000_000) == 1

    def test_too_few_tasks(self, pin_cpus):
        pin_cpus(4)
        assert pool_workers(4, 1) == 1

    def test_active(self, pin_cpus):
        pin_cpus(4)
        assert pool_workers(4, 2) == 2
        assert pool_workers(4, 100) == 4

    def test_clamped_to_one_cpu_never_active(self, pin_cpus):
        pin_cpus(1)
        assert pool_workers(4, 1_000) == 1


class TestSpans:
    @pytest.mark.parametrize("n_items", [0, 1, 7, 100, 1001])
    @pytest.mark.parametrize("jobs", [2, 3, 8])
    def test_spans_cover_exactly_once(self, n_items, jobs, pin_cpus):
        pin_cpus(jobs)
        spans = vendor_spans(n_items, jobs)
        covered = [i for lo, hi in spans for i in range(lo, hi)]
        assert covered == list(range(n_items))

    def test_empty(self):
        assert vendor_spans(0, 4) == []

    def test_spans_are_contiguous_and_ordered(self, pin_cpus):
        pin_cpus(4)
        spans = vendor_spans(1234, 4)
        assert len(spans) == 16  # four spans per worker
        assert spans[0][0] == 0
        assert spans[-1][1] == 1234
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo
