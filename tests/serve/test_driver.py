"""Load generation, the virtual-time replay driver, serve-layer
observability, and the no-wall-clock lint."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.serve as serve_pkg
from repro.algorithms.calibration import calibrate_from_problem
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.engine import ComputeEngine
from repro.obs.recorder import observed
from repro.serve import (
    ReplayDriver,
    ServeConfig,
    build_schedule,
    utility_estimator,
)
from repro.serve.request import EXPIRED, SERVED, SHED
from repro.stream.arrivals import bursty_times, poisson_times
from repro.stream.simulator import OnlineSimulator
from tests.conftest import random_tabular_problem


def _problem(seed: int = 9):
    return random_tabular_problem(
        seed=seed, n_customers=50, n_vendors=10, n_types=2,
        capacity=(1, 2), budget=(2.0, 5.0),
    )


def _algorithm(problem, seed: int = 9):
    bounds = calibrate_from_problem(problem, seed=seed)
    return OnlineAdaptiveFactorAware(gamma_min=bounds.gamma_min, g=bounds.g)


class TestArrivalProcesses:
    def test_poisson_deterministic_and_increasing(self):
        a = poisson_times(200, rate=100.0, seed=1)
        b = poisson_times(200, rate=100.0, seed=1)
        assert a == b
        assert all(x < y for x, y in zip(a, b[1:]))
        assert poisson_times(200, rate=100.0, seed=2) != a

    def test_poisson_mean_rate(self):
        times = poisson_times(5000, rate=100.0, seed=3)
        assert times[-1] == pytest.approx(50.0, rel=0.1)

    def test_bursty_preserves_mean_rate(self):
        times = bursty_times(5000, rate=100.0, seed=3)
        assert times[-1] == pytest.approx(50.0, rel=0.2)

    def test_bursty_is_burstier_than_poisson(self):
        """Squared coefficient of variation of inter-arrivals must
        exceed the Poisson process's (which is ~1)."""

        def cv2(times):
            gaps = [y - x for x, y in zip(times, times[1:])]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / mean**2

        assert cv2(bursty_times(4000, 100.0, seed=5)) > 2.0 * cv2(
            poisson_times(4000, 100.0, seed=5)
        )

    def test_schedule_keeps_stream_order(self):
        problem = _problem()
        schedule = build_schedule(problem.customers, rate=50.0, seed=1)
        assert len(schedule) == len(problem.customers)
        assert all(
            a.time < b.time for a, b in zip(schedule, schedule[1:])
        )
        with pytest.raises(ValueError):
            build_schedule(problem.customers, rate=50.0, process="nope")


class TestReplayDriver:
    def test_unloaded_run_serves_everything_and_matches_stream(self):
        problem = _problem()
        driver = ReplayDriver(
            problem,
            _algorithm(problem),
            config=ServeConfig(max_batch=8, max_wait=0.002),
        )
        schedule = build_schedule(problem.customers, rate=200.0, seed=2)
        result = driver.run(schedule)
        assert result.stats.served == len(problem.customers)
        assert result.stats.dropped == 0
        assert len(result.decisions) == len(problem.customers)

        fresh = _problem()
        sequential = OnlineSimulator(fresh).run(
            _algorithm(fresh), measure_latency=False, warm_engine=True
        )
        assert result.stats.utility == pytest.approx(
            sequential.total_utility, abs=0
        )

    def test_replay_never_builds_the_efficiency_matrix(self, monkeypatch):
        # batch_best divides only its gathered utility rows by the type
        # costs, so a replay never materialises the (E, K) matrix.
        problem = _problem()
        algorithm = _algorithm(problem)  # calibration may build it
        calls = {"efficiencies": 0, "batch_best": 0}
        for name in calls:
            original = getattr(ComputeEngine, name)

            def counted(self, *args, _name=name, _original=original, **kw):
                calls[_name] += 1
                return _original(self, *args, **kw)

            monkeypatch.setattr(ComputeEngine, name, counted)
        driver = ReplayDriver(
            problem, algorithm, config=ServeConfig(max_batch=8, max_wait=0.002)
        )
        result = driver.run(
            build_schedule(problem.customers, rate=200.0, seed=2)
        )
        assert result.stats.served == len(problem.customers)
        assert calls["batch_best"] > 0
        assert calls["efficiencies"] == 0

    def test_deterministic_decisions_across_runs(self):
        def run_once():
            problem = _problem()
            driver = ReplayDriver(
                problem,
                _algorithm(problem),
                config=ServeConfig(max_batch=4, max_wait=0.001),
            )
            schedule = build_schedule(problem.customers, rate=500.0, seed=4)
            result = driver.run(schedule)
            return [
                (d.request_id, d.status, tuple(d.instances))
                for d in result.decisions
            ]

        assert run_once() == run_once()

    def test_bounded_queue_sheds_under_overload(self):
        problem = _problem()
        estimate = utility_estimator(problem)
        driver = ReplayDriver(
            problem,
            _algorithm(problem),
            config=ServeConfig(max_batch=64, max_wait=0.5, queue_depth=4),
            estimator=estimate,
        )
        # Everything arrives in ~1ms against a 0.5 s batch window: the
        # 4-deep queue must shed all but the 4 most valuable requests.
        schedule = build_schedule(problem.customers, rate=50_000.0, seed=5)
        result = driver.run(schedule)
        assert result.stats.shed == len(problem.customers) - 4
        assert result.stats.served == 4
        statuses = {d.status for d in result.decisions}
        assert statuses == {SERVED, SHED}
        served_values = sorted(
            estimate(problem.customers_by_id[d.customer_id])
            for d in result.decisions
            if d.status == SERVED
        )
        top_values = sorted(
            (estimate(c) for c in problem.customers), reverse=True
        )[:4]
        assert served_values == sorted(top_values)

    def test_deadlines_drop_late_work(self):
        problem = _problem()
        driver = ReplayDriver(
            problem,
            _algorithm(problem),
            config=ServeConfig(
                max_batch=64, max_wait=0.2, deadline=0.01
            ),
        )
        schedule = build_schedule(problem.customers, rate=1_000.0, seed=6)
        result = driver.run(schedule)
        assert result.stats.expired > 0
        assert any(d.status == EXPIRED for d in result.decisions)

    def test_rate_limiter_rejects_above_sustained_rate(self):
        problem = _problem()
        driver = ReplayDriver(
            problem,
            _algorithm(problem),
            config=ServeConfig(
                max_batch=8, max_wait=0.001, rate=10.0, burst=5,
            ),
        )
        schedule = build_schedule(problem.customers, rate=10_000.0, seed=7)
        result = driver.run(schedule)
        assert result.stats.rate_limited > 0

    def test_utility_estimator_prefers_high_value_customers(self):
        problem = _problem()
        estimate = utility_estimator(problem)
        values = [estimate(c) for c in problem.customers]
        assert all(v >= 0 for v in values)
        assert max(values) > min(values)


class TestServeObservability:
    def test_counters_gauges_and_histograms_recorded(self):
        problem = _problem()
        with observed() as rec:
            driver = ReplayDriver(
                problem,
                _algorithm(problem),
                config=ServeConfig(max_batch=8, max_wait=0.002),
            )
            schedule = build_schedule(problem.customers, rate=200.0, seed=2)
            driver.run(schedule)
        snapshot = rec.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["serve.requests"] == len(problem.customers)
        assert counters["serve.budget_commits"] > 0
        assert "serve.queue_depth" in snapshot["gauges"]
        histograms = snapshot["histograms"]
        assert histograms["serve.batch_size"]["count"] > 0
        assert histograms["serve.latency_seconds"]["count"] == len(
            problem.customers
        )
        names = {span.name for span in rec.all_spans}
        assert {"serve.batch", "serve.kernel"} <= names


def test_serve_layer_never_reads_the_wall_clock():
    """Queue/deadline/admission logic must go through the injected
    clock protocol -- no direct ``time.monotonic()`` / ``time.time()``
    / ``time.perf_counter()`` calls anywhere in ``repro.serve``.
    (``loop.time()`` in the load generator is the *waiting* layer, not
    semantic time, and is allowed.)"""
    forbidden = re.compile(
        r"time\.(monotonic|perf_counter|time)\s*\("
    )
    package_dir = Path(serve_pkg.__file__).parent
    offenders = [
        f"{path.name}: {match.group(0)}"
        for path in sorted(package_dir.glob("*.py"))
        for match in forbidden.finditer(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, offenders
