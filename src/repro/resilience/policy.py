"""Resilience policies: retry with backoff, timeouts, circuit breaking.

All three policies read time exclusively through an injectable clock
(:mod:`repro.resilience.clock`), so their state machines are unit
testable with zero sleeps: a test advances a
:class:`~repro.resilience.clock.SimulatedClock` and observes the
transitions.

* :class:`RetryPolicy` -- exponential backoff with *deterministic*
  jitter (a seeded RNG), so two runs of the same plan wait the same
  amounts.
* :class:`CircuitBreaker` -- the classic closed / open / half-open
  automaton, one per dependency.
* :class:`DependencyGuard` -- composes both plus a per-call timeout
  around one named dependency; this is the only piece the broker calls.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    TransientError,
)
from repro.obs.recorder import recorder

logger = logging.getLogger(__name__)

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Attributes:
        max_attempts: Total tries, including the first (>= 1).
        base_delay: Backoff before the second attempt, in seconds.
        multiplier: Growth factor per further attempt.
        max_delay: Cap on any single backoff.
        jitter: Fractional jitter; the delay for attempt ``k`` is
            scaled by a factor drawn uniformly from
            ``[1 - jitter, 1 + jitter]`` using the seeded RNG supplied
            per call, so jitter de-synchronises retries without
            sacrificing reproducibility.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Seconds to wait after failed attempt ``attempt`` (0-based)."""
        delay = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


class BreakerState(Enum):
    """Circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-dependency closed / open / half-open circuit breaker.

    Closed: calls flow; ``failure_threshold`` *consecutive* failures
    trip the breaker open.  Open: calls are refused outright until
    ``recovery_timeout`` seconds pass on the injected clock.  Half-open:
    up to ``half_open_max_calls`` probe calls are admitted; any failure
    re-opens the breaker, enough successes close it.

    Args:
        name: Dependency name (for logs and transition records).
        clock: Callable returning monotonic seconds.
        failure_threshold: Consecutive failures that trip the breaker.
        recovery_timeout: Open-state cool-down before probing.
        half_open_max_calls: Probes admitted (and successes required)
            while half-open.
    """

    def __init__(
        self,
        name: str,
        clock: Callable[[], float],
        failure_threshold: int = 5,
        recovery_timeout: float = 30.0,
        half_open_max_calls: int = 1,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_timeout < 0:
            raise ValueError("recovery_timeout must be >= 0")
        if half_open_max_calls < 1:
            raise ValueError("half_open_max_calls must be >= 1")
        self.name = name
        self._clock = clock
        self._failure_threshold = failure_threshold
        self._recovery_timeout = recovery_timeout
        self._half_open_max_calls = half_open_max_calls
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._half_open_inflight = 0
        self._half_open_successes = 0
        #: ``(time, from_state, to_state)`` history of every transition.
        self.transitions: List[Tuple[float, BreakerState, BreakerState]] = []

    @property
    def state(self) -> BreakerState:
        """Current state, accounting for open->half-open cool-down."""
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self._recovery_timeout
        ):
            self._transition(BreakerState.HALF_OPEN)
        return self._state

    def _transition(self, to_state: BreakerState) -> None:
        if to_state is self._state:
            return
        self.transitions.append((self._clock(), self._state, to_state))
        rec = recorder()
        rec.event(
            "resilience.breaker_transition",
            dependency=self.name,
            from_state=self._state.value,
            to_state=to_state.value,
        )
        rec.count("resilience.breaker_transitions")
        level = (
            logging.WARNING if to_state is BreakerState.OPEN else logging.INFO
        )
        logger.log(
            level,
            "breaker %s: %s -> %s",
            self.name,
            self._state.value,
            to_state.value,
        )
        self._state = to_state
        if to_state is BreakerState.HALF_OPEN:
            self._half_open_inflight = 0
            self._half_open_successes = 0
        elif to_state is BreakerState.CLOSED:
            self._consecutive_failures = 0

    def admit(self) -> None:
        """Gate in front of one call attempt.

        Raises:
            CircuitOpenError: While open (or half-open with all probe
                slots taken).
        """
        state = self.state
        if state is BreakerState.OPEN:
            raise CircuitOpenError(f"circuit open for {self.name}")
        if state is BreakerState.HALF_OPEN:
            if self._half_open_inflight >= self._half_open_max_calls:
                raise CircuitOpenError(
                    f"circuit half-open for {self.name}: probe in flight"
                )
            self._half_open_inflight += 1

    def record_success(self) -> None:
        """Report a successful call."""
        if self._state is BreakerState.HALF_OPEN:
            self._half_open_successes += 1
            if self._half_open_successes >= self._half_open_max_calls:
                self._transition(BreakerState.CLOSED)
        else:
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        """Report a failed call (transient error or timeout)."""
        if self._state is BreakerState.HALF_OPEN:
            self._opened_at = self._clock()
            self._transition(BreakerState.OPEN)
            return
        self._consecutive_failures += 1
        if (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= self._failure_threshold
        ):
            self._opened_at = self._clock()
            self._transition(BreakerState.OPEN)


class BreakerHistory:
    """Rollups of a ``breaker_transitions`` list, derived on read.

    Mixed into the stats types that carry breaker history (the broker's
    and the cluster's).  Each row is ``(dependency, time, from_state,
    to_state)`` with state values as strings.
    """

    breaker_transitions: List[Tuple[str, float, str, str]]

    @property
    def breaker_counts(self) -> Dict[str, Dict[str, int]]:
        """Dependency name -> transitions *into* each breaker state,
        e.g. ``{"utility": {"open": 2, "half_open": 2, "closed": 1}}``."""
        counts: Dict[str, Dict[str, int]] = {}
        for name, _, _, to_state in self.breaker_transitions:
            per = counts.setdefault(name, {})
            per[to_state] = per.get(to_state, 0) + 1
        return counts

    @property
    def breaker_opens(self) -> int:
        """Number of transitions into the open state."""
        return sum(
            1 for _, _, _, to_state in self.breaker_transitions
            if to_state == "open"
        )

    def breaker_extras(self, prefix: str) -> Dict[str, float]:
        """``{prefix}breaker_{state}.{dependency}`` -> count, sorted by
        dependency then state."""
        counts = self.breaker_counts
        return {
            f"{prefix}breaker_{state}.{dep}": float(count)
            for dep in sorted(counts)
            for state, count in sorted(counts[dep].items())
        }


class DependencyGuard:
    """Retry + timeout + circuit breaking around one named dependency.

    Args:
        name: Dependency name (logs, error messages).
        clock: Clock object; must be callable (returning seconds) and
            expose ``sleep`` (real or simulated) for backoff waits.
        retry: The retry/backoff policy.
        breaker: Optional circuit breaker; ``None`` disables breaking.
        timeout: Optional per-call budget in seconds.  Calls cannot be
            pre-empted mid-flight, so the budget is enforced post hoc:
            an over-budget call counts as a failure (the caller's
            answer arrived too late to be useful).
        rng: Seeded RNG driving jitter; defaults to a fresh
            ``random.Random(0)`` so unconfigured guards stay
            deterministic.
    """

    def __init__(
        self,
        name: str,
        clock,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        timeout: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.name = name
        self._clock = clock
        self.retry = retry or RetryPolicy()
        self.breaker = breaker
        self.timeout = timeout
        self._rng = rng or random.Random(0)
        #: Total retry waits performed (attempts beyond the first).
        self.retries = 0
        #: Calls that exhausted every attempt.
        self.exhausted = 0
        #: Post-hoc timeout failures observed.
        self.timeouts = 0

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the guard's policies.

        Raises:
            CircuitOpenError: Refused by the breaker (no attempt made).
            TransientError: Every attempt failed transiently.
            DeadlineExceededError: Every attempt blew the call timeout.
        """
        last_error: Exception = TransientError(
            f"{self.name}: no attempt made"
        )
        for attempt in range(self.retry.max_attempts):
            if self.breaker is not None:
                self.breaker.admit()
            started = self._clock()
            try:
                result = fn()
            except TransientError as exc:
                last_error = exc
                self._note_failure()
                if not self._backoff_or_give_up(attempt):
                    raise
                continue
            elapsed = self._clock() - started
            if self.timeout is not None and elapsed > self.timeout:
                self.timeouts += 1
                rec = recorder()
                rec.event(
                    "resilience.timeout",
                    dependency=self.name,
                    elapsed=elapsed,
                )
                rec.count("resilience.timeouts")
                last_error = DeadlineExceededError(
                    f"{self.name}: call took {elapsed:.4f}s "
                    f"(timeout {self.timeout:.4f}s)"
                )
                logger.debug("%s", last_error)
                self._note_failure()
                if not self._backoff_or_give_up(attempt):
                    raise last_error
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return result
        raise last_error  # pragma: no cover - loop always raises/returns

    def _note_failure(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()

    def _backoff_or_give_up(self, attempt: int) -> bool:
        """Wait before the next attempt; False when attempts are spent."""
        if attempt + 1 >= self.retry.max_attempts:
            self.exhausted += 1
            logger.debug(
                "%s: giving up after %d attempts", self.name, attempt + 1
            )
            return False
        if self.breaker is not None and self.breaker.state is BreakerState.OPEN:
            # The failure we just recorded tripped the breaker; further
            # attempts would be refused anyway, so fail fast.
            self.exhausted += 1
            return False
        delay = self.retry.backoff(attempt, self._rng)
        logger.debug(
            "%s: retry %d after %.4fs backoff", self.name, attempt + 1, delay
        )
        self.retries += 1
        rec = recorder()
        rec.event(
            "resilience.retry",
            dependency=self.name,
            attempt=attempt + 1,
            backoff=delay,
        )
        rec.count("resilience.retries")
        self._clock.sleep(delay)
        return True
