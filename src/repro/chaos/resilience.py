"""The machinery that survives a :class:`~repro.chaos.plan.ChaosPlan`.

Three small, composable pieces, each injectable with fake clocks and
sleeps so every behaviour is unit-testable without wall time:

* :class:`BackoffPolicy` — deterministic bounded exponential backoff with
  seeded jitter.  Same policy + same RNG stream = same delay schedule.
* :func:`retry_call` — run a callable under a policy, retrying only the
  declared-retryable exceptions (store retries are safe *because* every
  retried store operation is idempotent by design: billing has the
  ``ON CONFLICT DO NOTHING`` ledger insert, job creation dedups on the
  idempotency key, state updates are absolute).
* :class:`CircuitBreaker` — CLOSED → OPEN after N consecutive failures,
  OPEN fails fast (:class:`CircuitOpenError`) until the reset window
  passes, then HALF_OPEN admits one probe which closes or re-opens it.

:class:`ResilientStore` composes all three around any
:class:`~repro.serve.store.UsageStore`-shaped object.  It is only ever
installed when a non-empty chaos plan asks for it — the empty-plan
serving path never constructs one, which is what keeps the zero-chaos
hot path free of even a single extra attribute lookup.
"""

from __future__ import annotations

import random
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type

from ..errors import ReproError
from .plan import ChaosPlan

#: Breaker states, in escalation order.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitOpenError(ReproError):
    """Fail-fast refusal: the breaker is open and the reset window has
    not passed — the caller should back off instead of hammering a store
    that is already drowning."""


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff with optional seeded jitter."""

    retries: int = 5
    base_ms: float = 5.0
    multiplier: float = 2.0
    max_ms: float = 200.0
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.base_ms < 0 or self.max_ms < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")

    @classmethod
    def from_plan(cls, plan: ChaosPlan) -> "BackoffPolicy":
        return cls(retries=plan.retries, base_ms=plan.backoff_base_ms,
                   multiplier=plan.backoff_multiplier,
                   max_ms=plan.backoff_max_ms,
                   jitter_fraction=plan.jitter_fraction)

    def delay_ms(self, attempt: int,
                 rng: Optional[random.Random] = None) -> float:
        """Delay before retry number ``attempt`` (0-based), in ms.

        Jitter is symmetric (±jitter_fraction) and drawn from the caller's
        stream, so a seeded stream reproduces the whole delay schedule.
        """
        raw = min(self.max_ms, self.base_ms * self.multiplier ** attempt)
        if rng is not None and self.jitter_fraction > 0:
            raw *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return raw


#: Exceptions :func:`retry_call` treats as transient by default: the
#: injected (and real) SQLite contention errors.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = \
    (sqlite3.OperationalError,)


def retry_call(fn: Callable[[], Any],
               policy: BackoffPolicy,
               retry_on: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE,
               rng: Optional[random.Random] = None,
               sleep: Callable[[float], None] = time.sleep,
               on_retry: Optional[Callable[[int, BaseException],
                                           None]] = None) -> Any:
    """Call ``fn`` under the policy's bounded retry budget.

    Only ``retry_on`` exceptions are retried; everything else — including
    domain errors like ``KeyError`` on an unknown job — propagates on the
    first throw.  After the budget is exhausted the last transient error
    propagates unchanged, so callers see the real failure, not a wrapper.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except retry_on as exc:
            if attempt >= policy.retries:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(policy.delay_ms(attempt, rng) / 1000.0)
            attempt += 1


class CircuitBreaker:
    """CLOSED/OPEN/HALF_OPEN breaker with an injectable clock.

    Thread-safe; one breaker guards one downstream dependency.  ``allow``
    raises :class:`CircuitOpenError` while open, admits exactly one probe
    per reset window once it elapses (half-open), and the probe's
    ``success``/``failure`` closes or re-opens the circuit.
    """

    def __init__(self, threshold: int = 8, reset_s: float = 0.25,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if reset_s < 0:
            raise ValueError("reset_s must be >= 0")
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self.trips = 0

    @classmethod
    def from_plan(cls, plan: ChaosPlan,
                  clock: Callable[[], float] = time.monotonic
                  ) -> "CircuitBreaker":
        return cls(threshold=plan.breaker_threshold,
                   reset_s=plan.breaker_reset_s, clock=clock)

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return BREAKER_CLOSED
            if self._clock() - self._opened_at >= self.reset_s:
                return BREAKER_HALF_OPEN
            return BREAKER_OPEN

    @property
    def is_open(self) -> bool:
        return self.state != BREAKER_CLOSED

    def allow(self) -> None:
        """Admit the call or raise :class:`CircuitOpenError`."""
        with self._lock:
            if self._opened_at is None:
                return
            if self._clock() - self._opened_at < self.reset_s:
                raise CircuitOpenError(
                    f"circuit open after {self._failures} consecutive "
                    f"failures; retry after {self.reset_s:g}s")
            if self._probing:
                raise CircuitOpenError("circuit half-open; a probe is "
                                       "already in flight")
            self._probing = True  # this caller is the half-open probe

    def success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probing = False
            if self._failures >= self.threshold:
                if self._opened_at is None:
                    self.trips += 1
                self._opened_at = self._clock()

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` through the breaker (admission + outcome record)."""
        self.allow()
        try:
            result = fn()
        except BaseException:
            self.failure()
            raise
        self.success()
        return result


#: Store methods the resilient wrapper retries.  Every one is idempotent
#: by the store's own design (see the module docstring), which is the
#: precondition for blind retry being correct.
RESILIENT_METHODS = frozenset({
    "register_tenant", "tenant", "tenants", "set_quota",
    "create_job", "set_job_state", "job", "jobs_for_tenant",
    "job_state_counts", "bill_job", "mark_deadline_exceeded",
    "ledger_page", "ledger_totals", "ledger_entry_for_job",
    "ledger_total_ns", "ledger_count", "billed_ns_by_tenant_trust",
    "find_result_by_spec",
})


class ResilientStore:
    """Retry + circuit-breaker front over a ``UsageStore``-shaped object.

    Transparent to callers: every attribute resolves on the wrapped
    store, and the methods in :data:`RESILIENT_METHODS` are re-issued
    under the backoff policy when they raise a transient SQLite error,
    behind one shared circuit breaker.  Counters (``retries_total``,
    ``breaker``) feed ``/metrics`` and the gauntlet's absorbed-fault
    accounting.
    """

    def __init__(self, store: Any,
                 policy: Optional[BackoffPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self._store = store
        self.policy = policy or BackoffPolicy()
        self.breaker = breaker or CircuitBreaker()
        self._rng = rng or random.Random("chaos:resilient-store")
        self._sleep = sleep
        self._count_lock = threading.Lock()
        self.retries_total = 0

    @classmethod
    def from_plan(cls, store: Any, plan: ChaosPlan) -> "ResilientStore":
        return cls(store, policy=BackoffPolicy.from_plan(plan),
                   breaker=CircuitBreaker.from_plan(plan),
                   rng=random.Random(f"chaos:{plan.seed}:backoff"))

    def _on_retry(self, attempt: int, exc: BaseException) -> None:
        with self._count_lock:
            self.retries_total += 1

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._store, name)
        if name not in RESILIENT_METHODS or not callable(attr):
            return attr

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            return self.breaker.call(
                lambda: retry_call(lambda: attr(*args, **kwargs),
                                   self.policy, rng=self._rng,
                                   sleep=self._sleep,
                                   on_retry=self._on_retry))
        return wrapped
