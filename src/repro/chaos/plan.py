"""Declarative, seeded, spec-serializable *service-plane* chaos plans.

Where :class:`~repro.faults.FaultPlan` injects hardware misbehaviour into
the simulated machine, a :class:`ChaosPlan` injects infrastructure
misbehaviour into the metering service that bills it: SQLite-level store
errors and latency ("database is locked", slow commits), worker crashes
and hangs inside the serve executor, and HTTP-level faults (5xx,
connection resets, slow or truncated responses, whole shards held dark).
The plan also carries the knobs of the resilience machinery that is
expected to survive it — retry budget, exponential backoff with seeded
jitter, circuit-breaker thresholds, per-request deadlines — so a chaos
sweep compares offense and defense point for point, exactly like the
``watchdog`` flag on a fault plan.

Determinism: the plan itself carries no randomness.  Probabilistic
faults draw from dedicated named ``random.Random`` streams
(``chaos:<seed>:<site>``, see :class:`~repro.chaos.inject.ChaosInjector`),
so a plan plus a seed reproduces the same fault decisions in the same
order at every site.

The all-defaults plan is the *empty* plan: :func:`normalize_chaos`
collapses it to ``None``, no proxy or wrapper is ever installed, and the
serving path is byte-identical to a build without a chaos layer at all —
the same identity-neutrality contract the fault and timesync planes keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigError
from ..plans import FrozenPlan


@dataclass(frozen=True)
class ChaosPlan(FrozenPlan):
    """One serving run's worth of deliberate infrastructure faults.

    All-defaults (with any resilience-knob setting) is the *empty* plan:
    nothing is injected and nothing is wrapped.
    """

    #: Seed of the ``chaos:<seed>:<site>`` fault-decision streams.
    seed: int = 0

    # -- store faults (the SQLite layer under the service) -----------------
    #: Probability a store operation raises ``sqlite3.OperationalError``
    #: ("database is locked") before touching the database.
    store_error_prob: float = 0.0
    #: Probability a store operation is delayed by ``store_slow_ms``.
    store_slow_prob: float = 0.0
    store_slow_ms: float = 0.0

    # -- worker faults (the serve executor) --------------------------------
    #: Probability a worker crashes (raises) at the top of a job attempt.
    worker_crash_prob: float = 0.0
    #: Probability a worker stalls for ``worker_hang_ms`` before running.
    worker_hang_prob: float = 0.0
    worker_hang_ms: float = 0.0

    # -- HTTP faults (the daemon's front door) -----------------------------
    #: Probability a request is answered with an injected 503.
    http_error_prob: float = 0.0
    #: Probability a response is truncated mid-body (connection reset).
    http_reset_prob: float = 0.0
    #: Probability a response is delayed by ``http_slow_ms``.
    http_slow_prob: float = 0.0
    http_slow_ms: float = 0.0
    #: Shard indices whose endpoint is hard-down for the whole run (the
    #: gauntlet binds nothing there; the client must declare the gap).
    down_shards: Tuple[int, ...] = ()

    # -- resilience (the defense; never makes a plan non-empty) ------------
    #: Bounded retry budget per operation/request.
    retries: int = 5
    #: Exponential backoff: base * multiplier**attempt, capped at max.
    backoff_base_ms: float = 5.0
    backoff_multiplier: float = 2.0
    backoff_max_ms: float = 200.0
    #: Seeded jitter, as a fraction of the computed delay.
    jitter_fraction: float = 0.1
    #: Circuit breaker: consecutive failures before the circuit opens,
    #: and how long it stays open before a half-open probe.
    breaker_threshold: int = 8
    breaker_reset_s: float = 0.25
    #: Per-request deadline for shard clients and the gauntlet.
    request_deadline_s: float = 60.0

    KIND = "chaos plan"
    UNIT_FIELDS = ("store_error_prob", "store_slow_prob",
                   "worker_crash_prob", "worker_hang_prob",
                   "http_error_prob", "http_reset_prob", "http_slow_prob",
                   "jitter_fraction")
    NONNEGATIVE_FIELDS = ("store_slow_ms", "worker_hang_ms", "http_slow_ms",
                          "backoff_base_ms", "backoff_max_ms",
                          "breaker_reset_s", "request_deadline_s")
    NEEDS_POSITIVE = (("store_slow_prob", "store_slow_ms"),
                      ("worker_hang_prob", "worker_hang_ms"),
                      ("http_slow_prob", "http_slow_ms"))

    def _validate(self) -> None:
        if not isinstance(self.retries, int) or self.retries < 0:
            raise ConfigError(f"retries must be a non-negative integer, "
                              f"got {self.retries!r}")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_multiplier must be >= 1")
        if (not isinstance(self.breaker_threshold, int)
                or self.breaker_threshold < 1):
            raise ConfigError(f"breaker_threshold must be a positive "
                              f"integer, got {self.breaker_threshold!r}")
        if not isinstance(self.down_shards, tuple):
            object.__setattr__(self, "down_shards",
                               tuple(self.down_shards))
        for shard in self.down_shards:
            if not isinstance(shard, int) or shard < 0:
                raise ConfigError(f"down_shards entries must be shard "
                                  f"indices >= 0, got {shard!r}")

    # -- structure queries -------------------------------------------------

    def has_store_faults(self) -> bool:
        return self.store_error_prob > 0 or self.store_slow_prob > 0

    def has_worker_faults(self) -> bool:
        return self.worker_crash_prob > 0 or self.worker_hang_prob > 0

    def has_http_faults(self) -> bool:
        return (self.http_error_prob > 0 or self.http_reset_prob > 0
                or self.http_slow_prob > 0 or bool(self.down_shards))

    def is_empty(self) -> bool:
        """True when the plan injects nothing (resilience knobs alone do
        not make a plan non-empty: with no fault to survive, the defense
        is inert by construction)."""
        return not (self.has_store_faults() or self.has_worker_faults()
                    or self.has_http_faults())

    def describe(self) -> str:
        """Short human summary of the active injectors."""
        parts = []
        if self.store_error_prob > 0:
            parts.append(f"store-error p={self.store_error_prob:g}")
        if self.store_slow_prob > 0:
            parts.append(f"store-slow p={self.store_slow_prob:g}"
                         f"@{self.store_slow_ms:g}ms")
        if self.worker_crash_prob > 0:
            parts.append(f"worker-crash p={self.worker_crash_prob:g}")
        if self.worker_hang_prob > 0:
            parts.append(f"worker-hang p={self.worker_hang_prob:g}"
                         f"@{self.worker_hang_ms:g}ms")
        if self.http_error_prob > 0:
            parts.append(f"http-5xx p={self.http_error_prob:g}")
        if self.http_reset_prob > 0:
            parts.append(f"http-reset p={self.http_reset_prob:g}")
        if self.http_slow_prob > 0:
            parts.append(f"http-slow p={self.http_slow_prob:g}"
                         f"@{self.http_slow_ms:g}ms")
        if self.down_shards:
            parts.append("down-shards "
                         + ",".join(str(s) for s in self.down_shards))
        if not parts:
            return "no chaos"
        return (", ".join(parts)
                + f" (retries {self.retries}, breaker "
                  f"{self.breaker_threshold}@{self.breaker_reset_s:g}s)")


#: Coerce a chaos argument (None, mapping or plan) to an active
#: :class:`ChaosPlan`, collapsing empty plans to None so the zero-chaos
#: serving path stays byte-for-byte identical to a service without a chaos
#: layer.
normalize_chaos = ChaosPlan.normalize


def gauntlet_plan(intensity: float, seed: int = 0,
                  down_shards: Tuple[int, ...] = ()) -> ChaosPlan:
    """The canonical one-knob plan the ``repro chaos`` gauntlet runs:
    every fault class scales with ``intensity`` while the latencies stay
    small enough that retries resolve in milliseconds, not minutes."""
    if intensity < 0:
        raise ConfigError("chaos intensity must be >= 0")
    return ChaosPlan(
        seed=seed,
        store_error_prob=min(0.9, round(intensity, 6)),
        store_slow_prob=min(0.5, round(intensity / 2, 6)),
        store_slow_ms=2.0 if intensity > 0 else 0.0,
        worker_crash_prob=min(0.5, round(intensity / 2, 6)),
        http_error_prob=min(0.5, round(intensity / 2, 6)),
        http_reset_prob=min(0.25, round(intensity / 4, 6)),
        http_slow_prob=min(0.5, round(intensity / 2, 6)),
        http_slow_ms=5.0 if intensity > 0 else 0.0,
        down_shards=tuple(down_shards),
    )
