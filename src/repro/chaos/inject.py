"""Seeded fault injection for the serving plane.

A :class:`ChaosInjector` turns a non-empty
:class:`~repro.chaos.plan.ChaosPlan` into concrete fault decisions, one
dedicated ``random.Random`` stream per site (``chaos:<seed>:store``,
``chaos:<seed>:worker``, ``chaos:<seed>:http``) so the decision sequence
at each site is reproducible regardless of what the other sites draw.
Everything injected is counted (``injected`` per site) — the gauntlet's
"every fault absorbed or declared" invariant needs the denominator.

:class:`ChaosStoreProxy` sits *under* the
:class:`~repro.chaos.resilience.ResilientStore`: it fires the injector's
store fault before delegating, so an injected ``OperationalError`` is
indistinguishable from real SQLite contention — and, crucially, fires
*before* any side effect, so a retried operation never half-executed.
Real mid-operation failures are covered separately by the store's own
crash hooks; the proxy models the contention/latency class.
"""

from __future__ import annotations

import random
import sqlite3
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from .plan import ChaosPlan


class WorkerCrash(RuntimeError):
    """An injected worker crash: the job attempt dies before billing."""


class ChaosInjector:
    """Draw seeded fault decisions for one serving process."""

    def __init__(self, plan: ChaosPlan, scope: str = "chaos",
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.plan = plan
        self.scope = scope
        self._sleep = sleep
        self._lock = threading.Lock()
        self._rngs: Dict[str, random.Random] = {}
        #: Injected-fault counters, keyed by ``<site>.<kind>``.
        self.injected: Dict[str, int] = {}

    def _hit(self, site: str, kind: str, prob: float) -> bool:
        """One seeded draw on the site's stream; counts on a hit."""
        if prob <= 0:
            return False
        with self._lock:
            rng = self._rngs.get(site)
            if rng is None:
                rng = random.Random(f"{self.scope}:{self.plan.seed}:{site}")
                self._rngs[site] = rng
            hit = rng.random() < prob
            if hit:
                key = f"{site}.{kind}"
                self.injected[key] = self.injected.get(key, 0) + 1
            return hit

    def injected_total(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    def injected_by_site(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.injected)

    # -- sites -------------------------------------------------------------

    def store_fault(self, op: str) -> None:
        """Fire before a store operation: may raise the classic
        contention error or stall the commit path."""
        if self._hit("store", "error", self.plan.store_error_prob):
            raise sqlite3.OperationalError(
                f"database is locked (chaos: {op})")
        if self._hit("store", "slow", self.plan.store_slow_prob):
            self._sleep(self.plan.store_slow_ms / 1000.0)

    def worker_fault(self) -> None:
        """Fire at the top of a job attempt on the serve executor."""
        if self._hit("worker", "crash", self.plan.worker_crash_prob):
            raise WorkerCrash("chaos: worker crashed before billing")
        if self._hit("worker", "hang", self.plan.worker_hang_prob):
            self._sleep(self.plan.worker_hang_ms / 1000.0)

    def http_fault(self) -> Optional[Tuple[str, float]]:
        """Fire per HTTP request.  Returns None (no fault) or
        ``("error"|"reset", 0)`` / ``("slow", delay_ms)`` for the handler
        to act on — the injector never touches sockets itself."""
        if self._hit("http", "error", self.plan.http_error_prob):
            return ("error", 0.0)
        if self._hit("http", "reset", self.plan.http_reset_prob):
            return ("reset", 0.0)
        if self._hit("http", "slow", self.plan.http_slow_prob):
            return ("slow", self.plan.http_slow_ms)
        return None


#: Store methods the proxy injects faults in front of — the read and
#: write paths a real contended SQLite file would throw on.  Reservation
#: bookkeeping (purely in-memory) and diagnostics are exempt.
FAULTED_STORE_METHODS = frozenset({
    "register_tenant", "tenant", "tenants", "set_quota",
    "create_job", "set_job_state", "job", "jobs_for_tenant",
    "job_state_counts", "bill_job", "mark_deadline_exceeded",
    "ledger_page", "ledger_totals", "ledger_entry_for_job",
    "ledger_total_ns", "ledger_count", "billed_ns_by_tenant_trust",
    "find_result_by_spec",
})


class ChaosStoreProxy:
    """Delegating proxy that fires store faults before each operation."""

    def __init__(self, store: Any, injector: ChaosInjector) -> None:
        self._store = store
        self.chaos_injector = injector

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._store, name)
        if name not in FAULTED_STORE_METHODS or not callable(attr):
            return attr
        injector = self.chaos_injector

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            injector.store_fault(name)
            return attr(*args, **kwargs)
        return wrapped
