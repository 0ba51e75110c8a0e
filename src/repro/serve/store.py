"""Durable usage store: the append-only billing ledger behind ``repro serve``.

One SQLite database in WAL mode holds three tables:

* ``tenants`` — who may submit work and under what CPU-time budget;
* ``jobs`` — every submission ever made, keyed by a store-assigned job id
  and deduplicated per tenant by an idempotency key;
* ``ledger`` — the append-only usage ledger: exactly one row per
  *completed* job, keyed by spec identity (:func:`~repro.runner.specs
  .spec_key`), carrying the billed nanoseconds, the trust grade and the
  invoice amount.

Crash safety is the point of the design, not an afterthought:

* every billing write is **one transaction** — the ledger INSERT and the
  job-state UPDATE commit together or not at all, so a crash can never
  leave a billed job unrecorded or a recorded job unbilled (no torn rows);
* the ledger INSERT is **idempotent** (``job_id`` is UNIQUE and conflicts
  are ignored), so a crash-and-retry of the same job bills exactly once;
* the WAL journal means a reopened store recovers committed transactions
  and drops uncommitted ones without any application-level repair.

The concurrency/crash suite drives these guarantees directly through
:meth:`UsageStore.set_crash_hook`: a registered hook fires at a named
point inside the billing transaction (``bill:after-insert``,
``bill:before-commit``, ``bill:after-commit``) and raising
:class:`InjectedCrash` there simulates the process dying mid-write.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import ReproError


class StoreError(ReproError):
    """The usage store was asked something inconsistent."""


class QuotaExceeded(StoreError):
    """A submission would exceed the tenant's CPU-time budget."""

    def __init__(self, message: str, job: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.job = job


class InjectedCrash(RuntimeError):
    """Raised by test crash hooks to simulate dying mid-transaction."""


#: Job lifecycle.  ``queued`` jobs exist in the store but have not started
#: (over-quota submissions with ``over_quota="queue"`` park here);
#: ``rejected`` jobs were refused at submission and will never run.
JOB_STATES = ("queued", "running", "completed", "failed", "rejected")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS tenants (
    tenant_id   TEXT PRIMARY KEY,
    name        TEXT NOT NULL UNIQUE,
    plan        TEXT NOT NULL DEFAULT 'per-cpu-second',
    quota_ns    INTEGER
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id          TEXT PRIMARY KEY,
    tenant_id       TEXT NOT NULL REFERENCES tenants(tenant_id),
    idempotency_key TEXT NOT NULL,
    spec_key        TEXT NOT NULL,
    spec_json       TEXT NOT NULL,
    state           TEXT NOT NULL,
    cached          INTEGER NOT NULL DEFAULT 0,
    error           TEXT,
    result_json     TEXT,
    deadline_exceeded INTEGER NOT NULL DEFAULT 0,
    UNIQUE (tenant_id, idempotency_key)
);
CREATE INDEX IF NOT EXISTS idx_jobs_tenant ON jobs(tenant_id);
CREATE INDEX IF NOT EXISTS idx_jobs_spec ON jobs(spec_key);
CREATE TABLE IF NOT EXISTS ledger (
    entry_id            INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id              TEXT NOT NULL UNIQUE REFERENCES jobs(job_id),
    tenant_id           TEXT NOT NULL,
    spec_key            TEXT NOT NULL,
    billed_ns           INTEGER NOT NULL,
    utime_ns            INTEGER NOT NULL,
    stime_ns            INTEGER NOT NULL,
    trust_level         TEXT NOT NULL,
    uncertainty_ns      INTEGER NOT NULL,
    amount_microdollars INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_ledger_tenant ON ledger(tenant_id);
CREATE INDEX IF NOT EXISTS idx_ledger_spec ON ledger(spec_key);
"""


@dataclass(frozen=True)
class LedgerEntry:
    """One append-only usage record — a completed job's bill."""

    entry_id: int
    job_id: str
    tenant_id: str
    spec_key: str
    billed_ns: int
    utime_ns: int
    stime_ns: int
    trust_level: str
    uncertainty_ns: int
    amount_microdollars: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entry_id": self.entry_id,
            "job_id": self.job_id,
            "tenant_id": self.tenant_id,
            "spec_key": self.spec_key,
            "billed_ns": self.billed_ns,
            "utime_ns": self.utime_ns,
            "stime_ns": self.stime_ns,
            "trust_level": self.trust_level,
            "uncertainty_ns": self.uncertainty_ns,
            "amount_microdollars": self.amount_microdollars,
        }


_LEDGER_COLUMNS = ("entry_id, job_id, tenant_id, spec_key, billed_ns, "
                   "utime_ns, stime_ns, trust_level, uncertainty_ns, "
                   "amount_microdollars")
_TENANT_COLUMNS = "tenant_id, name, plan, quota_ns"
_JOB_COLUMNS = ("job_id, tenant_id, idempotency_key, spec_key, spec_json, "
                "state, cached, error, result_json, deadline_exceeded")


def _tenant_doc(row: Tuple) -> Dict[str, Any]:
    return {"tenant_id": row[0], "name": row[1], "plan": row[2],
            "quota_ns": row[3]}


def _job_doc(row: Tuple) -> Dict[str, Any]:
    """A ``jobs`` row (columns in :data:`_JOB_COLUMNS` order) as the job
    document every reader gets."""
    return {
        "job_id": row[0],
        "tenant_id": row[1],
        "idempotency_key": row[2],
        "spec_key": row[3],
        "spec": json.loads(row[4]),
        "state": row[5],
        "cached": bool(row[6]),
        "error": row[7],
        "result": json.loads(row[8]) if row[8] is not None else None,
        "deadline_exceeded": bool(row[9]),
    }


class UsageStore:
    """SQLite-WAL-backed tenant/job/ledger store.

    One connection guarded by a re-entrant lock: the worker pool's threads
    all funnel through it, so SQLite's single-writer rule is satisfied by
    construction and write transactions never interleave mid-flight.
    ``synchronous=FULL`` makes every commit an fsync (counted in
    :attr:`fsyncs` for the ``/metrics`` exposition).
    """

    #: Default lock-wait budget.  Shard workers and external auditors
    #: open the same file from other processes; without a busy timeout a
    #: writer holding the file for one commit makes every concurrent
    #: touch raise "database is locked" *immediately* instead of waiting
    #: out the (millisecond-scale) contention.
    DEFAULT_BUSY_TIMEOUT_MS = 5_000

    def __init__(self, path: str,
                 busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS) -> None:
        self.path = str(path)
        self.busy_timeout_ms = int(busy_timeout_ms)
        if self.busy_timeout_ms < 0:
            raise StoreError("busy_timeout_ms must be >= 0")
        self._lock = threading.RLock()
        self._crash_hooks: Dict[str, Callable[[], None]] = {}
        #: In-flight quota reservations (job_id -> tenant_id).  Purely
        #: in-memory: a reservation exists only while the job that took it
        #: is dispatched-but-unbilled in *this* process, so a restart can
        #: never leak one.
        self._reservations: Dict[str, str] = {}
        #: Committed write transactions — with synchronous=FULL, a lower
        #: bound on the fsyncs the durability story paid for.
        self.fsyncs = 0
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        # Explicit transaction control: the store BEGINs and COMMITs by
        # hand so the crash hooks sit at exact, nameable points.
        self._conn.isolation_level = None
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=FULL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._conn.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
        with self._transaction("init"):
            for statement in _SCHEMA.strip().split(";\n"):
                if statement.strip():
                    self._conn.execute(statement)
            self._migrate()

    def _migrate(self) -> None:
        """Bring a pre-existing database up to the current schema.

        ``CREATE TABLE IF NOT EXISTS`` skips tables that already exist,
        so columns added after a store shipped need an explicit ALTER.
        Runs inside the init transaction.
        """
        columns = {row[1] for row in
                   self._conn.execute("PRAGMA table_info(jobs)")}
        if "deadline_exceeded" not in columns:
            self._conn.execute(
                "ALTER TABLE jobs ADD COLUMN deadline_exceeded "
                "INTEGER NOT NULL DEFAULT 0")

    # -- crash injection ---------------------------------------------------

    def set_crash_hook(self, point: str,
                       hook: Optional[Callable[[], None]]) -> None:
        """Install (or with ``None`` clear) a hook fired at ``point``.

        Points are ``<txn>:<where>`` with ``where`` one of ``after-insert``
        (billing only: ledger row written, job row not yet),
        ``before-commit`` (all rows written, transaction open) and
        ``after-commit`` (transaction durable).  A hook that raises aborts
        the transaction exactly as a crash at that instant would.
        """
        with self._lock:
            if hook is None:
                self._crash_hooks.pop(point, None)
            else:
                self._crash_hooks[point] = hook

    def _fire(self, point: str) -> None:
        hook = self._crash_hooks.get(point)
        if hook is not None:
            hook()

    @contextlib.contextmanager
    def _transaction(self, name: str) -> Iterator[None]:
        """BEGIN IMMEDIATE .. COMMIT with rollback on any exception.

        An exception (an injected crash included) leaves the database as a
        real crash would: the open transaction is abandoned, nothing of it
        is visible afterwards, and the connection is reusable for the
        retry.
        """
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield
                self._fire(f"{name}:before-commit")
                self._conn.execute("COMMIT")
            except BaseException:
                with contextlib.suppress(sqlite3.Error):
                    self._conn.execute("ROLLBACK")
                raise
            self.fsyncs += 1
            self._fire(f"{name}:after-commit")

    def close(self) -> None:
        with self._lock:
            with contextlib.suppress(sqlite3.Error):
                self._conn.close()

    # -- tenants -----------------------------------------------------------

    def register_tenant(self, name: str, plan: str = "per-cpu-second",
                        quota_ns: Optional[int] = None) -> Dict[str, Any]:
        if not name or not isinstance(name, str):
            raise StoreError("tenant name must be a non-empty string")
        if quota_ns is not None and (not isinstance(quota_ns, int)
                                     or quota_ns < 0):
            raise StoreError("quota_ns must be a non-negative integer")
        with self._lock:
            row = self._conn.execute(
                "SELECT tenant_id FROM tenants WHERE name = ?",
                (name,)).fetchone()
            if row is not None:
                raise StoreError(f"tenant name {name!r} already registered")
            count = self._conn.execute(
                "SELECT COUNT(*) FROM tenants").fetchone()[0]
            tenant_id = f"t-{count + 1:04d}"
            with self._transaction("tenant"):
                self._conn.execute(
                    "INSERT INTO tenants (tenant_id, name, plan, quota_ns) "
                    "VALUES (?, ?, ?, ?)",
                    (tenant_id, name, plan, quota_ns))
        return self.tenant(tenant_id)

    def tenant(self, tenant_id: str) -> Dict[str, Any]:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_TENANT_COLUMNS} FROM tenants WHERE tenant_id = ?",
                (tenant_id,)).fetchone()
        if row is None:
            raise KeyError(tenant_id)
        return _tenant_doc(row)

    def tenants(self) -> List[Dict[str, Any]]:
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {_TENANT_COLUMNS} FROM tenants "
                f"ORDER BY tenant_id").fetchall()
        return [_tenant_doc(row) for row in rows]

    def set_quota(self, tenant_id: str,
                  quota_ns: Optional[int]) -> Dict[str, Any]:
        if quota_ns is not None and (not isinstance(quota_ns, int)
                                     or quota_ns < 0):
            raise StoreError("quota_ns must be a non-negative integer")
        with self._lock:
            self.tenant(tenant_id)  # KeyError on unknown tenant
            with self._transaction("tenant"):
                self._conn.execute(
                    "UPDATE tenants SET quota_ns = ? WHERE tenant_id = ?",
                    (quota_ns, tenant_id))
        return self.tenant(tenant_id)

    # -- quota reservations ------------------------------------------------

    def try_reserve(self, tenant_id: str, job_id: str) -> bool:
        """Atomically check the tenant's quota and reserve admission.

        The check-then-dispatch race lives here: billing lands long after
        admission, so "ledger total < quota" alone lets N racing
        submissions all pass before any of them bills.  Under the store
        lock this re-reads the tenant row (a concurrent ``set_quota`` is
        always honoured), then admits only if the tenant is under budget
        **and** has no other dispatched-but-unbilled job holding a
        reservation — one in-flight job pessimistically reserves the whole
        remaining budget, which is exactly serial admission.  Unlimited
        tenants (``quota_ns`` NULL) are admitted without a reservation and
        never serialise.

        Returns True if the job may dispatch; the caller must
        :meth:`release_reservation` once the job reaches a terminal state.
        """
        with self._lock:
            tenant = self.tenant(tenant_id)  # KeyError on unknown tenant
            quota_ns = tenant["quota_ns"]
            if quota_ns is None:
                return True
            if tenant_id in self._reservations.values():
                return False
            if self.ledger_total_ns(tenant_id) >= quota_ns:
                return False
            self._reservations[job_id] = tenant_id
            return True

    def release_reservation(self, job_id: str) -> None:
        """Drop a job's quota reservation (no-op if it never took one)."""
        with self._lock:
            self._reservations.pop(job_id, None)

    def reservation_count(self) -> int:
        with self._lock:
            return len(self._reservations)

    # -- jobs --------------------------------------------------------------

    def create_job(self, tenant_id: str, spec_key: str, spec_doc: Dict,
                   idempotency_key: Optional[str] = None,
                   state: str = "queued") -> Tuple[Dict[str, Any], bool]:
        """Record a submission.  Returns ``(job_doc, created)``: a repeat
        of an idempotency key the tenant already used returns the existing
        job untouched with ``created=False`` — retrying a submission after
        a client-side crash can never enqueue (or bill) the work twice.

        An unknown tenant raises ``KeyError``: the jobs table's foreign
        key refuses the row, so the store is left as it was."""
        if state not in JOB_STATES:
            raise StoreError(f"unknown job state {state!r}")
        with self._lock:
            keyed = idempotency_key is not None
            if keyed:
                row = self._job_by_key(tenant_id, idempotency_key)
                if row is not None:
                    return _job_doc(row), False
            spec_json = json.dumps(spec_doc, sort_keys=True)
            try:
                with self._transaction("job"):
                    # Counted under the write lock: another connection to
                    # this file cannot mint the same id in between.
                    count = self._conn.execute(
                        "SELECT COUNT(*) FROM jobs").fetchone()[0]
                    job_id = f"j-{count + 1:06d}"
                    if idempotency_key is None:
                        idempotency_key = f"auto:{job_id}"
                    self._conn.execute(
                        "INSERT INTO jobs (job_id, tenant_id, "
                        "idempotency_key, spec_key, spec_json, state) "
                        "VALUES (?, ?, ?, ?, ?, ?)",
                        (job_id, tenant_id, idempotency_key, spec_key,
                         spec_json, state))
            except sqlite3.IntegrityError as exc:
                if "FOREIGN KEY" in str(exc):
                    raise KeyError(tenant_id) from None
                # Another connection to this file inserted the same key
                # between the lookup above and the write lock: the key
                # names its job, so answer with that one.
                row = self._job_by_key(tenant_id, idempotency_key) \
                    if keyed else None
                if row is None:
                    raise
                return _job_doc(row), False
        return _job_doc((job_id, tenant_id, idempotency_key, spec_key,
                         spec_json, state, 0, None, None, 0)), True

    def _job_by_key(self, tenant_id: str, idempotency_key: str):
        return self._conn.execute(
            f"SELECT {_JOB_COLUMNS} FROM jobs WHERE tenant_id = ? "
            f"AND idempotency_key = ?",
            (tenant_id, idempotency_key)).fetchone()

    def set_job_state(self, job_id: str, state: str,
                      error: Optional[str] = None) -> None:
        if state not in JOB_STATES:
            raise StoreError(f"unknown job state {state!r}")
        with self._transaction("job"):
            self._update_job(
                job_id, "UPDATE jobs SET state = ?, error = ? "
                "WHERE job_id = ?", (state, error, job_id))

    def _update_job(self, job_id: str, sql: str, args: Tuple) -> None:
        """Run a one-job UPDATE inside the open transaction; an unknown
        job raises ``KeyError``, which rolls the transaction back."""
        if self._conn.execute(sql, args).rowcount != 1:
            raise KeyError(job_id)

    def job(self, job_id: str) -> Dict[str, Any]:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE job_id = ?",
                (job_id,)).fetchone()
        if row is None:
            raise KeyError(job_id)
        return _job_doc(row)

    def mark_deadline_exceeded(self, job_id: str) -> None:
        """Record that a waiter's deadline elapsed while this job ran.

        Durable on the job row (not a process counter), so a poller can
        distinguish "slow but alive" from "lost" even across a daemon
        restart.  The marker survives completion: a job that finishes
        *after* blowing a deadline keeps the mark as an SLO paper trail.
        """
        with self._transaction("job"):
            self._update_job(
                job_id, "UPDATE jobs SET deadline_exceeded = 1 "
                "WHERE job_id = ?", (job_id,))

    def deadline_exceeded_count(self) -> int:
        with self._lock:
            return int(self._conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE deadline_exceeded = 1"
            ).fetchone()[0])

    def jobs_for_tenant(self, tenant_id: str, state: Optional[str] = None,
                        after: Optional[str] = None,
                        limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The tenant's jobs in submission order, optionally only those in
        ``state``.  ``after``/``limit`` page by keyset: at most ``limit``
        jobs submitted after job ``after`` (an unknown ``after`` matches
        nothing)."""
        query = f"SELECT {_JOB_COLUMNS} FROM jobs WHERE tenant_id = ?"
        args: List[Any] = [tenant_id]
        if state:
            query += " AND state = ?"
            args.append(state)
        if after is not None:
            query += (" AND rowid > "
                      "(SELECT rowid FROM jobs WHERE job_id = ?)")
            args.append(after)
        query += " ORDER BY rowid"
        if limit is not None:
            query += " LIMIT ?"
            args.append(limit)
        with self._lock:
            rows = self._conn.execute(query, args).fetchall()
        return [_job_doc(row) for row in rows]

    def job_state_counts(self,
                         tenant_id: Optional[str] = None) -> Dict[str, int]:
        """Jobs per state (keys in :data:`JOB_STATES` order), over the
        whole store or, given ``tenant_id``, over that tenant's jobs."""
        counts = {state: 0 for state in JOB_STATES}
        query = "SELECT state, COUNT(*) FROM jobs"
        args: Tuple = ()
        if tenant_id is not None:
            query += " WHERE tenant_id = ?"
            args = (tenant_id,)
        with self._lock:
            for state, n in self._conn.execute(query + " GROUP BY state",
                                               args):
                counts[state] = n
        return counts

    # -- billing -----------------------------------------------------------

    def bill_job(self, job_id: str, result_doc: Dict[str, Any],
                 billed_ns: int, utime_ns: int, stime_ns: int,
                 trust_level: str, uncertainty_ns: int,
                 amount_microdollars: int, cached: bool = False) -> bool:
        """Complete a job and append its ledger row — atomically.

        Returns True if this call billed the job, False if an earlier call
        already had (the idempotent retry path).  Either way the job ends
        ``completed`` with its result attached.
        """
        with self._transaction("bill"):
            # Tenant and spec identity come from the job row itself; an
            # unknown job inserts nothing here and fails the UPDATE below.
            cursor = self._conn.execute(
                "INSERT INTO ledger (job_id, tenant_id, spec_key, "
                "billed_ns, utime_ns, stime_ns, trust_level, "
                "uncertainty_ns, amount_microdollars) "
                "SELECT job_id, tenant_id, spec_key, ?, ?, ?, ?, ?, ? "
                "FROM jobs WHERE job_id = ? "
                "ON CONFLICT (job_id) DO NOTHING",
                (int(billed_ns), int(utime_ns), int(stime_ns),
                 trust_level, int(uncertainty_ns),
                 int(amount_microdollars), job_id))
            billed_now = cursor.rowcount == 1
            self._fire("bill:after-insert")
            self._update_job(
                job_id, "UPDATE jobs SET state = 'completed', cached = ?, "
                "result_json = ?, error = NULL WHERE job_id = ?",
                (1 if cached else 0,
                 json.dumps(result_doc, sort_keys=True), job_id))
        return billed_now

    def ledger_page(self, tenant_id: str, after: int = 0,
                    limit: int = 100) -> List[LedgerEntry]:
        """At most ``limit`` of the tenant's ledger entries with
        ``entry_id > after``, oldest first — a keyset page, so its cost
        does not grow with the tenant's history."""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {_LEDGER_COLUMNS} FROM ledger WHERE tenant_id = ? "
                f"AND entry_id > ? ORDER BY entry_id LIMIT ?",
                (tenant_id, int(after), int(limit))).fetchall()
        return [LedgerEntry(*row) for row in rows]

    def ledger_totals(self, tenant_id: str) -> Tuple[int, int, int]:
        """``(entries, billed ns, amount in microdollars)`` over the
        tenant's whole ledger, in one aggregate query."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(billed_ns), 0), "
                "COALESCE(SUM(amount_microdollars), 0) FROM ledger "
                "WHERE tenant_id = ?", (tenant_id,)).fetchone()
        return int(row[0]), int(row[1]), int(row[2])

    def ledger_entry_for_job(self, job_id: str) -> Optional[LedgerEntry]:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_LEDGER_COLUMNS} FROM ledger WHERE job_id = ?",
                (job_id,)).fetchone()
        return LedgerEntry(*row) if row is not None else None

    def ledger_total_ns(self, tenant_id: str) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(SUM(billed_ns), 0) FROM ledger "
                "WHERE tenant_id = ?", (tenant_id,)).fetchone()
        return int(row[0])

    def ledger_count(self) -> int:
        with self._lock:
            return int(self._conn.execute(
                "SELECT COUNT(*) FROM ledger").fetchone()[0])

    def billed_ns_by_tenant_trust(self) -> Dict[Tuple[str, str], int]:
        """(tenant name, trust level) → summed billed ns, for /metrics."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT t.name, l.trust_level, SUM(l.billed_ns) "
                "FROM ledger l JOIN tenants t ON t.tenant_id = l.tenant_id "
                "GROUP BY t.name, l.trust_level").fetchall()
        return {(name, trust): int(total) for name, trust, total in rows}

    def find_result_by_spec(self, spec_key: str) -> Optional[Dict[str, Any]]:
        """The stored result of the earliest completed job with this spec
        identity — how a re-submitted spec is served from the ledger
        instead of re-run (the simulator is deterministic, so the stored
        result IS the result)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT result_json FROM jobs WHERE spec_key = ? AND "
                "state = 'completed' AND result_json IS NOT NULL "
                "ORDER BY rowid LIMIT 1", (spec_key,)).fetchone()
        return json.loads(row[0]) if row is not None else None

    # -- integrity ---------------------------------------------------------

    def integrity_check(self) -> Dict[str, Any]:
        """Self-audit of the durability story, run after crash recovery.

        Verifies the SQLite file itself, the one-to-one completed-job ↔
        ledger-row relation (no torn rows, no double bills) and the
        conservation law: each tenant's ledger total equals the sum of the
        bills recomputed from the result documents stored on its completed
        jobs.
        """
        problems: List[str] = []
        with self._lock:
            quick = self._conn.execute("PRAGMA quick_check").fetchone()[0]
            if quick != "ok":  # pragma: no cover - needs real corruption
                problems.append(f"sqlite quick_check: {quick}")
            for (job_id,) in self._conn.execute(
                    "SELECT job_id FROM jobs WHERE state = 'completed' AND "
                    "job_id NOT IN (SELECT job_id FROM ledger)"):
                problems.append(f"completed job {job_id} has no ledger row")
            for (job_id,) in self._conn.execute(
                    "SELECT job_id FROM ledger WHERE job_id NOT IN "
                    "(SELECT job_id FROM jobs WHERE state = 'completed')"):
                problems.append(f"ledger row {job_id} has no completed job")
            for job_id, n in self._conn.execute(
                    "SELECT job_id, COUNT(*) FROM ledger GROUP BY job_id "
                    "HAVING COUNT(*) > 1"):
                problems.append(f"job {job_id} billed {n} times")
            for tenant in self.tenants():
                tenant_id = tenant["tenant_id"]
                from_results = 0
                for job in self.jobs_for_tenant(tenant_id,
                                                state="completed"):
                    usage = (job["result"] or {}).get("usage", {})
                    from_results += (int(usage.get("utime_ns", 0))
                                     + int(usage.get("stime_ns", 0)))
                ledger_total = self.ledger_total_ns(tenant_id)
                if ledger_total != from_results:
                    problems.append(
                        f"tenant {tenant_id}: ledger total {ledger_total} "
                        f"!= billed ns recomputed from job results "
                        f"{from_results}")
        return {"ok": not problems, "problems": problems,
                "ledger_entries": self.ledger_count(),
                "jobs": self.job_state_counts()}
