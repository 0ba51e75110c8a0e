"""Tenant/job/quota domain logic for the serve daemon — no HTTP in here.

:class:`MeteringService` glues the durable :class:`~repro.serve.store
.UsageStore` to the deterministic :func:`~repro.runner.specs.run_spec`
execution path on a thread worker pool:

* submissions are validated (:func:`~repro.runner.specs.spec_from_dict`),
  deduplicated by idempotency key, quota-checked against the tenant's
  ledger total, and executed concurrently;
* a spec whose identity already has a completed result in the ledger is
  **served from the ledger** — the simulator is deterministic, so the
  stored result is bit-identical to a re-run;
* every completed job is billed through one idempotent store transaction,
  so the conservation law ``sum(job billed) == ledger total`` holds under
  any interleaving and any number of crash-and-retry cycles;
* invoices, trust reports and tenant audits are derived *deterministically
  from the stored result document* — the concurrency suite holds the
  service's invoices byte-identical to serially produced ones.
"""

from __future__ import annotations

import contextlib
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import ReproError
from ..metering.billing import (
    PER_SECOND_PLAN,
    PLANS,
    PricePlan,
    TrustReport,
    grade_stats,
)
from ..metering.steal import audit_result
from ..analysis.experiment import ExperimentResult
from ..runner.specs import SpecError, run_spec, spec_from_dict, spec_key
from .metrics import MetricsRegistry
from .store import InjectedCrash, QuotaExceeded, UsageStore

INVOICE_SCHEMA = "repro-serve-invoice-v1"
TRUST_SCHEMA = "repro-serve-trust-v1"
AUDIT_SCHEMA = "repro-serve-audit-v1"
USAGE_SCHEMA = "repro-serve-usage-v2"

#: Keyset page size of the usage ledger and jobs listings: the default,
#: and the cap a larger ``limit`` is clamped to.
PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000

#: Trust-mix grades a fleet job folds into its synthesized watchdog
#: counters, worst-grade-wins like per-run interval grading.
_FLEET_TRUST_KEYS = (("trusted", "watchdog_intervals_trusted"),
                     ("degraded", "watchdog_intervals_degraded"),
                     ("untrusted", "watchdog_intervals_untrusted"))


class ServiceError(ReproError):
    """A request the service refuses; carries the HTTP status to use."""

    status = 400


class NotFound(ServiceError):
    status = 404


class Conflict(ServiceError):
    status = 409


def _trust_doc(stats: Dict[str, Any]) -> Dict[str, Any]:
    """The wire form of ``TrustReport.from_stats(stats)``, graded by the
    same :func:`grade_stats` but built without the report object: every
    invoice read pays for this.  ``_value_`` is the member's value
    itself; the ``value`` property reaches it through two Python calls."""
    level, uncertainty, trusted, degraded, untrusted = grade_stats(stats)
    return {
        "level": level._value_,
        "uncertainty_ns": uncertainty,
        "intervals_trusted": trusted,
        "intervals_degraded": degraded,
        "intervals_untrusted": untrusted,
    }


def _page_limit(limit: int) -> int:
    if limit < 1:
        raise ServiceError(f"limit must be a positive integer, got {limit}")
    return min(limit, MAX_PAGE_LIMIT)


def spec_doc_name(spec_doc: Dict[str, Any]) -> str:
    """Mirror of :attr:`~repro.runner.specs.ExperimentSpec.name` on the
    wire-format document (used for invoice job names, so an invoice is a
    pure function of the spec and its result)."""
    label = spec_doc.get("label") or ""
    if label:
        return label
    base = f"{spec_doc.get('program')}:{spec_doc.get('attack') or 'none'}"
    return f"vm:{base}" if spec_doc.get("vm") is not None else base


def invoice_doc_for(job_name: str, result_doc: Dict[str, Any],
                    plan: PricePlan) -> Dict[str, Any]:
    """One job's invoice as a plain JSON document.

    Deterministic in (job_name, result document, plan) alone — both the
    service and the concurrency suite's serial reference path call exactly
    this function, which is what makes "concurrent invoices are
    byte-identical to serial ones" a meaningful equality.
    """
    usage = result_doc["usage"]
    utime_ns = int(usage["utime_ns"])
    stime_ns = int(usage["stime_ns"])
    billed_ns = utime_ns + stime_ns
    trust = _trust_doc(result_doc.get("stats", {}))
    uncertainty = trust["uncertainty_ns"]
    return {
        "schema": INVOICE_SCHEMA,
        "job": job_name,
        "plan": plan.name,
        "utime_ns": utime_ns,
        "stime_ns": stime_ns,
        "billed_ns": billed_ns,
        "billable_bounds_ns": [max(0, billed_ns - uncertainty),
                               billed_ns + uncertainty],
        "amount_microdollars": plan.cost_microdollars(billed_ns),
        "trust": trust,
    }


class MeteringService:
    """Hosts many concurrent tenant simulations over one durable ledger."""

    def __init__(self, store: UsageStore, jobs: int = 2,
                 audit_tolerance_fraction: float = 0.1,
                 audit_floor_ns: int = 5_000_000,
                 run: Callable[..., ExperimentResult] = run_spec,
                 fleet_jobs: int = 1,
                 chaos: Optional[Any] = None) -> None:
        self.store = store
        self.metrics = MetricsRegistry(store)
        self.audit_tolerance_fraction = audit_tolerance_fraction
        self.audit_floor_ns = audit_floor_ns
        #: Worker processes per fleet job (1 = serial; the aggregate is
        #: bit-identical either way).
        self.fleet_jobs = max(1, fleet_jobs)
        #: Optional :class:`~repro.chaos.inject.ChaosInjector` firing
        #: worker faults at the top of each job attempt.  None (the
        #: default, and always the case with an empty chaos plan) adds
        #: zero work to the execution path.
        self._chaos = chaos
        #: Set while a graceful shutdown is in progress: /readyz flips to
        #: 503 so load balancers stop routing here, while in-flight jobs
        #: finish billing.
        self.draining = False
        self._run = run
        self._pool = ThreadPoolExecutor(max_workers=max(1, jobs),
                                        thread_name_prefix="repro-serve")
        self._futures: Dict[str, Future] = {}
        self._lock = threading.Lock()

    # -- tenants -----------------------------------------------------------

    def register_tenant(self, name: str, plan: str = PER_SECOND_PLAN.name,
                        quota_ns: Optional[int] = None) -> Dict[str, Any]:
        if plan not in PLANS:
            raise ServiceError(f"unknown plan {plan!r}; "
                               f"have {sorted(PLANS)}")
        return self.store.register_tenant(name, plan=plan, quota_ns=quota_ns)

    def tenant_doc(self, tenant_id: str,
                   billed_ns: Optional[int] = None) -> Dict[str, Any]:
        """The tenant row with its billed total and job counts.  A caller
        that has already summed the ledger passes that sum as
        ``billed_ns``, so one document never carries two sums of it."""
        try:
            tenant = self.store.tenant(tenant_id)
        except KeyError:
            raise NotFound(f"no such tenant {tenant_id!r}") from None
        tenant["billed_ns"] = (self.store.ledger_total_ns(tenant_id)
                               if billed_ns is None else billed_ns)
        tenant["jobs"] = self.store.job_state_counts(tenant_id)
        return tenant

    def set_quota(self, tenant_id: str,
                  quota_ns: Optional[int]) -> Dict[str, Any]:
        try:
            self.store.set_quota(tenant_id, quota_ns)
        except KeyError:
            raise NotFound(f"no such tenant {tenant_id!r}") from None
        self._release_queued(tenant_id)
        return self.tenant_doc(tenant_id)

    def _release_queued(self, tenant_id: str) -> None:
        """Dispatch queued (over-budget) jobs that now fit the quota.

        Admission goes through :meth:`UsageStore.try_reserve`, which
        re-reads the tenant row under the store lock on every iteration —
        a concurrent ``set_quota`` lowering the budget mid-release is
        honoured immediately instead of being evaluated against a tenant
        dict fetched once before the loop.
        """
        for job in self.store.jobs_for_tenant(tenant_id, state="queued"):
            with self._lock:
                if job["job_id"] in self._futures:
                    continue  # already dispatched, just not running yet
                if not self.store.try_reserve(tenant_id, job["job_id"]):
                    break
                self._dispatch(job["job_id"])

    # -- submission --------------------------------------------------------

    def submit(self, tenant_id: str, spec_doc: Dict[str, Any],
               idempotency_key: Optional[str] = None, wait: bool = True,
               over_quota: str = "reject",
               timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Submit one workload spec for a tenant.

        ``wait=True`` blocks until the job reaches a terminal state and
        returns the completed job document (invoice included);
        ``wait=False`` returns immediately with the job id for polling.
        ``over_quota`` picks the §II budget policy: ``"reject"`` refuses
        the submission (HTTP 429 at the API layer), ``"queue"`` parks it
        until the quota is raised.
        """
        try:
            spec = spec_from_dict(spec_doc)
        except SpecError as exc:
            raise ServiceError(f"bad spec: {exc}") from None
        return self._admit(tenant_id, spec_key(spec), dict(spec_doc),
                           idempotency_key=idempotency_key, wait=wait,
                           over_quota=over_quota, timeout_s=timeout_s)

    def submit_fleet(self, tenant_id: str, fleet_doc: Dict[str, Any],
                     idempotency_key: Optional[str] = None,
                     wait: bool = True, over_quota: str = "reject",
                     timeout_s: Optional[float] = None,
                     host_range: Optional[Any] = None) -> Dict[str, Any]:
        """Submit a whole fleet sweep (see docs/fleet.md) as one job.

        The job's identity is the fleet spec's content hash, so a repeated
        fleet submission is served from the ledger like any repeated spec;
        the population's total billed nanoseconds count against the
        tenant's quota exactly like a single run's.

        ``host_range`` (a ``[lo, hi)`` pair) submits one *shard* of the
        fleet: only those hosts run, the job's ledger identity includes
        the range (shards never ledger-serve each other), and the result
        document carries the exact partial-aggregate state for the shard
        client to merge (see docs/chaos.md).
        """
        from ..errors import ReproError as _ReproError
        from ..fleet import (
            FleetSpecError,
            check_host_range,
            fleet_from_dict,
            fleet_key,
        )

        try:
            fleet = fleet_from_dict(fleet_doc)
            host_range = check_host_range(
                fleet, tuple(host_range) if host_range is not None
                else None)
        except (FleetSpecError, _ReproError) as exc:
            raise ServiceError(f"bad fleet spec: {exc}") from None
        suffix = (f":h{host_range[0]}-{host_range[1]}"
                  if host_range is not None else "")
        spec_doc = {
            "label": (f"fleet:{fleet.hosts}x{fleet.guests}"
                      f":p={fleet.prevalence}:s={fleet.seed}{suffix}"),
            "fleet": fleet.to_dict(),
        }
        if host_range is not None:
            spec_doc["host_range"] = [host_range[0], host_range[1]]
        return self._admit(tenant_id,
                           fleet_key(fleet, host_range=host_range),
                           spec_doc, idempotency_key=idempotency_key,
                           wait=wait, over_quota=over_quota,
                           timeout_s=timeout_s)

    def _admit(self, tenant_id: str, key: str, spec_doc: Dict[str, Any],
               idempotency_key: Optional[str], wait: bool,
               over_quota: str, timeout_s: Optional[float]) -> Dict[str, Any]:
        """Create-dedup-reserve-dispatch, shared by spec and fleet
        submissions."""
        if over_quota not in ("reject", "queue"):
            raise ServiceError(
                f"over_quota must be 'reject' or 'queue', "
                f"got {over_quota!r}")
        try:
            tenant = self.store.tenant(tenant_id)
        except KeyError:
            raise NotFound(f"no such tenant {tenant_id!r}") from None

        with self._lock:
            job, created = self.store.create_job(
                tenant_id, key, dict(spec_doc),
                idempotency_key=idempotency_key)
            job_id = job["job_id"]
            if created:
                # Check-and-reserve is one atomic step under the store
                # lock: racing submissions from one tenant serialise here,
                # so at most one can be dispatched-but-unbilled against a
                # finite quota at a time (see UsageStore.try_reserve).
                if not self.store.try_reserve(tenant_id, job_id):
                    if over_quota == "reject":
                        self.store.set_job_state(
                            job_id, "rejected",
                            error="tenant over CPU-time quota")
                        self.metrics.quota_rejected(tenant["name"])
                        raise QuotaExceeded(
                            f"tenant {tenant['name']!r} is over its "
                            f"CPU-time budget", job=self.store.job(job_id))
                    # over_quota == "queue": park it, undispatched.
                    future = None
                else:
                    future = self._dispatch(job_id)
            else:
                future = self._futures.get(job_id)

        if wait and future is not None:
            self._wait(future, timeout_s, job_id)
        return self.job_doc(job_id)

    def _dispatch(self, job_id: str) -> Future:
        future = self._pool.submit(self._execute, job_id)
        self._futures[job_id] = future
        return future

    def _wait(self, future: Future, timeout_s: Optional[float],
              job_id: str) -> None:
        try:
            future.result(timeout=timeout_s)
        except FutureTimeout:
            # Still executing — the caller polls the job document.  Leave
            # a durable marker so the poller can tell "slow but alive"
            # from "lost": without it a blown deadline is invisible in
            # every record the system keeps.  Best-effort on purpose —
            # the marker must never turn a slow job into a failed one.
            with contextlib.suppress(Exception):
                self.store.mark_deadline_exceeded(job_id)
        except InjectedCrash:
            # Crash simulation: the job is left exactly as the crash left
            # it; the caller inspects the job document.
            pass
        except Exception as exc:
            # _execute records its own failures on the job row before
            # re-raising.  If it died before getting that far (the store
            # update itself failed, a dispatch-path bug), the error must
            # still never vanish silently: record it here.
            try:
                job = self.store.job(job_id)
            except KeyError:  # pragma: no cover - job row gone entirely
                return
            if job["state"] not in ("completed", "failed", "rejected"):
                self.store.set_job_state(
                    job_id, "failed",
                    error=f"{type(exc).__name__}: {exc}")
                self.metrics.job_failed()

    def retry_job(self, job_id: str, wait: bool = True,
                  timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Re-dispatch a job that a crash (or failure) left unfinished.

        The billing transaction is idempotent, so retrying a job that
        already reached the ledger completes it without double-billing.
        """
        job = self.job_doc(job_id)
        if job["state"] == "rejected":
            raise Conflict(f"job {job_id} was rejected; resubmit instead")
        with self._lock:
            future = self._futures.get(job_id)
            if future is None or future.done():
                future = self._dispatch(job_id)
        if wait:
            self._wait(future, timeout_s, job_id)
        return self.job_doc(job_id)

    # -- execution (worker threads) ---------------------------------------

    def _execute(self, job_id: str) -> None:
        self.metrics.job_started()
        try:
            if self._chaos is not None:
                # Injected worker crash/hang — *before* any store write,
                # so a crashed attempt is a clean retry candidate.  The
                # billing transaction is idempotent either way.
                self._chaos.worker_fault()
            job = self.store.job(job_id)
            ledger_doc = self.store.find_result_by_spec(job["spec_key"])
            if ledger_doc is not None:
                self.metrics.served_from_ledger()
                self._bill(job_id, job, ledger_doc, cached=True)
                return
            self.store.set_job_state(job_id, "running")
            if "fleet" in job["spec"]:
                result_doc = self._run_fleet_job(
                    job["spec"]["fleet"], job["spec"].get("host_range"))
            else:
                spec = spec_from_dict(job["spec"])
                result_doc = self._run(spec).to_dict()
            self._bill(job_id, job, result_doc, cached=False)
        except InjectedCrash:
            raise
        except Exception as exc:
            self.store.set_job_state(job_id, "failed",
                                     error=f"{type(exc).__name__}: {exc}")
            self.metrics.job_failed()
            raise
        finally:
            self.store.release_reservation(job_id)
            self.metrics.job_finished()

    def _run_fleet_job(self, fleet_doc: Dict[str, Any],
                       host_range: Optional[Any] = None) -> Dict[str, Any]:
        """Run a fleet sweep and shape its aggregate as a result document.

        The document is :meth:`ExperimentResult.to_dict`-compatible —
        usage carries the population's billed nanoseconds, the oracle the
        honestly-run seconds, and the trust-mix weights land in the
        watchdog counters — so billing, invoices, trust reports and the
        tenant audit all work on fleet jobs unchanged.  The full streaming
        aggregate rides along under ``fleet_report``.

        A *shard* job (``host_range`` set) additionally ships the exact
        partial-aggregate state under ``fleet_state`` so the shard client
        can merge it losslessly; unsharded fleet jobs carry no such key —
        their result documents stay byte-identical to pre-sharding ones.
        """
        from ..fleet import fleet_from_dict, run_fleet

        fleet = fleet_from_dict(fleet_doc)
        hr: Optional[Tuple[int, int]] = (
            (int(host_range[0]), int(host_range[1]))
            if host_range is not None else None)
        aggregator = run_fleet(fleet, jobs=self.fleet_jobs, host_range=hr)
        report = aggregator.report()
        stats = {wire: report["trust_mix"][grade]
                 for grade, wire in _FLEET_TRUST_KEYS
                 if report["trust_mix"][grade]}
        doc = {
            "program": "fleet",
            "attack": "population",
            "usage": {"utime_ns": report["billed_total_ns"], "stime_ns": 0},
            "attacker_usage": None,
            "wall_ns": 0,
            "rusage": None,
            "oracle_seconds": {"user": report["ran_total_ns"] / 1e9},
            "stats": stats,
            "fleet_report": report,
        }
        if hr is not None:
            doc["fleet_state"] = aggregator.to_state()
        return doc

    def _bill(self, job_id: str, job: Dict[str, Any],
              result_doc: Dict[str, Any], cached: bool) -> None:
        tenant = self.store.tenant(job["tenant_id"])
        plan = PLANS[tenant["plan"]]
        usage = result_doc["usage"]
        utime_ns = int(usage["utime_ns"])
        stime_ns = int(usage["stime_ns"])
        billed_ns = utime_ns + stime_ns
        level, uncertainty, *_counts = grade_stats(
            result_doc.get("stats", {}))
        self.store.bill_job(
            job_id, result_doc,
            billed_ns=billed_ns, utime_ns=utime_ns, stime_ns=stime_ns,
            trust_level=level.value,
            uncertainty_ns=uncertainty,
            amount_microdollars=plan.cost_microdollars(billed_ns),
            cached=cached)

    # -- queries -----------------------------------------------------------

    def job_doc(self, job_id: str) -> Dict[str, Any]:
        try:
            job = self.store.job(job_id)
        except KeyError:
            raise NotFound(f"no such job {job_id!r}") from None
        return self._with_invoice(
            job, PLANS[self.store.tenant(job["tenant_id"])["plan"]])

    @staticmethod
    def _with_invoice(job: Dict[str, Any],
                      plan: PricePlan) -> Dict[str, Any]:
        """Attach the job's invoice (None until it completes)."""
        job["invoice"] = (
            invoice_doc_for(spec_doc_name(job["spec"]), job["result"], plan)
            if job["state"] == "completed" else None)
        return job

    def _completed_job(self, job_id: str) -> Dict[str, Any]:
        job = self.job_doc(job_id)
        if job["state"] != "completed":
            raise Conflict(f"job {job_id} is {job['state']}, not completed")
        return job

    def invoice_doc(self, job_id: str) -> Dict[str, Any]:
        return self._completed_job(job_id)["invoice"]

    def trust_doc(self, job_id: str) -> Dict[str, Any]:
        job = self._completed_job(job_id)
        doc = _trust_doc(job["result"].get("stats", {}))
        doc["schema"] = TRUST_SCHEMA
        doc["job_id"] = job_id
        return doc

    def audit_doc(self, job_id: str) -> Dict[str, Any]:
        """The live tenant audit: guest steal estimator for VM jobs, the
        provenance oracle for process jobs (see
        :func:`repro.metering.steal.audit_result`)."""
        job = self._completed_job(job_id)
        result = ExperimentResult.from_dict(job["result"])
        trust = TrustReport.from_stats(result.stats)
        report = audit_result(
            result,
            tolerance_fraction=self.audit_tolerance_fraction,
            tolerance_floor_ns=self.audit_floor_ns,
            trust_uncertainty_ns=trust.uncertainty_ns)
        return {
            "schema": AUDIT_SCHEMA,
            "job_id": job_id,
            "verdict": report.verdict.value,
            "flagged": report.verdict.value != "consistent",
            "billed_ns": report.billed_ns,
            "ran_ns": report.ran_ns,
            "overbilling_ns": report.overbilling_ns,
            "est_steal_ns": report.est_steal_ns,
            "reported_steal_ns": report.reported_steal_ns,
            "report_gap_ns": report.report_gap_ns,
            "samples": report.samples,
            "tolerance_fraction": report.tolerance_fraction,
            "tolerance_floor_ns": report.tolerance_floor_ns,
        }

    def fleet_doc(self, job_id: str) -> Dict[str, Any]:
        """The full streaming aggregate of a completed fleet job."""
        job = self._completed_job(job_id)
        report = job["result"].get("fleet_report")
        if report is None:
            raise Conflict(f"job {job_id} is not a fleet job")
        doc = dict(report)
        doc["job_id"] = job_id
        return doc

    def usage_doc(self, tenant_id: str, after: int = 0,
                  limit: int = PAGE_LIMIT) -> Dict[str, Any]:
        """One keyset page of the tenant's usage ledger (entries with
        ``entry_id > after``) plus whole-ledger totals.  ``next_after`` is
        the ``after`` of the next page, None on the last one."""
        if not 0 <= after < 1 << 63:  # an SQLite INTEGER entry id
            raise ServiceError(f"after must be in [0, 2**63), got {after}")
        limit = _page_limit(limit)
        count, billed_ns, amount = self.store.ledger_totals(tenant_id)
        tenant = self.tenant_doc(tenant_id, billed_ns=billed_ns)
        entries = self.store.ledger_page(tenant_id, after=after,
                                         limit=limit + 1)
        page = entries[:limit]
        return {
            "schema": USAGE_SCHEMA,
            "tenant": tenant,
            "ledger": [entry.to_dict() for entry in page],
            "next_after": (page[-1].entry_id if len(entries) > limit
                           else None),
            "total_entries": count,
            "total_billed_ns": billed_ns,
            "total_amount_microdollars": amount,
        }

    def jobs_doc(self, tenant_id: str, after: Optional[str] = None,
                 limit: int = PAGE_LIMIT) -> Dict[str, Any]:
        """One keyset page of the tenant's jobs (submitted after job
        ``after``), invoices attached, with ``next_after`` as above."""
        limit = _page_limit(limit)
        try:
            plan = PLANS[self.store.tenant(tenant_id)["plan"]]
        except KeyError:
            raise NotFound(f"no such tenant {tenant_id!r}") from None
        jobs = self.store.jobs_for_tenant(tenant_id, after=after,
                                          limit=limit + 1)
        page = jobs[:limit]
        return {
            "jobs": [self._with_invoice(job, plan) for job in page],
            "next_after": page[-1]["job_id"] if len(jobs) > limit else None,
        }

    def metrics_text(self) -> str:
        return self.metrics.render()

    def readiness(self) -> Dict[str, Any]:
        """The ``/readyz`` document: can this process *usefully* take
        traffic right now?  Liveness (``/healthz``) says the process is
        up; readiness also checks that the store answers and that no
        graceful drain is in progress, and surfaces the circuit-breaker
        state when a resilient store wrapper is installed."""
        store_ok = True
        store_error = None
        try:
            self.store.ledger_count()
        except Exception as exc:
            store_ok = False
            store_error = f"{type(exc).__name__}: {exc}"
        breaker = getattr(self.store, "breaker", None)
        with self._lock:
            inflight = sum(1 for f in self._futures.values()
                           if not f.done())
        doc: Dict[str, Any] = {
            "ready": store_ok and not self.draining,
            "draining": self.draining,
            "store_ok": store_ok,
            "jobs_inflight": inflight,
        }
        if store_error is not None:
            doc["store_error"] = store_error
        if breaker is not None:
            doc["breaker"] = breaker.state
        return doc

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Wait for every dispatched job to reach a terminal state.

        ``timeout_s`` is an *overall* deadline across all in-flight jobs
        (None waits indefinitely).  Returns True when everything reached
        a terminal state, False when the deadline expired with work still
        running — the caller decides whether that is a shutdown error.
        """
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        with self._lock:
            futures = dict(self._futures)
        drained = True
        for job_id, future in futures.items():
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            self._wait(future, remaining, job_id)
            if not future.done():
                drained = False
        return drained

    def shutdown(self, drain_timeout_s: Optional[float] = None) -> bool:
        """Graceful stop: flag draining, drain with a deadline, close.

        Jobs still running when the deadline passes are abandoned to the
        executor (their billing transaction is idempotent, so a restart
        retries them safely); the store is closed regardless so the WAL
        is checkpointed.  Returns :meth:`drain`'s verdict.
        """
        self.draining = True
        drained = self.drain(timeout_s=drain_timeout_s)
        # cancel_futures drops queued-but-unstarted work; running jobs
        # past the deadline are not joined (wait=False) — by design.
        self._pool.shutdown(wait=drained, cancel_futures=not drained)
        self.store.close()
        return drained

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        self.store.close()
