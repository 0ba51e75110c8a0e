"""End-to-end selftest for ``repro serve`` — also the CI smoke scenario.

Boots a *real* server on an ephemeral port and drives it over HTTP the
way a tenant would (stdlib ``urllib``, no test framework):

* an **honest** tenant submits the paper's W workload and must get a
  ``consistent`` audit verdict;
* an **attacker** tenant submits the same workload under the §IV-B1
  scheduling attack (nice −20, tick-dodging forks) and must get billed
  for the stolen cycles *and flagged* by the tenant audit;
* a re-submission of the honest spec is served from the durable ledger
  without re-running, byte-identical invoice included;
* a **capped** tenant exhausts its CPU-time quota and sees a 429, then a
  queued submission released by a quota raise;
* ``/metrics`` exposes the whole story and the store passes its
  integrity check (conservation law included).

Every observation lands in the same ``[PASS]/[FAIL]`` check list the
``vm``/``faults`` commands use, and ``repro serve --selftest`` exits
non-zero if any check fails.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Tuple

from ..checks import CheckList
from .api import ReproServer
from .service import MeteringService
from .store import UsageStore

POLL_INTERVAL_S = 0.02
POLL_TIMEOUT_S = 60.0


class _Client:
    """Tiny JSON-over-HTTP client for the selftest (stdlib only)."""

    def __init__(self, base: str) -> None:
        self.base = base

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None
                ) -> Tuple[int, Any, str]:
        """(status, parsed JSON or None, raw text)."""
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        req = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                status = resp.status
                text = resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            status = exc.code
            text = exc.read().decode("utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        return status, doc, text

    def get(self, path: str) -> Tuple[int, Any, str]:
        return self.request("GET", path)

    def post(self, path: str,
             body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any, str]:
        return self.request("POST", path, body or {})

    def poll_job(self, job_id: str) -> Dict[str, Any]:
        deadline = time.monotonic() + POLL_TIMEOUT_S
        while True:
            status, job, _ = self.get(f"/v1/jobs/{job_id}")
            if status == 200 and job["state"] in ("completed", "failed",
                                                  "rejected"):
                return job
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still "
                                   f"{job and job.get('state')!r} after "
                                   f"{POLL_TIMEOUT_S}s")
            time.sleep(POLL_INTERVAL_S)


def _canon(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True)


def run_selftest(db: str, scale: float = 0.1, jobs: int = 2,
                 quiet: bool = False) -> Dict[str, Any]:
    """Run the scenario against a throwaway server; return the report doc
    (``passed``, ``checks``, endpoint samples)."""
    from ..analysis.figures import paper_workload_params

    checks = CheckList(echo=None if quiet else print)

    params = dict(paper_workload_params(scale)["W"])
    honest_spec = {"program": "W", "program_kwargs": params,
                   "label": "serve:honest"}
    attack_spec = {"program": "W", "program_kwargs": params,
                   "attack": "scheduling",
                   "attack_kwargs": {"nice": -20,
                                     "forks": max(1, int(8_000 * scale))},
                   "label": "serve:attacker"}

    store = UsageStore(db)
    service = MeteringService(store, jobs=jobs)
    server = ReproServer(service)
    server.start_background()
    client = _Client(server.address)
    try:
        status, health, _ = client.get("/healthz")
        checks.add("healthz answers",
                   status == 200 and health.get("ok") is True,
                   f"status={status} doc={health}")

        _, honest, _ = client.post("/v1/tenants", {"name": "honest"})
        _, attacker, _ = client.post(
            "/v1/tenants", {"name": "attacker", "plan": "per-cpu-second"})
        status, bad, _ = client.post("/v1/tenants",
                                     {"name": "bad", "plan": "free-lunch"})
        checks.add("unknown plan rejected",
                   status == 400 and "plan" in bad.get("error", ""),
                   f"status={status} error={bad.get('error')!r}")

        # Honest tenant: synchronous submit, audit must come back clean.
        status, hjob, _ = client.post(
            f"/v1/tenants/{honest['tenant_id']}/jobs",
            {"spec": honest_spec})
        checks.add("honest job completes synchronously",
                   status == 200 and hjob["state"] == "completed"
                   and hjob["invoice"] is not None,
                   f"status={status} state={hjob.get('state')}")
        _, haudit, _ = client.get(f"/v1/jobs/{hjob['job_id']}/audit")
        checks.add("honest tenant's audit is consistent",
                   haudit["verdict"] == "consistent" and not haudit["flagged"],
                   f"verdict={haudit['verdict']} "
                   f"overbilling={haudit['overbilling_ns'] / 1e9:+.3f}s")

        # Attacker tenant: §IV-B1 scheduling attack, asynchronous submit.
        status, ajob, _ = client.post(
            f"/v1/tenants/{attacker['tenant_id']}/jobs",
            {"spec": attack_spec, "wait": False})
        checks.add("async submit returns immediately with a pollable job",
                   status == 200 and ajob["job_id"].startswith("j-"),
                   f"status={status} state={ajob.get('state')}")
        ajob = client.poll_job(ajob["job_id"])
        checks.add("attacker job completes", ajob["state"] == "completed",
                   f"state={ajob['state']} error={ajob.get('error')}")
        _, aaudit, _ = client.get(f"/v1/jobs/{ajob['job_id']}/audit")
        checks.add("scheduling attack flagged by the tenant audit",
                   aaudit["flagged"]
                   and aaudit["verdict"] in ("overbilled", "misreported"),
                   f"verdict={aaudit['verdict']} "
                   f"overbilling={aaudit['overbilling_ns'] / 1e9:+.3f}s")
        checks.add("attack inflates the victim's bill",
                   ajob["invoice"]["billed_ns"] > hjob["invoice"]["billed_ns"],
                   f"attacked={ajob['invoice']['billed_ns'] / 1e9:.3f}s "
                   f"honest={hjob['invoice']['billed_ns'] / 1e9:.3f}s")

        # Idempotency: same key returns the same job, no re-run.
        status, hjob2, _ = client.post(
            f"/v1/tenants/{honest['tenant_id']}/jobs",
            {"spec": honest_spec, "idempotency_key": "retry-1"})
        status, hjob3, _ = client.post(
            f"/v1/tenants/{honest['tenant_id']}/jobs",
            {"spec": honest_spec, "idempotency_key": "retry-1"})
        checks.add("idempotency key dedups the resubmission",
                   hjob2["job_id"] == hjob3["job_id"],
                   f"{hjob2['job_id']} vs {hjob3['job_id']}")
        checks.add("resubmitted spec served from the ledger, not re-run",
                   hjob2["cached"] is True,
                   f"cached={hjob2['cached']}")
        checks.add("ledger-served invoice byte-identical to the original",
                   _canon(hjob2["invoice"]) == _canon(hjob["invoice"]),
                   f"{len(_canon(hjob2['invoice']))} bytes compared")

        # Quota: capped tenant runs once, then hits its budget.
        _, capped, _ = client.post(
            "/v1/tenants", {"name": "capped", "quota_ns": 1_000_000})
        status, cjob, _ = client.post(
            f"/v1/tenants/{capped['tenant_id']}/jobs",
            {"spec": dict(honest_spec, label="serve:capped")})
        checks.add("capped tenant's first job runs (budget not yet consumed)",
                   status == 200 and cjob["state"] == "completed",
                   f"status={status} state={cjob.get('state')}")
        status, rejected, _ = client.post(
            f"/v1/tenants/{capped['tenant_id']}/jobs",
            {"spec": dict(honest_spec, label="serve:capped2")})
        checks.add("over-budget submission rejected with 429",
                   status == 429 and rejected["job"]["state"] == "rejected",
                   f"status={status} error={rejected.get('error')!r}")
        status, queued, _ = client.post(
            f"/v1/tenants/{capped['tenant_id']}/jobs",
            {"spec": dict(honest_spec, label="serve:capped3"),
             "over_quota": "queue", "wait": False})
        checks.add("over-budget submission can queue instead",
                   status == 200 and queued["state"] == "queued",
                   f"status={status} state={queued.get('state')}")
        client.post(f"/v1/tenants/{capped['tenant_id']}/quota",
                    {"quota_ns": None})
        released = client.poll_job(queued["job_id"])
        checks.add("queued job released by the quota raise",
                   released["state"] == "completed",
                   f"state={released['state']}")

        # Usage history and the conservation law, one entry per page so
        # the keyset cursor is exercised end to end.
        ledger, pages, after = [], 0, 0
        while after is not None:
            _, usage, _ = client.get(
                f"/v1/tenants/{honest['tenant_id']}/usage"
                f"?after={after}&limit=1")
            ledger += usage["ledger"]
            pages += 1
            after = usage["next_after"]
        ledger_sum = sum(entry["billed_ns"] for entry in ledger)
        checks.add("usage ledger pages sum to the reported total",
                   ledger_sum == usage["total_billed_ns"] and ledger_sum > 0
                   and len(ledger) == usage["total_entries"],
                   f"{len(ledger)} entries over {pages} pages, "
                   f"{ledger_sum / 1e9:.3f}s billed")
        integrity = store.integrity_check()
        checks.add("store integrity + conservation law hold",
                   integrity["ok"],
                   f"problems={integrity['problems']}")

        # Error surface.
        status, _, _ = client.get("/v1/jobs/j-999999")
        checks.add("unknown job is a 404", status == 404, f"status={status}")
        status, badspec, _ = client.post(
            f"/v1/tenants/{honest['tenant_id']}/jobs",
            {"spec": {"program": "W", "bogus_field": 1}})
        checks.add("malformed spec is a 400",
                   status == 400 and "bogus_field" in badspec.get("error", ""),
                   f"status={status} error={badspec.get('error')!r}")

        # Metrics exposition.
        status, _, metrics_text = client.get("/metrics")
        expected_series = [
            'repro_serve_jobs_total{state="completed"}',
            "repro_serve_jobs_inflight",
            'repro_serve_billed_ns_total{tenant="attacker"',
            'repro_serve_quota_rejections_total{tenant="capped"} 1',
            "repro_serve_ledger_entries_total",
            "repro_serve_store_fsyncs_total",
            'repro_serve_http_requests_total{code="429",method="POST"} 1',
        ]
        missing = [s for s in expected_series if s not in metrics_text]
        checks.add("/metrics exposes the expected series",
                   status == 200 and not missing,
                   f"missing={missing}" if missing
                   else f"{len(metrics_text.splitlines())} lines")
        completed = service.store.job_state_counts()["completed"]
        checks.add("metrics job counts agree with the store",
                   f'repro_serve_jobs_total{{state="completed"}} {completed}'
                   in metrics_text,
                   f"completed={completed}")
    finally:
        server.close()

    passed = checks.passed
    return {
        "command": "serve-selftest",
        "db": db,
        "scale": scale,
        "jobs": jobs,
        "passed": passed,
        "checks": checks.to_dicts(),
        "metrics": metrics_text if passed else None,
    }
