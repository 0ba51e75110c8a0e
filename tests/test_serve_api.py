"""API-contract suite for ``repro serve``: pinned response schemas.

Every endpoint's response shape is pinned as an exact key set — adding,
renaming or dropping a field is a deliberate, test-visible act, because
tenants script against these documents.  The suite drives one real
daemon (ephemeral port, real HTTP) through the paper's core scenario and
also pins the ``/metrics`` exposition format line by line.
"""

import json
import re
import time
import urllib.error
import urllib.parse
import urllib.request
from http.client import HTTPConnection

import pytest

from repro.serve import MeteringService, ReproServer, UsageStore

# Small enough to stay fast, large enough that the scheduling attack's
# stolen cycles clear the audit's 5 ms tolerance floor.
SCALE = 0.05

TENANT_KEYS = {"tenant_id", "name", "plan", "quota_ns", "billed_ns",
               "jobs"}
JOB_KEYS = {"job_id", "tenant_id", "idempotency_key", "spec_key", "spec",
            "state", "cached", "error", "result", "invoice",
            "deadline_exceeded"}
INVOICE_KEYS = {"schema", "job", "plan", "utime_ns", "stime_ns",
                "billed_ns", "billable_bounds_ns", "amount_microdollars",
                "trust"}
TRUST_KEYS = {"level", "uncertainty_ns", "intervals_trusted",
              "intervals_degraded", "intervals_untrusted"}
TRUST_REPORT_KEYS = TRUST_KEYS | {"schema", "job_id"}
AUDIT_KEYS = {"schema", "job_id", "verdict", "flagged", "billed_ns",
              "ran_ns", "overbilling_ns", "est_steal_ns",
              "reported_steal_ns", "report_gap_ns", "samples",
              "tolerance_fraction", "tolerance_floor_ns"}
USAGE_KEYS = {"schema", "tenant", "ledger", "next_after", "total_entries",
              "total_billed_ns", "total_amount_microdollars"}
LEDGER_ENTRY_KEYS = {"entry_id", "job_id", "tenant_id", "spec_key",
                     "billed_ns", "utime_ns", "stime_ns", "trust_level",
                     "uncertainty_ns", "amount_microdollars"}
ERROR_KEYS = {"error"}
QUOTA_REJECTION_KEYS = {"error", "job"}
HEALTH_KEYS = {"ok", "version", "store"}

METRIC_LINE = re.compile(
    r"^[a-z_:][a-z0-9_:]*(\{[a-z_]+=\"[^\"]*\"(,[a-z_]+=\"[^\"]*\")*\})?"
    r" -?\d+$")


def http(method, url, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read().decode(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), dict(exc.headers)


def jget(base, path):
    status, text, _ = http("GET", base + path)
    return status, json.loads(text)


def jpost(base, path, body):
    status, text, _ = http("POST", base + path, body)
    return status, json.loads(text)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One daemon, one honest tenant, one §IV-B1 attacker — shared by the
    whole module (the scenario is deterministic)."""
    from repro.analysis.figures import paper_workload_params

    store = UsageStore(str(tmp_path_factory.mktemp("serve") / "usage.db"))
    server = ReproServer(MeteringService(store, jobs=2))
    server.start_background()
    base = server.address

    params = dict(paper_workload_params(SCALE)["W"])
    _, honest = jpost(base, "/v1/tenants",
                      {"name": "honest", "quota_ns": 10 ** 9})
    _, attacker = jpost(base, "/v1/tenants", {"name": "attacker"})
    _, hjob = jpost(base, f"/v1/tenants/{honest['tenant_id']}/jobs",
                    {"spec": {"program": "W", "program_kwargs": params,
                              "label": "api:honest"}})
    _, ajob = jpost(
        base, f"/v1/tenants/{attacker['tenant_id']}/jobs",
        {"spec": {"program": "W", "program_kwargs": params,
                  "attack": "scheduling",
                  "attack_kwargs": {"nice": -20,
                                    "forks": max(1, int(8_000 * SCALE))},
                  "label": "api:attacker"}})
    yield {"base": base, "store": store, "honest": honest,
           "attacker": attacker, "hjob": hjob, "ajob": ajob}
    server.close()


class TestEndpointSchemas:
    def test_healthz(self, served):
        status, doc = jget(served["base"], "/healthz")
        assert status == 200
        assert set(doc) == HEALTH_KEYS
        assert doc["ok"] is True

    def test_tenant_doc(self, served):
        status, doc = jget(
            served["base"], f"/v1/tenants/{served['honest']['tenant_id']}")
        assert status == 200
        assert set(doc) == TENANT_KEYS
        assert set(doc["jobs"]) == {"queued", "running", "completed",
                                    "failed", "rejected"}
        assert doc["jobs"]["completed"] == 1

    def test_tenant_listing(self, served):
        status, doc = jget(served["base"], "/v1/tenants")
        assert status == 200
        assert set(doc) == {"tenants"}
        assert [t["name"] for t in doc["tenants"]] == ["honest",
                                                       "attacker"]

    def test_job_doc(self, served):
        status, doc = jget(served["base"],
                           f"/v1/jobs/{served['hjob']['job_id']}")
        assert status == 200
        assert set(doc) == JOB_KEYS
        assert doc["state"] == "completed"
        assert set(doc["invoice"]) == INVOICE_KEYS

    def test_invoice_doc(self, served):
        status, doc = jget(
            served["base"], f"/v1/jobs/{served['hjob']['job_id']}/invoice")
        assert status == 200
        assert set(doc) == INVOICE_KEYS
        assert doc["schema"] == "repro-serve-invoice-v1"
        assert set(doc["trust"]) == TRUST_KEYS
        assert doc["billed_ns"] == doc["utime_ns"] + doc["stime_ns"]
        low, high = doc["billable_bounds_ns"]
        assert low <= doc["billed_ns"] <= high
        assert doc["plan"] == "per-cpu-second"

    def test_trust_doc(self, served):
        status, doc = jget(
            served["base"], f"/v1/jobs/{served['hjob']['job_id']}/trust")
        assert status == 200
        assert set(doc) == TRUST_REPORT_KEYS
        assert doc["schema"] == "repro-serve-trust-v1"
        assert doc["level"] == "trusted"  # no faults in this run

    def test_audit_doc(self, served):
        status, doc = jget(
            served["base"], f"/v1/jobs/{served['hjob']['job_id']}/audit")
        assert status == 200
        assert set(doc) == AUDIT_KEYS
        assert doc["schema"] == "repro-serve-audit-v1"

    def test_usage_doc(self, served):
        status, doc = jget(
            served["base"],
            f"/v1/tenants/{served['honest']['tenant_id']}/usage")
        assert status == 200
        assert set(doc) == USAGE_KEYS
        assert doc["schema"] == "repro-serve-usage-v2"
        assert set(doc["tenant"]) == TENANT_KEYS
        assert len(doc["ledger"]) == 1
        assert doc["next_after"] is None
        assert doc["total_entries"] == 1
        assert set(doc["ledger"][0]) == LEDGER_ENTRY_KEYS
        assert doc["total_billed_ns"] == doc["ledger"][0]["billed_ns"]

    def test_error_docs(self, served):
        status, doc = jget(served["base"], "/v1/jobs/j-999999")
        assert status == 404
        assert set(doc) == ERROR_KEYS
        status, doc = jget(served["base"], "/v1/nowhere")
        assert status == 404
        assert set(doc) == ERROR_KEYS
        status, doc = jpost(
            served["base"],
            f"/v1/tenants/{served['honest']['tenant_id']}/jobs",
            {"spec": {"program": "no-such-program"}})
        assert status == 400
        assert set(doc) == ERROR_KEYS

    def test_quota_rejection_doc(self, served):
        # The honest tenant has a 1s budget and has billed under it; shrink
        # the quota to force the 429 and pin the rejection document.
        base = served["base"]
        tid = served["honest"]["tenant_id"]
        jpost(base, f"/v1/tenants/{tid}/quota", {"quota_ns": 1})
        status, doc = jpost(
            base, f"/v1/tenants/{tid}/jobs",
            {"spec": {"program": "W", "program_kwargs": {"loops": 120},
                      "label": "api:over-quota"}})
        assert status == 429
        assert set(doc) == QUOTA_REJECTION_KEYS
        assert set(doc["job"]) == JOB_KEYS - {"invoice"}
        assert doc["job"]["state"] == "rejected"
        jpost(base, f"/v1/tenants/{tid}/quota", {"quota_ns": 10 ** 9})


class TestKeepAlive:
    def test_sequential_replies_on_one_connection_do_not_stall(self, served):
        # Each reply is two sends (headers, then body).  With Nagle's
        # algorithm on, the body waits for the client's delayed ACK, about
        # 40 ms per reply; 20 replies would take the best part of a second.
        url = urllib.parse.urlsplit(served["base"])
        conn = HTTPConnection(url.hostname, url.port, timeout=30)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read())["ok"] is True
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f}s"


class TestPaperScenario:
    """Acceptance criterion: the §IV-B1 tick-dodger's invoice is flagged
    by the live audit, the honest tenant's is not."""

    def test_honest_tenant_audit_consistent(self, served):
        _, audit = jget(
            served["base"], f"/v1/jobs/{served['hjob']['job_id']}/audit")
        assert audit["verdict"] == "consistent"
        assert audit["flagged"] is False

    def test_scheduling_attacker_flagged(self, served):
        _, audit = jget(
            served["base"], f"/v1/jobs/{served['ajob']['job_id']}/audit")
        assert audit["verdict"] in ("overbilled", "misreported")
        assert audit["flagged"] is True
        assert audit["overbilling_ns"] > 0

    def test_attack_inflates_bill(self, served):
        assert served["ajob"]["invoice"]["billed_ns"] > \
            served["hjob"]["invoice"]["billed_ns"]


class TestMetricsExposition:
    def test_content_type_and_format(self, served):
        status, text, headers = http("GET", served["base"] + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        lines = text.rstrip("\n").split("\n")
        families = []
        for line in lines:
            if line.startswith("# HELP "):
                families.append(line.split()[2])
            elif line.startswith("# TYPE "):
                assert line.split()[2] == families[-1]
                assert line.split()[3] in ("counter", "gauge")
            else:
                assert METRIC_LINE.match(line), f"malformed line: {line!r}"
                assert line.split("{")[0].split(" ")[0] == families[-1]
        assert families == [
            "repro_serve_jobs_total",
            "repro_serve_jobs_inflight",
            "repro_serve_jobs_failed_total",
            "repro_serve_jobs_served_from_ledger_total",
            "repro_serve_billed_ns_total",
            "repro_serve_ledger_entries_total",
            "repro_serve_quota_rejections_total",
            "repro_serve_store_fsyncs_total",
            "repro_serve_deadline_exceeded_total",
            "repro_serve_store_retries_total",
            "repro_serve_breaker_open",
            "repro_serve_http_requests_total",
        ]

    def test_billed_series_carry_tenant_and_trust_labels(self, served):
        _, text, _ = http("GET", served["base"] + "/metrics")
        assert re.search(
            r'repro_serve_billed_ns_total\{tenant="attacker",'
            r'trust="trusted"\} \d+', text)
        assert "repro_serve_store_fsyncs_total" in text

    def test_metrics_survive_scrape_idempotently(self, served):
        _, first, _ = http("GET", served["base"] + "/metrics")
        _, second, _ = http("GET", served["base"] + "/metrics")

        def stable(text):
            return [line for line in text.splitlines()
                    if not line.startswith(
                        "repro_serve_http_requests_total")]
        assert stable(first) == stable(second)
