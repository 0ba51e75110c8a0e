"""Read cost and write-path contracts of the serve store.

A usage or tenant read must cost the same number of SQL statements
whatever the tenant's history: counts come from one GROUP BY, the ledger
from one keyset page and totals from one aggregate.  A ledger-served
submit is held to its statement budget, and the write path's existence
checks (folded into the writes themselves) must still refuse unknown
tenants and jobs without writing anything.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import MeteringService, ReproServer, UsageStore
from repro.serve.service import MAX_PAGE_LIMIT, ServiceError

#: Statements a ledger-served submit issues: 4 to create the job, 2 to
#: admit and find the stored result, 5 to bill, 4 reads for the reply.
SUBMIT_STATEMENTS = 15

#: Statements a usage read issues: the ledger totals (the tenant's
#: ``billed_ns`` included), the tenant row, its job counts, one page.
USAGE_STATEMENTS = 4

TINY_SPEC = {"program": "W", "program_kwargs": {"loops": 40},
             "label": "reads:tiny"}


def _result(billed_ns):
    return {"usage": {"utime_ns": billed_ns, "stime_ns": 0},
            "stats": {}, "oracle_seconds": {}}


def _complete_jobs(store, tenant_id, n):
    for i in range(n):
        job, _ = store.create_job(tenant_id, f"spec-{tenant_id}-{i}",
                                  {"program": "W", "i": i})
        store.bill_job(job["job_id"], _result(1_000 + i),
                       billed_ns=1_000 + i, utime_ns=1_000 + i, stime_ns=0,
                       trust_level="trusted", uncertainty_ns=0,
                       amount_microdollars=1)


def _statements(store, fn):
    """The SQL statements ``fn`` issues on the store's connection."""
    issued = []
    store._conn.set_trace_callback(issued.append)
    try:
        fn()
    finally:
        store._conn.set_trace_callback(None)
    return issued


@pytest.fixture
def service(tmp_path):
    svc = MeteringService(UsageStore(str(tmp_path / "usage.db")), jobs=1)
    yield svc
    svc.close()


class TestStatementCounts:
    def test_reads_cost_the_same_at_10_and_300_jobs(self, service):
        store = service.store
        costs = {}
        for n in (10, 300):
            tid = service.register_tenant(f"tenant-{n}")["tenant_id"]
            _complete_jobs(store, tid, n)
            costs[n] = {
                "usage": len(_statements(
                    store, lambda: service.usage_doc(tid))),
                "tenant": len(_statements(
                    store, lambda: service.tenant_doc(tid))),
                "jobs": len(_statements(
                    store, lambda: service.jobs_doc(tid))),
            }
            assert service.tenant_doc(tid)["jobs"]["completed"] == n
        assert costs[10] == costs[300]

    def test_usage_read_sums_the_ledger_once(self, service):
        store = service.store
        tid = service.register_tenant("alpha")["tenant_id"]
        _complete_jobs(store, tid, 3)
        docs = []
        issued = _statements(store, lambda: docs.append(
            service.usage_doc(tid)))
        assert len(issued) == USAGE_STATEMENTS, issued
        assert sum("SUM(billed_ns)" in sql for sql in issued) == 1, issued
        doc = docs[0]
        assert doc["tenant"]["billed_ns"] == doc["total_billed_ns"] == 3_003

    def test_ledger_served_submit_statement_budget(self, service):
        tid = service.register_tenant("alpha")["tenant_id"]
        first = service.submit(tid, TINY_SPEC)
        assert first["cached"] is False
        replies = []
        issued = _statements(service.store, lambda: replies.append(
            service.submit(tid, TINY_SPEC)))
        again = replies[0]
        assert again["cached"] is True
        assert again["invoice"] == first["invoice"]
        assert len(issued) <= SUBMIT_STATEMENTS, issued


class TestWritePathRefusals:
    def _snapshot(self, store):
        conn = store._conn
        return {table: conn.execute(
                    f"SELECT * FROM {table} ORDER BY rowid").fetchall()
                for table in ("tenants", "jobs", "ledger")}

    def test_create_job_for_unknown_tenant(self, service):
        store = service.store
        service.register_tenant("alpha")
        before = self._snapshot(store)
        fsyncs = store.fsyncs
        with pytest.raises(KeyError):
            store.create_job("t-9999", "spec", {"program": "W"})
        with pytest.raises(KeyError):
            store.create_job("t-9999", "spec", {"program": "W"},
                             idempotency_key="k")
        assert self._snapshot(store) == before
        assert store.fsyncs == fsyncs

    def test_bill_job_for_unknown_job(self, service):
        store = service.store
        tid = service.register_tenant("alpha")["tenant_id"]
        _complete_jobs(store, tid, 1)
        before = self._snapshot(store)
        fsyncs = store.fsyncs
        with pytest.raises(KeyError):
            store.bill_job("j-999999", _result(5), billed_ns=5, utime_ns=5,
                           stime_ns=0, trust_level="trusted",
                           uncertainty_ns=0, amount_microdollars=1)
        assert self._snapshot(store) == before
        assert store.fsyncs == fsyncs
        assert store.integrity_check()["ok"]

    def test_state_updates_for_unknown_job(self, service):
        store = service.store
        before = self._snapshot(store)
        with pytest.raises(KeyError):
            store.set_job_state("j-999999", "failed", error="x")
        with pytest.raises(KeyError):
            store.mark_deadline_exceeded("j-999999")
        assert self._snapshot(store) == before

    def test_create_job_returns_the_row_it_wrote(self, service):
        store = service.store
        tid = service.register_tenant("alpha")["tenant_id"]
        job, created = store.create_job(tid, "spec", {"b": [1, 2], "a": 1},
                                        idempotency_key="k")
        assert created is True
        assert job == store.job(job["job_id"])
        again, created = store.create_job(tid, "spec", {"a": 2},
                                          idempotency_key="k")
        assert created is False
        assert again == job


class TestPaging:
    def test_usage_pages_cover_the_ledger_once(self, service):
        tid = service.register_tenant("alpha")["tenant_id"]
        _complete_jobs(service.store, tid, 7)
        seen, after, pages = [], 0, 0
        while after is not None:
            doc = service.usage_doc(tid, after=after, limit=3)
            seen += [entry["entry_id"] for entry in doc["ledger"]]
            after = doc["next_after"]
            pages += 1
        assert pages == 3
        assert seen == sorted(set(seen)) and len(seen) == 7
        assert doc["total_entries"] == 7
        assert doc["total_billed_ns"] == sum(1_000 + i for i in range(7))
        assert doc["total_amount_microdollars"] == 7

    def test_page_past_the_end_is_empty(self, service):
        tid = service.register_tenant("alpha")["tenant_id"]
        _complete_jobs(service.store, tid, 2)
        doc = service.usage_doc(tid, after=10 ** 9)
        assert doc["ledger"] == [] and doc["next_after"] is None
        assert doc["total_entries"] == 2
        jobs = service.jobs_doc(tid, after="j-nonexistent")
        assert jobs == {"jobs": [], "next_after": None}

    def test_limit_is_validated_and_capped(self, service):
        tid = service.register_tenant("alpha")["tenant_id"]
        _complete_jobs(service.store, tid, 2)
        for bad in (0, -1):
            with pytest.raises(ServiceError):
                service.usage_doc(tid, limit=bad)
            with pytest.raises(ServiceError):
                service.jobs_doc(tid, limit=bad)
        with pytest.raises(ServiceError):
            service.usage_doc(tid, after=-1)
        issued = _statements(service.store, lambda: service.usage_doc(
            tid, limit=MAX_PAGE_LIMIT * 10))
        assert any(f"LIMIT {MAX_PAGE_LIMIT + 1}" in sql for sql in issued)


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestQueryParameters:
    @pytest.fixture
    def served(self, service):
        tid = service.register_tenant("alpha")["tenant_id"]
        _complete_jobs(service.store, tid, 3)
        server = ReproServer(service)
        server.start_background()
        yield server.address, tid
        server.shutdown()
        server.server_close()

    def test_usage_query_pages(self, served):
        base, tid = served
        status, doc = _get(base, f"/v1/tenants/{tid}/usage?limit=2")
        assert status == 200
        assert [e["entry_id"] for e in doc["ledger"]] == [1, 2]
        assert doc["next_after"] == 2
        status, doc = _get(base, f"/v1/tenants/{tid}/usage?after=2&limit=2")
        assert [e["entry_id"] for e in doc["ledger"]] == [3]
        assert doc["next_after"] is None

    def test_jobs_query_pages(self, served):
        base, tid = served
        status, doc = _get(base, f"/v1/tenants/{tid}/jobs?limit=2")
        assert status == 200
        assert [j["job_id"] for j in doc["jobs"]] == ["j-000001",
                                                     "j-000002"]
        status, doc = _get(
            base, f"/v1/tenants/{tid}/jobs?after={doc['next_after']}")
        assert [j["job_id"] for j in doc["jobs"]] == ["j-000003"]
        assert doc["next_after"] is None

    @pytest.mark.parametrize("query", ["limit=x", "limit=0", "after=-1",
                                       "after=1.5", f"after={1 << 63}"])
    def test_bad_usage_parameters_are_400(self, served, query):
        base, tid = served
        status, doc = _get(base, f"/v1/tenants/{tid}/usage?{query}")
        assert status == 400
        assert set(doc) == {"error"}

    def test_unknown_tenant_is_404(self, served):
        base, _ = served
        assert _get(base, "/v1/tenants/t-9999/usage")[0] == 404
        assert _get(base, "/v1/tenants/t-9999/jobs")[0] == 404
