"""Byte-level goldens for the serve daemon's read documents.

One fixed two-tenant scenario runs against a real server (ephemeral
port, real HTTP): fresh runs, ledger hits within and across tenants, an
idempotent resubmission, a quota rejection and a queued job.  The suite
pins the sha256 of the canonical JSON (sorted keys, compact separators)
of every document a tenant can read back: tenant, tenant listing, job,
submit reply, quota rejection, invoice, trust, audit, the jobs list and
the usage document.

A change to the store or the service that moves one of these digests
changed what a tenant sees.  If that is intended (a new schema version,
say), regenerate the digest deliberately with :func:`scenario_digests`
and say so in the changelog.
"""

import hashlib
import json
import urllib.error
import urllib.request

import pytest

from repro.analysis.figures import paper_workload_params
from repro.serve import MeteringService, ReproServer, UsageStore

# Large enough that the scheduling attack clears the audit's 5 ms floor.
SCALE = 0.05


def _sha(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _call(base, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _specs():
    params = paper_workload_params(SCALE)
    honest = {"program": "W", "program_kwargs": params["W"],
              "label": "golden:w"}
    attacked = {"program": "W", "program_kwargs": params["W"],
                "attack": "scheduling",
                "attack_kwargs": {"nice": -20,
                                  "forks": max(1, int(8_000 * SCALE))},
                "label": "golden:w-attacked"}
    other = {"program": "O", "program_kwargs": params["O"],
             "label": "golden:o"}
    return honest, attacked, other


def run_scenario(base):
    """Drive the scenario; returns ``{name: document}`` of every read."""
    honest, attacked, other = _specs()
    docs = {}
    _, alpha = _call(base, "POST", "/v1/tenants", {"name": "alpha"})
    _, beta = _call(base, "POST", "/v1/tenants",
                    {"name": "beta", "quota_ns": 1})
    a, b = alpha["tenant_id"], beta["tenant_id"]

    submits = [
        (a, {"spec": honest}),                                # fresh run
        (a, {"spec": attacked}),                              # fresh run
        (a, {"spec": honest, "idempotency_key": "again"}),    # ledger hit
        (a, {"spec": honest, "idempotency_key": "again"}),    # dedup
        (b, {"spec": honest}),                # cross-tenant ledger hit
    ]
    for i, (tid, body) in enumerate(submits):
        status, doc = _call(base, "POST", f"/v1/tenants/{tid}/jobs", body)
        assert status == 200, doc
        docs[f"submit:{i}"] = doc
    status, doc = _call(base, "POST", f"/v1/tenants/{b}/jobs",
                        {"spec": other})
    assert status == 429, doc
    docs["rejection"] = doc
    status, doc = _call(base, "POST", f"/v1/tenants/{b}/jobs",
                        {"spec": other, "over_quota": "queue",
                         "wait": False})
    assert status == 200 and doc["state"] == "queued", doc
    docs["submit:queued"] = doc

    docs["tenants"] = _call(base, "GET", "/v1/tenants")[1]
    for name, tid in (("alpha", a), ("beta", b)):
        docs[f"tenant:{name}"] = _call(base, "GET", f"/v1/tenants/{tid}")[1]
        docs[f"jobs:{name}"] = _call(base, "GET",
                                     f"/v1/tenants/{tid}/jobs")[1]
        docs[f"usage:{name}"] = _call(base, "GET",
                                      f"/v1/tenants/{tid}/usage")[1]
    job_ids = sorted({job["job_id"]
                      for name in ("alpha", "beta")
                      for job in docs[f"jobs:{name}"]["jobs"]})
    for job_id in job_ids:
        status, job = _call(base, "GET", f"/v1/jobs/{job_id}")
        docs[f"job:{job_id}"] = job
        if job["state"] != "completed":
            continue
        for kind in ("invoice", "trust", "audit"):
            docs[f"{kind}:{job_id}"] = _call(
                base, "GET", f"/v1/jobs/{job_id}/{kind}")[1]
    return docs


def scenario_digests(docs):
    return {name: _sha(doc) for name, doc in sorted(docs.items())}


GOLDEN = {
    "audit:j-000001":
        "d4b88c53f368d63fa4d5997914aeba3b37752c41f1834538c6e6e613a7827b58",
    "audit:j-000002":
        "00ab7bbf2569dd46641134206e4c492bff1d2d340c24bf2381b42bc044bcb769",
    "audit:j-000003":
        "ef263a10b32d12b321cf59853b52e8a03ba3e283ec8019446197974a66880a00",
    "audit:j-000004":
        "1132609c0e82f2e275b9decece3485b8cb1914a5037c20da0b86e43896ee0260",
    "invoice:j-000001":
        "3377501faaad57fa7ae49803ce8581e85fafc42489b36aa52ba400a74830b9d9",
    "invoice:j-000002":
        "7459fc924900529729f4eb404020093d8fd3fdfd06cea2ba9ce9dd3f9d7f6a05",
    "invoice:j-000003":
        "3377501faaad57fa7ae49803ce8581e85fafc42489b36aa52ba400a74830b9d9",
    "invoice:j-000004":
        "3377501faaad57fa7ae49803ce8581e85fafc42489b36aa52ba400a74830b9d9",
    "job:j-000001":
        "22e35adf1b5dc124c1348e0c1f2d6bf03ba10c0667c120f0c028fd1260b43eea",
    "job:j-000002":
        "62148b0bf8f27379a36d25ab8193ffd264815d12ba7c591b329f7e3b5569b56d",
    "job:j-000003":
        "e1ebf6385c8bf98f3c4cf544fd07f34fbae7bf34ffff04113d5ed4b524d72cf5",
    "job:j-000004":
        "987bb90c59f0a4eddd7ccb99e06a98322bf29a776bd0615ac2c6de1e5aef7a9c",
    "job:j-000005":
        "933cf94282b90580116b18676924619e386b363a676d3231f2a90a906c67c58f",
    "job:j-000006":
        "1b2bc68ac77383e99d4b90fa773e9c44b28d4cc1e377db8d7cdd5c8f0c8e0669",
    "jobs:alpha":
        "f3e1c17692d4558a2537fb6a5f8c6bb23569d67e2baeacd40475c22f6b54d4f4",
    "jobs:beta":
        "63ff5911c873c0fbbc67b2275e448d7b4f0256fd4d64981c599769789fde95d0",
    "rejection":
        "84e702ca3ae9e1009f6f4874031d96b0337ceb0e4e6bc5056f5d7d013a04c261",
    "submit:0":
        "22e35adf1b5dc124c1348e0c1f2d6bf03ba10c0667c120f0c028fd1260b43eea",
    "submit:1":
        "62148b0bf8f27379a36d25ab8193ffd264815d12ba7c591b329f7e3b5569b56d",
    "submit:2":
        "e1ebf6385c8bf98f3c4cf544fd07f34fbae7bf34ffff04113d5ed4b524d72cf5",
    "submit:3":
        "e1ebf6385c8bf98f3c4cf544fd07f34fbae7bf34ffff04113d5ed4b524d72cf5",
    "submit:4":
        "987bb90c59f0a4eddd7ccb99e06a98322bf29a776bd0615ac2c6de1e5aef7a9c",
    "submit:queued":
        "1b2bc68ac77383e99d4b90fa773e9c44b28d4cc1e377db8d7cdd5c8f0c8e0669",
    "tenant:alpha":
        "22c11da323d4820805b43d39e4cd05c5388f8b2df40715f7619cb3928f71361d",
    "tenant:beta":
        "344b61606bca63a36a1e58d7f03bc3183f9221c6fdae941e0e3524e250e75b72",
    "tenants":
        "45c022fbbbf4f83010336db760dced415166f9912433602a47a2ebaba55d7d9c",
    "trust:j-000001":
        "9b6c587a2aae9a871c133cbdeb0afc93f6d3cb3501ff18dcca89527a208297e3",
    "trust:j-000002":
        "2e035d4a6456af75efd649e4b11d63e7413b0a4b640ade2ecadcca80fa3adb51",
    "trust:j-000003":
        "871b34f6a8b9510f4ffd0bd2653d5d028ef2b9625f0c5cc47a63d5b136b277a2",
    "trust:j-000004":
        "588f1bd169e3d03760796bb7d6f7a06e974c5f5c1312e89a87aac0844a3e0ec8",
    "usage:alpha":
        "7eac4cebce73d1348b717db74a31ec248c162d63d677cb11f769f21a19654c13",
    "usage:beta":
        "a6d8c59363211d2a6da99bdc0b30f8e282404ce5c46631027bc27970a02dea7d",
}


#: The whole-ledger ``repro-serve-usage-v1`` documents the scenario read
#: before the usage ledger was paged; the v2 pages, joined, must rebuild
#: them exactly.
USAGE_V1 = {
    "alpha":
        "6bc6ad8b1259704ca31026184be55ca47dfe34bde5c03491013a6b9b0f04c91a",
    "beta":
        "fed12720da9e2d8bc96579817f3cfeec8a1b7d909e122d2c2160705fdef4facd",
}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    store = UsageStore(str(tmp_path_factory.mktemp("golden") / "usage.db"))
    server = ReproServer(MeteringService(store, jobs=2))
    server.start_background()
    try:
        yield {"base": server.address, "docs": run_scenario(server.address)}
    finally:
        server.close()


def test_scenario_reads_every_pinned_document(served):
    assert sorted(served["docs"]) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_document_digest(served, name):
    assert _sha(served["docs"][name]) == GOLDEN[name]


def _pages(base, path, limit):
    """Every page of a keyset-paged listing, following ``next_after``."""
    pages, after = [], None
    while True:
        query = f"?limit={limit}" + (f"&after={after}" if after else "")
        status, doc = _call(base, "GET", path + query)
        assert status == 200, doc
        pages.append(doc)
        after = doc["next_after"]
        if after is None:
            return pages


@pytest.mark.parametrize("name", sorted(USAGE_V1))
def test_usage_pages_join_to_the_v1_ledger(served, name):
    tid = served["docs"][f"tenant:{name}"]["tenant_id"]
    pages = _pages(served["base"], f"/v1/tenants/{tid}/usage", limit=1)
    ledger = [entry for page in pages for entry in page["ledger"]]
    last = pages[-1]
    assert len(pages) == len(ledger) == last["total_entries"]
    assert sum(e["billed_ns"] for e in ledger) == last["total_billed_ns"]
    v1 = {"schema": "repro-serve-usage-v1", "tenant": last["tenant"],
          "ledger": ledger, "total_billed_ns": last["total_billed_ns"],
          "total_amount_microdollars": last["total_amount_microdollars"]}
    assert _sha(v1) == USAGE_V1[name]


@pytest.mark.parametrize("name", sorted(USAGE_V1))
def test_job_pages_join_to_the_whole_listing(served, name):
    tid = served["docs"][f"tenant:{name}"]["tenant_id"]
    pages = _pages(served["base"], f"/v1/tenants/{tid}/jobs", limit=2)
    jobs = [job for page in pages for job in page["jobs"]]
    assert jobs == served["docs"][f"jobs:{name}"]["jobs"]
    assert len(pages) == max(1, -(-len(jobs) // 2))
