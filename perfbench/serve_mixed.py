"""The ``serve-mixed`` workload: tenants billing through ``repro serve``.

A closed loop: each of :data:`CLIENTS` threads is one tenant that sends
its next request only after the previous reply arrived (submissions use
``wait=True``, so a submit returns with the bill).  Requests are stdlib
HTTP over loopback, one connection per request as ``urllib`` clients
make them, to a server in its own process on a fresh SQLite store with two
worker threads.  (On a kept-alive connection every reply stalls about
40 ms: the server sends headers and body in two writes, and Nagle's
algorithm holds the second until the client's delayed ACK.)

Every round sends exactly :data:`MIX` requests per tenant, so the ledger
grows identically from run to run.  The seed shuffles them in blocks that
each carry the same mix (:func:`deck`), so reads meet the same history
size and the same neighbouring load whatever the seed:

* ``repeat`` -- a submit drawn from a small spec pool that set-up already
  ran, so the service answers from the ledger;
* ``fresh`` -- a submit with kwargs no earlier request used, so the
  engine runs in a worker thread;
* ``invoice`` -- ``GET /v1/jobs/{id}/invoice`` of one of the tenant's jobs;
* ``usage`` -- ``GET /v1/tenants/{id}/usage``, whose cost grows with the
  tenant's history.

The round's times are reported at the reference host speed (see
``batch.py``).  The round runs in :data:`SEGMENTS` parts.  Before the
first and after each part, both tenants wait while the server is idle,
and the main thread takes calibration samples; each part's times are scaled
by the speed read on its two sides.  Samples taken while requests run
would share the processors with the server and read its load as a slow
host.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent

CLIENTS = 2
#: Requests per tenant per round, by class (55/10/22/13 %).  Both request
#: classes get over 1,000 samples per round across the two tenants, so
#: their p99 has at least ten samples beyond it.  Invoice reads are 63% of
#: reads, so the read median lies inside their distribution: at 20/15 it
#: sat on the seam between the fast invoice and the slow usage reads,
#: where a shift of 2% in rank moved it by 20%.
MIX = {"repeat": 825, "fresh": 150, "invoice": 330, "usage": 195}
SUBMIT_KINDS = ("repeat", "fresh")
READ_KINDS = ("invoice", "usage")

#: Whetstone loops of the smallest fresh submission; fresh submission k
#: of tenant c runs ``FRESH_BASE_LOOPS + c * MIX["fresh"] + k`` loops.
FRESH_BASE_LOOPS = 40

#: Set-ups per run; the reported set-up time is their median.
SETUPS = 5

#: Parts of a round, with calibration between them (about 6 s each).
SEGMENTS = 5
#: Calibration samples taken at each pause (about 0.1 s).
CALIBRATION_SAMPLES = 2000

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 90.0


def pool_docs() -> List[Dict[str, Any]]:
    """The spec pool repeat submissions draw from."""
    from repro.analysis.figures import paper_workload_params

    params = paper_workload_params(0.02)
    docs: List[Dict[str, Any]] = [
        {"program": name, "program_kwargs": params[name]}
        for name in ("O", "P", "W", "B")]
    docs.append({"program": "W", "program_kwargs": params["W"],
                 "attack": "shell",
                 "attack_kwargs": {"payload_cycles": 50_000_000}})
    docs.append({"program": "O", "program_kwargs": params["O"],
                 "attack": "irq-flood", "attack_kwargs": {"rate_pps": 5000.0}})
    return docs


def deck(mix: Dict[str, int], rng: random.Random) -> List[str]:
    """One tenant's requests in order: the mix split into as many equal
    blocks as its counts' common divisor allows, each block shuffled."""
    blocks = math.gcd(*mix.values())
    order: List[str] = []
    for _ in range(blocks):
        block = [kind for kind, n in mix.items()
                 for _ in range(n // blocks)]
        rng.shuffle(block)
        order.extend(block)
    return order


def fresh_doc(client: int, k: int) -> Dict[str, Any]:
    return {"program": "W", "program_kwargs": {
        "loops": FRESH_BASE_LOOPS + client * MIX["fresh"] + k}}


class ServeError(RuntimeError):
    """The server process misbehaved (did not start or stop cleanly)."""


def _request(port: int, method: str, path: str,
             body: Optional[Dict[str, Any]], request_id: str
             ) -> Tuple[int, bytes]:
    """One request on its own connection; returns (status, body)."""
    headers = {"X-Request-Id": request_id, "Connection": "close"}
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@dataclass
class Submitted:
    """One completed submission's bill, as the service returned it."""

    tenant: str
    job_id: str
    spec_key: str
    spec: Dict[str, Any]
    billed_ns: int
    cached: bool
    sim_ns: int


class Server:
    """One ``serve_server.py`` process on a fresh store."""

    def __init__(self, db: Path, trace_out: Optional[Path] = None,
                 log: Optional[Path] = None) -> None:
        self.db = db
        self.log = log
        cmd = [sys.executable, str(HERE / "serve_server.py"),
               "--db", str(db)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self._log = open(log or os.devnull, "w")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True)
        try:
            line = self._readline(START_TIMEOUT_S)
            if not line.startswith("READY "):
                raise ServeError(f"server did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.kill()
            raise

    def _readline(self, timeout_s: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        if not ready:
            raise ServeError(f"no output from the server in {timeout_s}s")
        return self.proc.stdout.readline().strip()

    def stop(self) -> Dict[str, Any]:
        """Drain and stop the server; returns its final report."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            line = self._readline(STOP_TIMEOUT_S)
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self.kill()
        return json.loads(line)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()
        for suffix in ("", "-wal", "-shm"):
            path = Path(str(self.db) + suffix)
            if path.exists():
                path.unlink()
        # Keep the server's stderr only when it has something to say.
        if self.log is not None and self.log.exists() \
                and not self.log.stat().st_size:
            self.log.unlink()


def setup(db: Path, trace_out: Optional[Path] = None
          ) -> Tuple[Server, List[str], List[Submitted], float]:
    """Start a server, register the tenants and warm the spec pool.
    Returns (server, tenant ids, warm-up bills, seconds taken)."""
    start = time.perf_counter()
    server = Server(db, trace_out=trace_out,
                    log=db.with_suffix(".log"))
    try:
        tenants: List[str] = []
        for c in range(CLIENTS):
            status, body = _request(server.port, "POST", "/v1/tenants",
                                    {"name": f"tenant-{c}"}, f"setup-t{c}")
            if status != 201:
                raise ServeError(f"tenant registration failed: {status}")
            tenants.append(json.loads(body)["tenant_id"])
        warm: List[Submitted] = []
        for c, tenant in enumerate(tenants):
            for i, doc in enumerate(pool_docs()):
                status, body = _request(
                    server.port, "POST", f"/v1/tenants/{tenant}/jobs",
                    {"spec": doc, "wait": True}, f"setup-w{c}-{i}")
                if status != 200:
                    raise ServeError(f"pool warm-up failed: {status}")
                warm.append(_submitted(tenant, doc, json.loads(body)))
    except BaseException:
        server.kill()
        raise
    return server, tenants, warm, time.perf_counter() - start


def _submitted(tenant: str, doc: Dict[str, Any],
               job: Dict[str, Any]) -> Submitted:
    result = job.get("result") or {}
    return Submitted(tenant=tenant, job_id=job["job_id"],
                     spec_key=job["spec_key"], spec=doc,
                     billed_ns=int(job["invoice"]["billed_ns"]),
                     cached=bool(job["cached"]),
                     sim_ns=int(result.get("wall_ns", 0)))


@dataclass
class ClientLog:
    """Everything one tenant's loop observed."""

    #: (kind, request id, latency s, HTTP status, segment)
    samples: List[Tuple[str, str, float, int, int]] = field(
        default_factory=list)
    submitted: List[Submitted] = field(default_factory=list)
    #: (job id, billed ns) of every invoice read
    invoices: List[Tuple[str, int]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def _client_loop(server: Server, client: int, tenant: str, seed: int,
                 mix: Dict[str, int], known_jobs: List[str],
                 barrier: threading.Barrier, log: ClientLog,
                 force_fail: int) -> None:
    rng = random.Random(f"serve-mixed:{seed}:client:{client}")
    requests = deck(mix, rng)
    pool = pool_docs()
    jobs = list(known_jobs)
    fresh = 0
    perf = time.perf_counter

    def send(i: int, segment: int) -> None:
        nonlocal fresh
        kind = "invoice" if i < force_fail else requests[i]
        request_id = f"c{client}-{i}"
        doc = None
        if kind in SUBMIT_KINDS:
            if kind == "repeat":
                doc = rng.choice(pool)
            else:
                doc = fresh_doc(client, fresh)
                fresh += 1
            method, path = "POST", f"/v1/tenants/{tenant}/jobs"
            body: Optional[Dict[str, Any]] = {"spec": doc, "wait": True}
        elif kind == "invoice":
            job_id = "j-missing" if i < force_fail else rng.choice(jobs)
            method, path, body = "GET", f"/v1/jobs/{job_id}/invoice", None
        else:
            method, path, body = "GET", f"/v1/tenants/{tenant}/usage", None
        start = perf()
        try:
            status, payload = _request(server.port, method, path,
                                       body, request_id)
        except (OSError, http.client.HTTPException) as exc:
            log.samples.append((kind, request_id, perf() - start, 0,
                                segment))
            log.errors.append(f"{request_id}: {type(exc).__name__}: "
                              f"{exc}")
            return
        log.samples.append((kind, request_id, perf() - start, status,
                            segment))
        if not 200 <= status < 300:
            log.errors.append(f"{request_id}: HTTP {status}")
        elif doc is not None:
            done = _submitted(tenant, doc, json.loads(payload))
            log.submitted.append(done)
            jobs.append(done.job_id)
        elif kind == "invoice":
            log.invoices.append(
                (job_id, int(json.loads(payload)["billed_ns"])))

    n = len(requests)
    try:
        for segment in range(SEGMENTS):
            barrier.wait()              # the part starts
            for i in range(n * segment // SEGMENTS,
                           n * (segment + 1) // SEGMENTS):
                send(i, segment)
            barrier.wait()              # the part is done
    except BaseException:
        barrier.abort()
        raise


@dataclass
class Round:
    """What one round of the serve-mixed loop measured; times are at the
    reference host speed, except the raw ``latency_by_id``."""

    setup_s: List[float]
    wall_s: float
    submit_s: List[float]
    read_s: List[float]
    #: request id -> client latency (s), for the traced overhead split
    latency_by_id: Dict[str, float]
    hosts: int
    sim_ns: int
    ledger_hits: int
    attempted: int
    failed: int
    checks: List[Tuple[str, bool, str]]
    peak_rss_kb: int
    fresh_runs: int
    #: the host's speed during the round (``batch.host_speed``)
    speed: float


def _reference_billed(docs: Dict[str, Dict[str, Any]],
                      cache: Dict[str, int]) -> Dict[str, int]:
    """Billed ns of a serial in-process ``run_spec`` of every spec."""
    from repro.runner.specs import run_spec, spec_from_dict

    for key, doc in docs.items():
        if key not in cache:
            cache[key] = run_spec(spec_from_dict(doc)).usage.total_ns
    return cache


def run_round(seed: int, workdir: Path, setups: int = SETUPS,
              mix: Optional[Dict[str, int]] = None,
              trace_out: Optional[Path] = None, force_fail: int = 0,
              reference_cache: Optional[Dict[str, int]] = None) -> Round:
    """Set up ``setups`` times (keeping the last server), run one round
    of ``mix`` (default :data:`MIX`) requests per tenant, then check every
    answer.  ``force_fail`` aims that many of tenant 0's first requests
    at a job that does not exist."""
    from batch import calibration_unit, host_speed

    mix = dict(MIX if mix is None else mix)
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s: List[float] = []
    for k in range(setups):
        if k:
            server.stop()
        speed = host_speed([calibration_unit() for _ in range(25)])
        server, tenants, warm, took = setup(
            workdir / f"serve-{os.getpid()}-{k}.db",
            trace_out=trace_out if k == setups - 1 else None)
        setup_s.append(took * speed)
    def calibrate() -> List[float]:
        return [calibration_unit() for _ in range(CALIBRATION_SAMPLES)]

    try:
        calibration = [calibrate()]
        part_s: List[float] = []
        barrier = threading.Barrier(CLIENTS + 1, timeout=STOP_TIMEOUT_S)
        logs = [ClientLog() for _ in range(CLIENTS)]
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(server, c, tenants[c], seed, mix,
                      [w.job_id for w in warm if w.tenant == tenants[c]],
                      barrier, logs[c], force_fail if c == 0 else 0),
                name=f"serve-mixed-client-{c}")
            for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for _ in range(SEGMENTS):
            barrier.wait()
            start = time.perf_counter()
            barrier.wait()
            part_s.append(time.perf_counter() - start)
            calibration.append(calibrate())
        for thread in threads:
            thread.join()

        # Untimed: each tenant's final ledger, then stop the server.
        totals: Dict[str, int] = {}
        for tenant in tenants:
            status, body = _request(server.port, "GET",
                                    f"/v1/tenants/{tenant}/usage", None,
                                    f"final-{tenant}")
            totals[tenant] = (json.loads(body)["total_billed_ns"]
                              if status == 200 else -1)
    finally:
        final = server.stop()

    samples = [s for log in logs for s in log.samples]
    submitted = [s for log in logs for s in log.submitted]
    errors = [e for log in logs for e in log.errors]
    everything = warm + submitted
    docs = {s.spec_key: s.spec for s in everything}
    reference = _reference_billed(docs, reference_cache
                                  if reference_cache is not None else {})
    key_of_job = {s.job_id: s.spec_key for s in everything}
    wrong = [s.job_id for s in everything
             if s.billed_ns != reference[s.spec_key]]
    wrong += [job_id for log in logs for job_id, billed in log.invoices
              if billed != reference[key_of_job[job_id]]]
    ledger_ok = all(
        totals[tenant] == sum(s.billed_ns for s in everything
                              if s.tenant == tenant)
        for tenant in tenants)
    integrity = final["integrity"]
    checks = [
        ("every request of the mix was sent",
         len(samples) == CLIENTS * sum(mix.values()),
         f"{len(samples)} of {CLIENTS * sum(mix.values())}"),
        ("every response is 2xx", not errors,
         f"{len(errors)} failed: {errors[:3]}"),
        ("every invoice equals a serial run_spec of its spec",
         not wrong, f"{len(wrong)} wrong: {wrong[:3]}"),
        ("store integrity check is clean", bool(integrity["ok"]),
         "; ".join(integrity["problems"][:3])),
        ("each tenant's ledger total equals the sum of its invoices",
         ledger_ok, f"ledger totals {totals}"),
        ("the server drained every job", bool(final["drained"]), ""),
    ]
    fresh = [s for s in submitted if not s.cached]
    speeds = [host_speed(calibration[k] + calibration[k + 1])
              for k in range(SEGMENTS)]
    wall = sum(t * v for t, v in zip(part_s, speeds))
    return Round(
        setup_s=setup_s,
        wall_s=wall,
        submit_s=[lat * speeds[seg] for kind, _id, lat, _st, seg in samples
                  if kind in SUBMIT_KINDS],
        read_s=[lat * speeds[seg] for kind, _id, lat, _st, seg in samples
                if kind in READ_KINDS],
        latency_by_id={rid: lat for _kind, rid, lat, _st, _seg in samples},
        hosts=len(submitted),
        sim_ns=sum(s.sim_ns for s in fresh),
        ledger_hits=len(submitted) - len(fresh),
        attempted=len(samples),
        failed=len(errors),
        checks=checks,
        peak_rss_kb=int(final["peak_rss_kb"]),
        fresh_runs=len(fresh),
        speed=wall / sum(part_s))
