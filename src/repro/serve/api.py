"""HTTP surface of ``repro serve`` — stdlib only, JSON in and out.

A :class:`ReproServer` is a ``ThreadingHTTPServer`` wrapping one
:class:`~repro.serve.service.MeteringService`; every request thread calls
into the service, which serialises on the store's lock — the HTTP layer
adds no state of its own beyond the request counters on ``/metrics``.

Routes (all responses JSON unless noted):

========  ==================================  =====================================
method    path                                body / result
========  ==================================  =====================================
GET       ``/healthz``                        liveness + version
GET       ``/readyz``                         readiness (200, or 503 while
                                              draining / store down)
GET       ``/metrics``                        Prometheus text format (0.0.4)
POST      ``/v1/tenants``                     ``{name, plan?, quota_ns?}`` → tenant
GET       ``/v1/tenants``                     all tenants
GET       ``/v1/tenants/{tid}``               tenant + job-state counts
POST      ``/v1/tenants/{tid}/quota``         ``{quota_ns}`` → tenant
GET       ``/v1/tenants/{tid}/usage``         one page of the usage ledger
                                              (``?after=<entry_id>&limit=<n>``,
                                              default 100, cap 1000) +
                                              ``next_after`` + whole-ledger
                                              totals (schema
                                              ``repro-serve-usage-v2``)
GET       ``/v1/tenants/{tid}/jobs``          one page of this tenant's jobs
                                              (``?after=<job_id>&limit=<n>``)
                                              + ``next_after``
POST      ``/v1/tenants/{tid}/jobs``          ``{spec, wait?, idempotency_key?,
                                              over_quota?}`` → job (429 over quota)
POST      ``/v1/tenants/{tid}/fleet``         ``{fleet, wait?, idempotency_key?,
                                              over_quota?}`` → fleet job
                                              (docs/fleet.md; poll when async)
GET       ``/v1/jobs/{jid}``                  job document (poll for async jobs)
POST      ``/v1/jobs/{jid}/retry``            re-dispatch a failed/crashed job
                                              (idempotent billing: never
                                              double-bills)
GET       ``/v1/jobs/{jid}/invoice``          the bill
GET       ``/v1/jobs/{jid}/trust``            clocksource trust report
GET       ``/v1/jobs/{jid}/audit``            tenant-side steal/overbilling audit
GET       ``/v1/jobs/{jid}/fleet``            a fleet job's aggregate report
========  ==================================  =====================================

Replies are compact JSON (sorted keys, no indentation).  Paged listings
use a keyset cursor: pass the previous reply's ``next_after`` as
``after``; ``next_after`` is null on the last page.
"""

from __future__ import annotations

import contextlib
import json
import signal
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import ServeConfig

from .metrics import PROMETHEUS_CONTENT_TYPE
from .service import PAGE_LIMIT, MeteringService, ServiceError
from .store import QuotaExceeded, StoreError, UsageStore

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Request bodies above this are refused outright (spec documents are small).
MAX_BODY_BYTES = 1 << 20


def _json_bytes(doc: Any) -> bytes:
    # Compact on purpose: ``indent`` forces json's pure-Python encoder,
    # about 3x slower than the C one on a large page.
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def _timeout_from(body: Dict[str, Any]) -> Optional[float]:
    """Parse an optional per-request ``timeout_s`` deadline."""
    timeout_s = body.get("timeout_s")
    if timeout_s is None:
        return None
    if not isinstance(timeout_s, (int, float)) or timeout_s <= 0:
        raise ServiceError("timeout_s must be a positive number")
    return float(timeout_s)


class _Handler(BaseHTTPRequestHandler):
    server: "ReproServer"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two sends; with Nagle on, the body waits
    # for the client's delayed ACK (~40 ms per keep-alive reply).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:  # pragma: no cover - manual serving only
            super().log_message(format, *args)

    def _reply(self, status: int, body: bytes,
               content_type: str = JSON_CONTENT_TYPE) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.server.service.metrics.observe_http(self.command, status)

    def _reply_json(self, status: int, doc: Any) -> None:
        self._reply(status, _json_bytes(doc))

    def _reply_error(self, status: int, message: str,
                     **extra: Any) -> None:
        doc = {"error": message}
        doc.update(extra)
        self._reply_json(status, doc)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ServiceError("request body must be a JSON object")
        return doc

    def _route(self) -> Tuple[str, ...]:
        path = self.path.split("?", 1)[0].rstrip("/")
        return tuple(part for part in path.split("/") if part)

    def _query(self) -> Dict[str, str]:
        """The query string's parameters (last value wins)."""
        query = self.path.partition("?")[2]
        return dict(urllib.parse.parse_qsl(query))

    @staticmethod
    def _int_param(query: Dict[str, str], name: str, default: int) -> int:
        value = query.get(name)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ServiceError(
                f"{name} must be an integer, got {value!r}") from None

    # -- dispatch ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _reply_truncated(self) -> None:
        """Injected connection reset: claim a full body, send half, drop
        the connection — the client sees a short read mid-JSON."""
        body = _json_bytes({"error": "chaos: connection reset"})
        self.send_response(200)
        self.send_header("Content-Type", JSON_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body) * 2))
        self.end_headers()
        self.wfile.write(body[:len(body) // 2])
        self.close_connection = True
        self.server.service.metrics.observe_http(self.command, 200)

    def _dispatch(self, method: str) -> None:
        service = self.server.service
        chaos = self.server.chaos
        if chaos is not None:
            fault = chaos.http_fault()
            if fault is not None:
                kind, delay_ms = fault
                if kind == "error":
                    self._reply_error(503, "chaos: injected server error")
                    return
                if kind == "reset":
                    self._reply_truncated()
                    return
                time.sleep(delay_ms / 1000.0)  # kind == "slow"
        try:
            handled = self._handle(method, self._route(), service)
        except QuotaExceeded as exc:
            self._reply_error(429, str(exc), job=exc.job)
        except ServiceError as exc:
            self._reply_error(exc.status, str(exc))
        except StoreError as exc:
            self._reply_error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._reply_error(500, f"{type(exc).__name__}: {exc}")
        else:
            if not handled:
                self._reply_error(
                    404, f"no route for {method} {self.path}")

    def _handle(self, method: str, route: Tuple[str, ...],
                service: MeteringService) -> bool:
        if method == "GET" and route == ("healthz",):
            from .. import __version__
            self._reply_json(200, {"ok": True, "version": __version__,
                                   "store": service.store.path})
            return True
        if method == "GET" and route == ("readyz",):
            ready = service.readiness()
            self._reply_json(200 if ready["ready"] else 503, ready)
            return True
        if method == "GET" and route == ("metrics",):
            self._reply(200, service.metrics_text().encode("utf-8"),
                        content_type=PROMETHEUS_CONTENT_TYPE)
            return True
        if route[:1] != ("v1",):
            return False

        if route[1:2] == ("tenants",):
            if len(route) == 2:
                if method == "POST":
                    body = self._read_body()
                    name = body.get("name")
                    if not isinstance(name, str) or not name:
                        raise ServiceError(
                            "tenant registration needs a non-empty "
                            "string 'name'")
                    tenant = service.register_tenant(
                        name, plan=body.get("plan", "per-cpu-second"),
                        quota_ns=body.get("quota_ns"))
                    self._reply_json(201, tenant)
                    return True
                if method == "GET":
                    self._reply_json(200,
                                     {"tenants": service.store.tenants()})
                    return True
                return False
            tenant_id = route[2]
            tail = route[3:]
            if method == "GET" and tail == ():
                self._reply_json(200, service.tenant_doc(tenant_id))
                return True
            if method == "POST" and tail == ("quota",):
                body = self._read_body()
                if "quota_ns" not in body:
                    raise ServiceError("quota update needs 'quota_ns' "
                                       "(null clears the quota)")
                self._reply_json(
                    200, service.set_quota(tenant_id, body["quota_ns"]))
                return True
            if method == "GET" and tail == ("usage",):
                query = self._query()
                self._reply_json(200, service.usage_doc(
                    tenant_id, after=self._int_param(query, "after", 0),
                    limit=self._int_param(query, "limit", PAGE_LIMIT)))
                return True
            if tail == ("jobs",):
                if method == "GET":
                    query = self._query()
                    self._reply_json(200, service.jobs_doc(
                        tenant_id, after=query.get("after"),
                        limit=self._int_param(query, "limit", PAGE_LIMIT)))
                    return True
                body = self._read_body()
                spec_doc = body.get("spec")
                if not isinstance(spec_doc, dict):
                    raise ServiceError(
                        "submission needs a 'spec' object (see docs/serve.md)")
                job = service.submit(
                    tenant_id, spec_doc,
                    idempotency_key=body.get("idempotency_key"),
                    wait=bool(body.get("wait", True)),
                    over_quota=body.get("over_quota", "reject"),
                    timeout_s=_timeout_from(body))
                self._reply_json(200, job)
                return True
            if method == "POST" and tail == ("fleet",):
                body = self._read_body()
                fleet_doc = body.get("fleet")
                if not isinstance(fleet_doc, dict):
                    raise ServiceError(
                        "fleet submission needs a 'fleet' object "
                        "(see docs/fleet.md)")
                host_range = body.get("host_range")
                if host_range is not None and (
                        not isinstance(host_range, (list, tuple))
                        or len(host_range) != 2):
                    raise ServiceError(
                        "host_range must be a [lo, hi) pair of host "
                        "indices")
                job = service.submit_fleet(
                    tenant_id, fleet_doc,
                    idempotency_key=body.get("idempotency_key"),
                    wait=bool(body.get("wait", True)),
                    over_quota=body.get("over_quota", "reject"),
                    timeout_s=_timeout_from(body),
                    host_range=host_range)
                self._reply_json(200, job)
                return True
            return False

        if route[1:2] == ("jobs",) and len(route) >= 3:
            job_id = route[2]
            tail = route[3:]
            if method == "POST" and tail == ("retry",):
                body = self._read_body()
                job = service.retry_job(
                    job_id, wait=bool(body.get("wait", True)),
                    timeout_s=_timeout_from(body))
                self._reply_json(200, job)
                return True
            if method != "GET":
                return False
            if tail == ():
                self._reply_json(200, service.job_doc(job_id))
                return True
            if tail == ("invoice",):
                self._reply_json(200, service.invoice_doc(job_id))
                return True
            if tail == ("trust",):
                self._reply_json(200, service.trust_doc(job_id))
                return True
            if tail == ("audit",):
                self._reply_json(200, service.audit_doc(job_id))
                return True
            if tail == ("fleet",):
                self._reply_json(200, service.fleet_doc(job_id))
                return True
        return False


class ReproServer(ThreadingHTTPServer):
    """The serve daemon: HTTP front over one :class:`MeteringService`."""

    daemon_threads = True

    def __init__(self, service: MeteringService, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False,
                 chaos: Optional[Any] = None) -> None:
        self.service = service
        self.verbose = verbose
        self.chaos = chaos
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_background(self) -> threading.Thread:
        """Run the accept loop on a daemon thread (tests, selftest).

        The tight poll interval keeps ``close()`` prompt — shutdown()
        blocks until the accept loop notices the flag.
        """
        thread = threading.Thread(
            target=lambda: self.serve_forever(poll_interval=0.02),
            name="repro-serve-http", daemon=True)
        thread.start()
        return thread

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        self.service.close()

    def graceful_close(self, drain_timeout_s: Optional[float] = None) -> bool:
        """Stop accepting, drain in-flight jobs, then close the store.

        Returns True when every in-flight job finished inside the drain
        deadline; False means the pool was abandoned with work cancelled.
        """
        self.shutdown()
        self.server_close()
        return self.service.shutdown(drain_timeout_s)


def serve_forever(cfg: Optional["ServeConfig"] = None,
                  verbose: bool = True,
                  ready: Optional[Callable[["ReproServer"], None]] = None,
                  ) -> None:
    """Entry point for ``repro serve``: block until interrupted.

    Installs SIGTERM/SIGINT handlers (main thread only) that stop the
    accept loop and drain in-flight jobs before the store closes, so a
    supervisor's stop signal never strands a half-billed job.  The
    optional ``ready`` callback fires with the bound server before the
    accept loop starts — tests use it to learn the ephemeral port.
    """
    from ..config import ServeConfig

    cfg = cfg or ServeConfig()
    cfg.validate()
    store = UsageStore(cfg.db, busy_timeout_ms=cfg.busy_timeout_ms)
    service = MeteringService(
        store, jobs=cfg.jobs,
        audit_tolerance_fraction=cfg.audit_tolerance_fraction,
        audit_floor_ns=cfg.audit_tolerance_floor_ns)
    server = ReproServer(service, host=cfg.host, port=cfg.port,
                         verbose=verbose)

    stop_signals: Dict[str, int] = {}
    previous = {}
    if threading.current_thread() is threading.main_thread():
        def _on_signal(signum: int, frame: Any) -> None:
            name = signal.Signals(signum).name
            stop_signals[name] = stop_signals.get(name, 0) + 1
            # shutdown() blocks until the accept loop exits; calling it
            # from the loop's own thread would deadlock, so hop threads.
            threading.Thread(target=server.shutdown,
                             name="repro-serve-stop", daemon=True).start()

        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _on_signal)

    print(f"repro serve listening on {server.address} (store: {cfg.db}, "
          f"{cfg.jobs} worker{'s' if cfg.jobs != 1 else ''})")
    try:
        if ready is not None:
            ready(server)
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        for sig, handler in previous.items():
            with contextlib.suppress(ValueError):
                signal.signal(sig, handler)
        if stop_signals:
            print(f"received {'/'.join(sorted(stop_signals))}, "
                  f"draining (up to {cfg.drain_timeout_s:g}s)")
        drained = server.graceful_close(cfg.drain_timeout_s)
        if not drained:
            print("drain deadline elapsed; unfinished jobs were cancelled")
