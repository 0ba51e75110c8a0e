"""Metering-as-a-service: the ``repro serve`` multi-tenant daemon.

The serving layer turns the reproduction from a batch harness into the
production system the ROADMAP's north star asks for: many tenants submit
workload specs over a JSON/HTTP API, a worker pool executes them through
the same deterministic :func:`~repro.runner.specs.run_spec` path the
figures use, and every bill lands in a durable SQLite WAL ledger
(:class:`UsageStore`) instead of per-run JSON.  The tenant-audit and
trust-report machinery (docs/virt.md, docs/faults.md) becomes a live API:
``GET /v1/jobs/<id>/audit`` runs the steal-estimator/oracle audit on the
stored result and flags overbilling the way the paper's §III-B verifier
does offline.

Layers (each importable on its own):

* :mod:`repro.serve.store` — durable usage ledger (SQLite WAL,
  idempotent billing transactions, crash hooks for the recovery suite);
* :mod:`repro.serve.service` — tenant/job/quota domain logic on a
  thread worker pool, no HTTP anywhere;
* :mod:`repro.serve.metrics` — Prometheus-text-format counters;
* :mod:`repro.serve.api` — stdlib ``ThreadingHTTPServer`` JSON wiring;
* :mod:`repro.serve.selftest` — ``repro serve --selftest``: boots the
  real daemon and drives the honest-vs-attacker end-to-end check.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".store": ("InjectedCrash", "LedgerEntry", "QuotaExceeded", "StoreError",
               "UsageStore"),
    ".service": ("MeteringService", "ServiceError", "invoice_doc_for"),
    ".metrics": ("MetricsRegistry",),
    ".api": ("ReproServer", "serve_forever"),
    ".selftest": ("run_selftest",),
})
