"""Batch experiment runner: declarative sweeps, process fan-out, caching.

The figures and the ``sweep``/``figures`` CLI commands all
funnel their (program × attack × config) points through this package:

* :mod:`~repro.runner.specs` — picklable :class:`ExperimentSpec` points and
  the worker-side :func:`run_spec` entry;
* :mod:`~repro.runner.pool` — :class:`BatchRunner` (serial or
  ``ProcessPoolExecutor`` fan-out, timeout + bounded retry, structured
  failures);
* :mod:`~repro.runner.cache` — :class:`ResultCache`, content-addressed by
  spec/seed/version hash;
* :mod:`~repro.runner.progress` — telemetry counters and progress hooks.

See docs/runner.md for the sweep format and determinism guarantees.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cache": ("ResultCache",),
    ".pool": ("BatchRunner", "FailureRecord", "RunOutcome", "SweepError"),
    ".progress": ("ConsoleProgress", "ProgressEvent", "SweepTelemetry"),
    ".specs": ("ATTACK_CLASSES", "PROGRAM_FACTORIES", "ExperimentSpec",
               "SpecError", "grid", "run_spec", "spec_from_dict", "spec_key"),
})
