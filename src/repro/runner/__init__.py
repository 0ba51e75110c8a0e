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

from .cache import ResultCache
from .pool import BatchRunner, FailureRecord, RunOutcome, SweepError
from .progress import ConsoleProgress, ProgressEvent, SweepTelemetry
from .specs import (
    ATTACK_CLASSES,
    PROGRAM_FACTORIES,
    ExperimentSpec,
    SpecError,
    grid,
    run_spec,
    spec_from_dict,
    spec_key,
)

__all__ = [
    "ATTACK_CLASSES",
    "PROGRAM_FACTORIES",
    "BatchRunner",
    "ConsoleProgress",
    "ExperimentSpec",
    "FailureRecord",
    "ProgressEvent",
    "ResultCache",
    "RunOutcome",
    "SpecError",
    "SweepError",
    "SweepTelemetry",
    "grid",
    "run_spec",
    "spec_from_dict",
    "spec_key",
]
