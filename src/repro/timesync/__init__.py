"""Simulated network time plane: PTP/NTP sync, attacks, and the defense.

Models the layer the metering stack silently trusts — that hosts agree
what time it is.  See :mod:`repro.timesync.netplane` for the protocol and
servo model, :mod:`repro.timesync.plan` for the attack taxonomy and
:mod:`repro.timesync.spec` for the per-experiment configuration mapping
(docs/timesync.md walks through all three).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".netplane": ("LinkModel", "LocalClock", "NtpDaemon", "OffsetEstimator",
                  "PtpDaemon", "SyncNetwork", "TimeSyncError",
                  "PTP_STEP_THRESHOLD_NS"),
    ".plan": ("SyncAttackPlan", "normalize_sync_plan", "sweep_sync_plan"),
    ".spec": ("TimeSyncSpec", "normalize_timesync", "sweep_timesync",
              "SWEEP_DRIFT_PPB"),
})
