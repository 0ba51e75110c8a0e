"""Spec-level configuration of the time plane for one experiment.

A :class:`TimeSyncSpec` is the mapping carried by
``ExperimentSpec.timesync``: which protocol the victim host runs, how bad
its oscillator is, what the link looks like, whether the guest-side
defense estimator is armed, and the (optional) :class:`SyncAttackPlan`.
Like fault plans, an *inert* spec — no attack, no drift, no jitter —
normalizes to None so absent and do-nothing configurations share one
identity and every pre-timesync cache key stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional

from ..errors import ConfigError
from .plan import SyncAttackPlan, normalize_sync_plan, sweep_sync_plan

#: Default sync-exchange cadence (PTP syncs this often; NTP polls 8x
#: slower — see :class:`~repro.timesync.netplane.NtpDaemon`).
DEFAULT_INTERVAL_NS = 100_000_000

#: Canonical victim oscillator error used by the figure/CLI sweeps:
#: 40 ppm, a perfectly ordinary uncompensated crystal.
SWEEP_DRIFT_PPB = 40_000


@dataclass(frozen=True)
class TimeSyncSpec:
    """Everything the time plane needs to know about one run."""

    #: The attack plan, or None for an honest network.
    attack: Optional[SyncAttackPlan] = None
    #: ``"ptp"`` or ``"ntp"``.
    protocol: str = "ptp"
    #: Base sync-exchange interval (ns).
    interval_ns: int = DEFAULT_INTERVAL_NS
    #: Victim host's natural oscillator error (ppb, signed).
    drift_ppb: int = 0
    #: Honest one-way link delay (ns).
    link_delay_ns: int = 500_000
    #: Uniform per-packet link jitter bound (ns).
    link_jitter_ns: int = 0
    #: Arm the guest-side offset estimator (the defense).
    defense: bool = True

    def __post_init__(self) -> None:
        if self.protocol not in ("ptp", "ntp"):
            raise ConfigError(f"unknown sync protocol {self.protocol!r}")
        if self.interval_ns <= 0:
            raise ConfigError("sync interval_ns must be positive")
        if self.link_delay_ns < 0 or self.link_jitter_ns < 0:
            raise ConfigError("link delays must be >= 0")
        if self.attack is not None and not isinstance(self.attack,
                                                      SyncAttackPlan):
            object.__setattr__(self, "attack",
                               normalize_sync_plan(self.attack))

    def is_empty(self) -> bool:
        """True when running the sync plane would change nothing: no
        attack, a perfect oscillator and a jitterless link leave every
        offset estimate at exactly zero."""
        attack = normalize_sync_plan(self.attack)
        return attack is None and self.drift_ppb == 0 \
            and self.link_jitter_ns == 0

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            f.name: getattr(self, f.name) for f in fields(self)
            if f.name != "attack"
        }
        plan = normalize_sync_plan(self.attack)
        doc["attack"] = plan.to_dict() if plan is not None else None
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "TimeSyncSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown timesync spec field(s) "
                              f"{sorted(unknown)}; have {sorted(known)}")
        kwargs = dict(doc)
        attack = kwargs.get("attack")
        if attack is not None and not isinstance(attack, SyncAttackPlan):
            kwargs["attack"] = SyncAttackPlan.from_dict(dict(attack))
        return cls(**kwargs)

    def describe(self) -> str:
        plan = normalize_sync_plan(self.attack)
        bits = [self.protocol,
                f"drift {self.drift_ppb}ppb",
                "defense on" if self.defense else "defense off"]
        bits.append(plan.describe() if plan is not None else "no sync attack")
        return ", ".join(bits)


def normalize_timesync(timesync) -> Optional[TimeSyncSpec]:
    """Coerce a timesync argument (None, mapping or spec) to an *active*
    :class:`TimeSyncSpec`, collapsing inert specs to None — the
    no-time-plane path constructs nothing and stays bit-identical."""
    if timesync is None:
        return None
    spec = timesync if isinstance(timesync, TimeSyncSpec) \
        else TimeSyncSpec.from_dict(dict(timesync))
    return None if spec.is_empty() else spec


def sweep_timesync(offset_ns: int, defense: bool = True,
                   protocol: str = "ptp",
                   scale: float = 1.0) -> TimeSyncSpec:
    """Canonical one-knob spec for the ``timesync`` figure and CLI: a
    delay-asymmetry attack targeting ``offset_ns`` of clock skew against
    a victim with an ordinary 40 ppm crystal and a jitterless link (so
    the figure's strict inequalities are deterministic).

    ``scale`` is the workload scale of the run.  The workload shrinks
    with it, but a fixed 100ms sync cadence would starve the servo of
    rounds on short runs; the exchange interval shrinks in step (floor
    2ms) so the round count stays comparable.  At scale >= 1 this is
    exactly :data:`DEFAULT_INTERVAL_NS`."""
    attack = sweep_sync_plan(offset_ns) if offset_ns else None
    interval_ns = max(2_000_000, int(DEFAULT_INTERVAL_NS * min(scale, 1.0)))
    return TimeSyncSpec(attack=normalize_sync_plan(attack),
                        protocol=protocol,
                        drift_ppb=SWEEP_DRIFT_PPB,
                        defense=defense,
                        interval_ns=interval_ns)
