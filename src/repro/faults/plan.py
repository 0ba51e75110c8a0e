"""Declarative, seeded, spec-serializable hardware fault plans.

A :class:`FaultPlan` describes every deliberate hardware/clock misbehaviour
a run should suffer: lost, delayed or jittered timer ticks, TSC drift,
steps and freezes, spurious interrupt storms, SMI-style blackout windows,
stale ``/proc`` reads and a lying hypervisor steal clock.  The plan is
plain data — it round-trips through JSON, participates in the runner's
content-addressed cache identity (only when non-empty, so existing cache
keys are untouched) and is sweepable like any other spec dimension.

Determinism: the plan itself carries no randomness.  Probabilistic faults
(tick loss/delay, storm jitter) draw from dedicated named RNG streams
(``faults:*``) of the machine's :class:`~repro.sim.rng.DeterministicRng`,
so a plan plus a config seed always reproduces the same fault schedule and
never perturbs the draws other subsystems see.

The ``watchdog`` flag selects the kernel-side defense (the clocksource
watchdog plus lost-tick catch-up, see :mod:`repro.kernel.timekeeping`); it
is part of the plan so sweeps can compare defended and undefended runs
point for point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from ..errors import ConfigError
from ..plans import FrozenPlan


@dataclass(frozen=True)
class FaultPlan(FrozenPlan):
    """One run's worth of deliberate hardware/clock faults.

    All-defaults (with any ``watchdog`` setting) is the *empty* plan: no
    injector is installed and the run is bit-identical to one without a
    fault layer at all.
    """

    # -- timer tick faults -------------------------------------------------
    #: Probability that a timer tick is silently swallowed (the IRQ never
    #: reaches the kernel; the grid itself never drifts).
    tick_loss_prob: float = 0.0
    #: Probability that a tick fires late by a uniform random delay.
    tick_delay_prob: float = 0.0
    #: Maximum tick delay in ns (clamped below one tick period at runtime,
    #: so a delayed tick never reorders past its successor).
    tick_delay_max_ns: int = 0
    #: SMI-style blackout: every ``smi_period_ns``, ticks whose grid
    #: instant falls inside the first ``smi_duration_ns`` are suppressed
    #: (firmware owns the core; the OS sees nothing).
    smi_period_ns: int = 0
    smi_duration_ns: int = 0
    #: Which CPU's local timer the tick faults above target on an SMP
    #: machine.  None (the default) preserves the historical behavior —
    #: CPU 0, the timekeeping CPU — and is omitted from the serialized
    #: form so every pre-existing plan identity stays byte-identical.
    tick_cpu: Optional[int] = None

    # -- TSC faults (read-side: metering ground truth is untouched) --------
    #: Frequency error of the TSC clocksource, in parts per million.
    tsc_drift_ppm: int = 0
    #: One-shot step added to every TSC read at/after the trigger count.
    tsc_step_cycles: int = 0
    tsc_step_after_cycles: int = 0
    #: Periodic freeze: within each ``tsc_freeze_period_cycles`` window the
    #: first ``tsc_freeze_duration_cycles`` of reads stick at the window
    #: start (a halted/deep-C-state TSC).
    tsc_freeze_duration_cycles: int = 0
    tsc_freeze_period_cycles: int = 0
    #: Which CPU's TSC the faults above corrupt on an SMP machine (a
    #: desynced socket).  None = CPU 0, omitted when serialized, exactly
    #: like ``tick_cpu``.
    tsc_cpu: Optional[int] = None

    # -- spurious interrupt storm -----------------------------------------
    #: Rate of spurious device interrupts (no payload behind them), in
    #: interrupts per second of simulated time.  Arrival jitter is drawn
    #: from the ``faults:irq`` stream.
    irq_storm_pps: float = 0.0

    # -- stale procfs ------------------------------------------------------
    #: Host-side /proc reads return snapshots up to this old (a lagging
    #: metering exporter), 0 = always fresh.
    procfs_staleness_ns: int = 0

    # -- lying hypervisor steal clock --------------------------------------
    #: The paravirtual steal clock reports ``true_steal * factor`` to the
    #: guest (1.0 = honest).  Hypervisor-level runs only.
    steal_lie_factor: float = 1.0

    # -- defense -----------------------------------------------------------
    #: Install the clocksource watchdog + lost-tick catch-up (the kernel's
    #: defense).  Ignored by the empty plan.
    watchdog: bool = True

    KIND = "fault plan"
    UNIT_FIELDS = ("tick_loss_prob", "tick_delay_prob")
    NONNEGATIVE_FIELDS = (
        "tick_delay_max_ns", "smi_period_ns", "smi_duration_ns",
        "tsc_drift_ppm", "tsc_step_cycles", "tsc_step_after_cycles",
        "tsc_freeze_duration_cycles", "tsc_freeze_period_cycles",
        "procfs_staleness_ns", "irq_storm_pps", "steal_lie_factor")
    NEEDS_POSITIVE = (
        ("smi_duration_ns", "smi_period_ns"),
        ("tsc_freeze_duration_cycles", "tsc_freeze_period_cycles"),
        ("tick_delay_prob", "tick_delay_max_ns"))
    #: The CPU-targeting fields are omitted while None, so plan documents
    #: and every identity derived from them predate SMP targeting
    #: byte-identically.
    OMIT_IF_NONE = ("tick_cpu", "tsc_cpu")

    def _validate(self) -> None:
        for name in ("tick_cpu", "tsc_cpu"):
            cpu = getattr(self, name)
            if cpu is not None and (not isinstance(cpu, int) or cpu < 0):
                raise ConfigError(f"{name} must be None or a CPU index "
                                  f">= 0, got {cpu!r}")

    # -- structure queries -------------------------------------------------

    def has_tick_faults(self) -> bool:
        return (self.tick_loss_prob > 0 or self.tick_delay_prob > 0
                or self.smi_duration_ns > 0)

    def has_tsc_faults(self) -> bool:
        return (self.tsc_drift_ppm != 0 or self.tsc_step_cycles != 0
                or self.tsc_freeze_duration_cycles > 0)

    def is_empty(self) -> bool:
        """True when the plan injects nothing (the ``watchdog`` flag alone
        does not make a plan non-empty: with no fault to defend against the
        defense is inert by construction)."""
        return not (self.has_tick_faults() or self.has_tsc_faults()
                    or self.irq_storm_pps > 0
                    or self.procfs_staleness_ns > 0
                    or self.steal_lie_factor != 1.0)

    def tolerated_categories(self) -> Set[str]:
        """Invariant-checker categories this plan *declares* broken.

        Most faults keep every conservation law intact (tick loss merely
        under-samples; catch-up replays exact jiffies; TSC faults are
        read-side only).  The lying steal clock is the exception: the guest
        timekeeper's steal counter knowingly diverges from the hypervisor
        ledger, so the ``steal-injection`` cross-check must tolerate it.
        """
        out: Set[str] = set()
        if self.steal_lie_factor != 1.0:
            out.add("steal-injection")
        return out

    def describe(self) -> str:
        """Short human summary of the active injectors."""
        parts = []
        if self.tick_loss_prob > 0:
            parts.append(f"tick-loss p={self.tick_loss_prob:g}")
        if self.tick_delay_prob > 0:
            parts.append(f"tick-delay p={self.tick_delay_prob:g}"
                         f"<={self.tick_delay_max_ns}ns")
        if self.smi_duration_ns > 0:
            parts.append(f"smi {self.smi_duration_ns}/{self.smi_period_ns}ns")
        if self.tsc_drift_ppm != 0:
            parts.append(f"tsc-drift {self.tsc_drift_ppm}ppm")
        if self.tsc_step_cycles != 0:
            parts.append(f"tsc-step {self.tsc_step_cycles}cy")
        if self.tsc_freeze_duration_cycles > 0:
            parts.append("tsc-freeze")
        if self.tick_cpu is not None:
            parts.append(f"tick@cpu{self.tick_cpu}")
        if self.tsc_cpu is not None:
            parts.append(f"tsc@cpu{self.tsc_cpu}")
        if self.irq_storm_pps > 0:
            parts.append(f"irq-storm {self.irq_storm_pps:g}pps")
        if self.procfs_staleness_ns > 0:
            parts.append(f"stale-procfs {self.procfs_staleness_ns}ns")
        if self.steal_lie_factor != 1.0:
            parts.append(f"steal-lie x{self.steal_lie_factor:g}")
        if not parts:
            return "no faults"
        wd = "on" if self.watchdog else "off"
        return ", ".join(parts) + f" (watchdog {wd})"


#: Coerce a faults argument (None, mapping or plan) to an active
#: :class:`FaultPlan`, collapsing empty plans to None so the zero-fault path
#: stays byte-for-byte identical to a machine without a fault layer.
normalize_plan = FaultPlan.normalize


def sweep_plan(intensity: float, watchdog: bool = True) -> FaultPlan:
    """The canonical one-knob plan used by the ``faultsweep`` figure and
    the fault CLI: tick loss scales directly with ``intensity`` and TSC
    drift crosses the watchdog's unstable threshold at high intensity."""
    if intensity < 0:
        raise ConfigError("fault intensity must be >= 0")
    return FaultPlan(
        tick_loss_prob=min(0.9, round(intensity, 6)),
        tsc_drift_ppm=int(1_000_000 * intensity),
        watchdog=watchdog,
    )
