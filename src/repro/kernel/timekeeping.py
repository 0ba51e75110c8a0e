"""Jiffies, tick bookkeeping and the clocksource watchdog.

The :class:`TimeKeeper` is thin by design: the tick's *accounting* action
lives in the accounting scheme and its *scheduling* action in the
scheduler; this module only keeps the counters a real kernel's timekeeping
code would (jiffies, ticks observed per task state) so tests and reports
can assert on them.

The :class:`ClocksourceWatchdog` is the kernel-side defense of the fault
layer (see :mod:`repro.faults` and ``docs/faults.md``): modelled on Linux's
``clocksource_watchdog()``, it periodically cross-checks the fine-grained
clocksource (the invariant TSC) against the coarse but trustworthy one
(jiffies off the PIT grid).  When the two disagree beyond a threshold it
marks the TSC unstable and falls back to jiffies; alongside, the kernel's
lost-tick compensation (``Kernel._timer_irq``) replays jiffies a masked
tick swallowed.  Every check closes a :class:`ClockInterval` carrying a
trust grade and an uncertainty bound, which is how metering degrades
*gracefully*: billing keeps flowing, each interval just says how much the
numbers can be trusted (:class:`TrustLevel`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.cpu import CPU
    from ..hw.timer import TimerDevice
    from ..sim.clock import Clock


class TrustLevel(enum.Enum):
    """How much a metering interval's numbers can be trusted."""

    #: Clocksources agree, no tick was recovered: full confidence.
    TRUSTED = "trusted"
    #: Ticks were recovered by catch-up, arrived late, or the clocksources
    #: mildly disagree (or the watchdog is running on the jiffies
    #: fallback): numbers are correct to within ``uncertainty_ns``.
    DEGRADED = "degraded"
    #: The clocksource cross-check failed outright in this interval: the
    #: fine-grained time base was caught lying.
    UNTRUSTED = "untrusted"


@dataclass(frozen=True)
class ClockInterval:
    """One watchdog check window, graded."""

    start_ns: int
    end_ns: int
    #: Jiffies accounted inside the window (including caught-up ones).
    jiffies: int
    #: Jiffies recovered by lost-tick catch-up inside the window.
    caught_up: int
    #: Ticks that fired late inside the window.
    delayed: int
    #: TSC-derived elapsed time minus jiffies-derived elapsed time.
    skew_ns: int
    trust: TrustLevel
    #: Half-width of the interval's CPU-time error bound.
    uncertainty_ns: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "jiffies": self.jiffies,
            "caught_up": self.caught_up,
            "delayed": self.delayed,
            "skew_ns": self.skew_ns,
            "trust": self.trust.value,
            "uncertainty_ns": self.uncertainty_ns,
        }


class TimeKeeper:
    """Tracks jiffies and tick statistics.

    SMP note (audited for PR 6): ``jiffies`` is a single global counter in
    Linux, advanced by one designated timekeeping CPU — not once per CPU
    per period.  We mirror that: only CPU 0's tick increments ``jiffies``
    (so ``uptime_ns`` stays wall time), while every CPU's tick increments
    ``ticks_total`` and its own per-CPU mode counter.  On a uniprocessor
    every tick is CPU 0's, so the pre-SMP behavior is unchanged.
    """

    def __init__(self, tick_ns: int, nproc: int = 1) -> None:
        self.tick_ns = tick_ns
        self.nproc = nproc
        self.jiffies = 0
        self.ticks_user = 0
        self.ticks_kernel = 0
        self.ticks_idle = 0
        #: Tick samples across all CPUs (== jiffies on a uniprocessor,
        #: modulo lost-tick catch-up which replays jiffies without a
        #: hardware tick).  The per-mode counters above sum to this.
        self.ticks_total = 0
        #: Per-CPU tick counts by sampled mode, for /proc/stat "cpuN" rows.
        self.cpu_ticks_user = [0] * nproc
        self.cpu_ticks_kernel = [0] * nproc
        self.cpu_ticks_idle = [0] * nproc
        #: Involuntary-wait time reported by the hypervisor (ns the vCPU was
        #: runnable but descheduled) — the /proc/stat "steal" column.  Zero
        #: on bare metal; a hypervisor injects it via :meth:`account_steal`.
        self.steal_ns = 0
        #: Jiffies recovered by lost-tick compensation (a subset of
        #: ``jiffies``); zero unless the clocksource watchdog is active.
        self.jiffies_caught_up = 0
        #: CLOCK_REALTIME discipline: signed ns the network time plane has
        #: steered this host's wall clock away from the boot-relative
        #: uptime axis (settimeofday/adjtimex landing on the timekeeper).
        #: Stays 0 — and out of :meth:`snapshot` — unless a sync daemon is
        #: attached, so pre-timesync machines are byte-identical.
        self.walltime_offset_ns = 0
        self.sync_steered = False

    def tick(self, running: bool, user_mode: bool, cpu: int = 0) -> None:
        if cpu == 0:
            # The timekeeping CPU drives the global jiffy counter.
            self.jiffies += 1
        self.ticks_total += 1
        if not running:
            self.ticks_idle += 1
            self.cpu_ticks_idle[cpu] += 1
        elif user_mode:
            self.ticks_user += 1
            self.cpu_ticks_user[cpu] += 1
        else:
            self.ticks_kernel += 1
            self.cpu_ticks_kernel[cpu] += 1

    def account_steal(self, ns: int) -> None:
        """Credit ``ns`` of hypervisor-reported steal time (paravirtual
        steal clock, like KVM's MSR_KVM_STEAL_TIME)."""
        if ns < 0:
            raise ValueError(f"steal delta must be >= 0, got {ns}")
        self.steal_ns += ns

    @property
    def uptime_ns(self) -> int:
        return self.jiffies * self.tick_ns

    def snapshot(self) -> dict:
        doc = {
            "jiffies": self.jiffies,
            "user": self.ticks_user,
            "kernel": self.ticks_kernel,
            "idle": self.ticks_idle,
            "steal_ns": self.steal_ns,
            "jiffies_caught_up": self.jiffies_caught_up,
        }
        if self.sync_steered:
            # Present only on sync-disciplined machines so every other
            # snapshot stays byte-identical to the pre-timesync format.
            doc["walltime_offset_ns"] = self.walltime_offset_ns
        if self.nproc > 1:
            # Added only on SMP machines so single-CPU snapshots stay
            # byte-identical to the pre-SMP format.
            doc["ticks_total"] = self.ticks_total
            doc["cpu_ticks"] = [
                {"user": self.cpu_ticks_user[c],
                 "kernel": self.cpu_ticks_kernel[c],
                 "idle": self.cpu_ticks_idle[c]}
                for c in range(self.nproc)
            ]
        return doc


class ClocksourceWatchdog:
    """Linux-style clocksource cross-check with trust-graded intervals.

    Every ``check_every_ticks`` sampled jiffies, compare the elapsed time
    the TSC clocksource reports against what the jiffy counter reports for
    the same window.  Relative skew at or above ``unstable_skew`` marks the
    TSC unstable — permanently, as Linux does — and timekeeping falls back
    to the jiffies clocksource; skew at or above ``degraded_skew``, any
    caught-up or late tick, or running on the fallback merely degrades the
    window.  Each check closes one :class:`ClockInterval` whose
    ``uncertainty_ns`` bounds how far metered CPU time inside the window
    can be off.

    SMP note (audited for PR 6): the watchdog runs on the timekeeping CPU
    only (CPU 0), like Linux's, because its arithmetic cross-checks the
    *global* jiffy counter — which only CPU 0 advances — against CPU 0's
    TSC.  The kernel guarantees this by invoking ``on_tick``/
    ``note_caught_up`` exclusively from CPU 0's timer interrupt.
    """

    def __init__(self, cpu: "CPU", clock: "Clock", timekeeper: TimeKeeper,
                 tick_ns: int, timer: Optional["TimerDevice"] = None,
                 check_every_ticks: int = 8,
                 degraded_skew: float = 0.02,
                 unstable_skew: float = 0.10,
                 cpu_index: int = 0) -> None:
        if check_every_ticks <= 0:
            raise ValueError("check_every_ticks must be positive")
        if not 0 < degraded_skew <= unstable_skew:
            raise ValueError("need 0 < degraded_skew <= unstable_skew")
        self.cpu = cpu
        self.clock = clock
        self.timekeeper = timekeeper
        self.tick_ns = tick_ns
        self.timer = timer
        self.check_every_ticks = check_every_ticks
        self.degraded_skew = degraded_skew
        self.unstable_skew = unstable_skew

        #: Which CPU's TSC this watchdog instance monitors (the
        #: timekeeping CPU in practice; recorded so stats can say *whose*
        #: clocksource tripped the latch).
        self.cpu_index = cpu_index
        self.clocksource = "tsc"
        self.unstable = False
        #: CPU index whose cross-check tripped the unstable latch; None
        #: while the clocksource is still trusted.
        self.unstable_cpu: Optional[int] = None
        self.flagged_at_jiffy: Optional[int] = None
        self.checks = 0
        self.intervals: List[ClockInterval] = []

        self._last_check_ns = clock.now
        self._last_jiffies = timekeeper.jiffies
        self._last_tsc_ns = cpu.cycles_to_ns(cpu.wall_tsc(clock.now))
        self._last_delayed = timer.ticks_delayed if timer is not None else 0
        self._window_caught_up = 0

    # -- hooks (called by Kernel._timer_irq) -------------------------------

    def note_caught_up(self, jiffies: int) -> None:
        """Lost-tick compensation replayed ``jiffies`` missed jiffies."""
        self._window_caught_up += jiffies

    def on_tick(self, now_ns: int) -> None:
        """Called after each sampled jiffy; runs a check when the window
        is full."""
        if (self.timekeeper.jiffies - self._last_jiffies
                >= self.check_every_ticks):
            self._check(now_ns)

    def finalize(self, now_ns: int) -> None:
        """Close the trailing partial window (end of experiment)."""
        if self.timekeeper.jiffies > self._last_jiffies:
            self._check(now_ns)

    # -- the cross-check ---------------------------------------------------

    def _check(self, now_ns: int) -> None:
        self.checks += 1
        jiffies = self.timekeeper.jiffies - self._last_jiffies
        jiffy_elapsed_ns = jiffies * self.tick_ns
        tsc_ns = self.cpu.cycles_to_ns(self.cpu.wall_tsc(now_ns))
        tsc_elapsed_ns = tsc_ns - self._last_tsc_ns
        skew_ns = tsc_elapsed_ns - jiffy_elapsed_ns
        skew_frac = abs(skew_ns) / jiffy_elapsed_ns if jiffy_elapsed_ns else 0.0

        caught_up = self._window_caught_up
        if self.timer is not None:
            delayed = self.timer.ticks_delayed - self._last_delayed
        else:
            delayed = 0

        if skew_frac >= self.unstable_skew and not self.unstable:
            # First failed cross-check: mark the clocksource unstable and
            # fall back to the coarse-but-honest one, as
            # clocksource_mark_unstable() does.  The interval that caught
            # the lie is the one branded UNTRUSTED.
            self.unstable = True
            self.unstable_cpu = self.cpu_index
            self.clocksource = "jiffies"
            self.flagged_at_jiffy = self.timekeeper.jiffies
            trust = TrustLevel.UNTRUSTED
        elif self.unstable:
            # Running on the fallback clocksource: stable but coarse.
            trust = TrustLevel.DEGRADED
        elif (caught_up or delayed or skew_frac >= self.degraded_skew):
            trust = TrustLevel.DEGRADED
        else:
            trust = TrustLevel.TRUSTED

        uncertainty = (caught_up + delayed) * self.tick_ns
        if trust is not TrustLevel.TRUSTED:
            uncertainty += abs(skew_ns)

        self.intervals.append(ClockInterval(
            start_ns=self._last_check_ns, end_ns=now_ns, jiffies=jiffies,
            caught_up=caught_up, delayed=delayed, skew_ns=skew_ns,
            trust=trust, uncertainty_ns=uncertainty))

        self._last_check_ns = now_ns
        self._last_jiffies = self.timekeeper.jiffies
        self._last_tsc_ns = tsc_ns
        self._last_delayed += delayed
        self._window_caught_up = 0

    # -- reporting ---------------------------------------------------------

    def trust_counts(self) -> Dict[str, int]:
        counts = {level.value: 0 for level in TrustLevel}
        for interval in self.intervals:
            counts[interval.trust.value] += 1
        return counts

    def total_uncertainty_ns(self) -> int:
        return sum(i.uncertainty_ns for i in self.intervals)

    def summary(self) -> Dict[str, Any]:
        return {
            "clocksource": self.clocksource,
            "unstable": self.unstable,
            "unstable_cpu": self.unstable_cpu,
            "flagged_at_jiffy": self.flagged_at_jiffy,
            "checks": self.checks,
            "intervals": len(self.intervals),
            "trust_counts": self.trust_counts(),
            "uncertainty_ns": self.total_uncertainty_ns(),
            "jiffies_caught_up": self.timekeeper.jiffies_caught_up,
        }
