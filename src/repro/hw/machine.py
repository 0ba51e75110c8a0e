"""The machine: hardware assembly plus the main simulation loop.

The loop alternates between two activities:

1. firing due events (timer ticks, packet arrivals, disk completions) —
   each may consume handler time and request a reschedule;
2. running the current task's op stream up to the next event time.

Because the engine stops *exactly* at event boundaries, a timer tick always
observes the true instantaneous state of the CPU — which task is current
and in which mode — making tick-sampled accounting behave exactly as it
does on real hardware, free of host-interpreter jitter.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from ..config import MachineConfig, default_config
from ..errors import SimulationError
from ..faults.plan import normalize_plan
from ..kernel.kernel import Kernel
from ..kernel.process import TaskState
from ..kernel.shell import Shell
from ..sim.clock import Clock
from ..sim.events import EventQueue
from ..sim.rng import DeterministicRng
from ..sim.runloop import RunLoop
from ..sim.tracing import TraceLog
from ..timesync.spec import normalize_timesync
from .cpu import CPU
from .disk import Disk
from .irq import InterruptController
from .nic import NetworkCard, PacketFlood
from .timer import TimerDevice

_RUNNING = TaskState.RUNNING

#: Budget used when no event is pending (cannot happen with the timer on,
#: but keeps the loop total even if a test stops the timer).
_IDLE_SLICE_NS = 10_000_000


class Machine(RunLoop):
    """A complete simulated computer."""

    def __init__(self, cfg: Optional[MachineConfig] = None,
                 trace: Iterable[str] = (),
                 invariants=None,
                 faults=None,
                 timesync=None) -> None:
        """``invariants`` enables the runtime invariant checker: False/None
        (off), True (raise on first violation), ``"collect"`` (record
        violations on ``machine.invariant_checker.violations``), or a
        pre-built :class:`~repro.verify.InvariantChecker`.

        ``faults`` is an optional :class:`~repro.faults.FaultPlan` (or a
        mapping for :meth:`FaultPlan.from_dict`): deterministic hardware
        misbehaviour injected into the timer, TSC, interrupt lines and
        /proc, plus the clocksource-watchdog defense.  An empty plan is
        treated exactly like no plan: no injector or watchdog is installed
        and the machine is bit-identical to a fault-free one.

        ``timesync`` is an optional :class:`~repro.timesync.TimeSyncSpec`
        (or mapping): the simulated network time plane — a PTP/NTP daemon
        disciplining this host's clock over an attackable link.  An inert
        spec is treated exactly like no spec: nothing is constructed and
        the machine is bit-identical to a pre-timesync one.
        """
        self.cfg = cfg or default_config()
        self.cfg.validate()
        self.fault_plan = normalize_plan(faults)
        self.timesync_spec = normalize_timesync(timesync)
        self.clock = Clock()
        self.events = EventQueue()
        self.rng = DeterministicRng(self.cfg.seed)
        self.trace_log = TraceLog(enabled=trace)
        nproc = self.cfg.nproc
        tick_ns = self.cfg.tick_ns
        self.cpus = [CPU(self.cfg.cpu_freq_hz) for _ in range(nproc)]
        self.cpu = self.cpus[0]
        self.pic = InterruptController()
        self.nic = NetworkCard(self.pic)
        self.disk = Disk(self.cfg.disk, self.clock, self.events, self.pic)
        self.kernel = Kernel(self.cfg, self.clock, self.events, self.cpu,
                             self.pic, self.disk, self.nic, self.rng,
                             self.trace_log)
        # Per-CPU local timers, staggered across the jiffy the way Linux
        # spreads its per-CPU ticks, delivered straight to the kernel's
        # per-CPU tick path (local-APIC style) instead of through the
        # shared PIC line.  CPU 0 has offset 0, so the timekeeping jiffy
        # grid is the same at every nproc.
        self.timers = [
            TimerDevice(tick_ns, self.clock, self.events, self.pic,
                        offset_ns=i * tick_ns // nproc,
                        handler=partial(self.kernel.timer_interrupt, i))
            for i in range(nproc)]
        self.timer = self.timers[0]
        self.kernel.init_smp(self.cpus, self.timers)
        self.watchdog = None
        self.irq_storm = None
        tolerated = (self.fault_plan.tolerated_categories()
                     if self.fault_plan is not None else ())
        self.invariant_checker = None
        if invariants:
            from ..verify.invariants import InvariantChecker

            self.invariant_checker = InvariantChecker.resolve(invariants,
                                                              tolerated)
        if self.invariant_checker is not None:
            self.invariant_checker.attach(self.kernel)
        if self.fault_plan is not None:
            self._install_faults(self.fault_plan)
        self.timesync = None
        if self.timesync_spec is not None:
            from ..timesync.host import MachineTimeSync

            self.timesync = MachineTimeSync(self.timesync_spec, self)
        for timer in self.timers:
            timer.start()

    def _install_faults(self, plan) -> None:
        from ..faults import IrqStorm, StaleProcfs, TickFaultInjector, TscFault
        from ..kernel.timekeeping import ClocksourceWatchdog

        def _target(name, devices):
            idx = getattr(plan, name)
            if idx is None:
                return devices[0]
            if idx >= self.cfg.nproc:
                raise SimulationError(
                    f"fault plan targets {name}={idx} but the machine "
                    f"has nproc={self.cfg.nproc}")
            return devices[idx]

        self._faulted_timer = _target("tick_cpu", self.timers)
        if plan.has_tick_faults():
            self._faulted_timer.fault = TickFaultInjector(
                plan, self.rng.stream("faults:tick"), self.cfg.tick_ns,
                trace_log=self.trace_log)
        if plan.has_tsc_faults():
            _target("tsc_cpu", self.cpus).tsc_fault = TscFault(plan)
        if plan.irq_storm_pps > 0:
            self.irq_storm = IrqStorm(
                plan, self.clock, self.events, self.pic,
                self.rng.stream("faults:irq"), trace_log=self.trace_log)
            self.irq_storm.start()
        if plan.procfs_staleness_ns > 0:
            self.kernel.procfs_fault = StaleProcfs(plan.procfs_staleness_ns)
        if plan.watchdog:
            self.watchdog = ClocksourceWatchdog(
                self.cpu, self.clock, self.kernel.timekeeper,
                self.cfg.tick_ns, timer=self.timer)
            self.kernel.watchdog = self.watchdog

    def fault_stats(self) -> dict:
        """Integer counters describing injected faults and the watchdog's
        reaction; empty when no fault plan is active."""
        if self.fault_plan is None:
            return {}
        faulted_timer = getattr(self, "_faulted_timer", self.timer)
        stats = {
            "fault_ticks_lost": faulted_timer.ticks_lost,
            "fault_ticks_delayed": faulted_timer.ticks_delayed,
            "fault_jiffies_caught_up": self.kernel.timekeeper.jiffies_caught_up,
        }
        if self.irq_storm is not None:
            stats["fault_spurious_irqs"] = self.irq_storm.spurious_fired
        if self.kernel.procfs_fault is not None:
            stats["fault_stale_proc_reads"] = \
                self.kernel.procfs_fault.stale_reads
        if self.watchdog is not None:
            stats["watchdog_checks"] = self.watchdog.checks
            stats["watchdog_unstable"] = int(self.watchdog.unstable)
            stats["watchdog_uncertainty_ns"] = \
                self.watchdog.total_uncertainty_ns()
            counts = self.watchdog.trust_counts()
            stats["watchdog_intervals_trusted"] = counts["trusted"]
            stats["watchdog_intervals_degraded"] = counts["degraded"]
            stats["watchdog_intervals_untrusted"] = counts["untrusted"]
            if self.watchdog.flagged_at_jiffy is not None:
                stats["watchdog_flagged_at_jiffy"] = \
                    self.watchdog.flagged_at_jiffy
            if self.watchdog.unstable_cpu is not None:
                stats["watchdog_unstable_cpu"] = self.watchdog.unstable_cpu
        else:
            # No watchdog means nobody graded the corruption: surface the
            # raw injected damage as an uncertainty bound so the billing
            # layer still refuses to issue a silently-TRUSTED invoice.
            damage = ((faulted_timer.ticks_lost + faulted_timer.ticks_delayed)
                      * self.cfg.tick_ns)
            if damage:
                stats["fault_uncertainty_ns"] = damage
        return stats

    def close(self) -> None:
        """End the machine's life once its run is over.

        A running machine is a web of back-references: the kernel owns
        the engine, which points back at it; the timers and the PIC hold
        kernel handlers; and the event queue holds callbacks of the very
        devices, daemons and sleepers that hold the queue.  Closing drops
        those edges, so reference counting frees the whole machine the
        moment its owner lets go of it, without waiting for the cycle
        collector.  What a result reads stays readable (clock, tasks,
        ledgers, counters, the trace), but the machine cannot step again.
        Closing twice does nothing more.
        """
        self.events.clear()
        self.disk.close()
        for timer in self.timers:
            timer.close()
        self.kernel.close()

    def check_invariants(self) -> None:
        """Run a full invariant sweep now (no-op when checking is off)."""
        if self.invariant_checker is not None:
            self.invariant_checker.check_full()

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    def new_shell(self, env: Optional[dict] = None) -> Shell:
        return Shell(self.kernel, env=env)

    def packet_flood(self, rate_pps: float, jitter: bool = False) -> PacketFlood:
        return PacketFlood(self.nic, self.clock, self.events, rate_pps,
                           rng=self.rng, jitter=jitter)

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------

    def _drain_due_events(self) -> Optional[int]:
        """Fire every due event; returns the time of the next one (None if
        none is pending).  Reads the queue once when nothing is due."""
        events = self.events
        clock = self.clock
        next_time = events.next_time()
        while next_time is not None and next_time <= clock._now:
            events.run_due(clock._now)
            next_time = events.next_time()
        return next_time

    def step(self, until: Optional[int] = None) -> bool:
        """One loop iteration.  Returns False when nothing can progress.

        ``until`` ends a vCPU slice there (uniprocessor only): the engine
        stops at it; once the due events and the switch have run, a clock
        at or past it (that work may overshoot) ends the step; and an idle
        CPU returns False instead of idling forward — a halted vCPU hands
        its core back to the hypervisor.
        """
        if self.cfg.nproc > 1:
            return self._step_smp()
        clock = self.clock
        if clock._now > self.cfg.max_time_ns:
            raise SimulationError(
                f"simulation exceeded max_time_ns at {clock._now}ns")
        # schedule() below schedules and cancels no event, so the time
        # the drain read is still the next event's after it.
        next_time = self._drain_due_events()

        kernel = self.kernel
        current = kernel.current
        if (kernel.need_resched or current is None
                or current.state is not _RUNNING):
            kernel.schedule()
            current = kernel.current

        if until is not None:
            if clock._now >= until:
                return True
            if current is None:
                return False
            if next_time is None or next_time > until:
                next_time = until
        if current is None:
            if next_time is None:
                return False  # fully idle, nothing scheduled
            self._idle_to(next_time)
            return True

        budget = (next_time - clock._now
                  if next_time is not None else _IDLE_SLICE_NS)
        if budget <= 0:
            return True  # events due right now; drained next iteration
        kernel.engine.run(current, budget)
        checker = self.invariant_checker
        if checker is not None:
            checker.on_step()
        return True

    def _idle_to(self, target_ns: int) -> None:
        idle_ns = target_ns - self.clock._now
        self.clock.advance_to(target_ns)
        if self.invariant_checker is not None and idle_ns > 0:
            self.invariant_checker.on_idle_advance(idle_ns)

    # ------------------------------------------------------------------
    # the SMP loop (lockstep time slices on one virtual clock)
    # ------------------------------------------------------------------

    def _step_smp(self) -> bool:
        """One SMP slice: [now, next event).  Every CPU runs the same wall
        window "in parallel" — simulated serially by silently rewinding the
        clock to the slice start for each CPU, letting it consume (firing
        on_advance, so each CPU accounts its own capacity), then jumping
        the clock to the slice barrier without re-firing on_advance.
        Migrations and load balancing apply at the barrier only, so a task
        can never run on two CPUs inside one wall window.
        """
        if self.clock.now > self.cfg.max_time_ns:
            raise SimulationError(
                f"simulation exceeded max_time_ns at {self.clock.now}ns")
        # Due events (staggered per-CPU ticks, packets, disk completions)
        # bank-switch to their CPU and may consume handler time.
        self._drain_due_events()

        kernel = self.kernel
        checker = self.invariant_checker
        clock = self.clock
        t0 = clock.now
        next_time = self.events.next_time()
        any_ran = False
        end_max = t0
        for idx in range(self.cfg.nproc):
            kernel.set_active_cpu(idx)
            if checker is not None:
                checker.on_cpu_slice(idx, t0)
            clock._now = t0  # parallel slice start (silent rewind)
            end, ran = self._run_cpu_slice(t0, next_time)
            any_ran = any_ran or ran
            if end > end_max:
                end_max = end
        if next_time is not None and next_time > end_max:
            end_max = next_time
        if not any_ran and next_time is None:
            clock._now = end_max
            return False  # fully idle, nothing scheduled
        # Slice barrier: one silent jump — each CPU already fired
        # on_advance for its own share of the window.
        clock._now = end_max
        if checker is not None:
            checker.on_cpu_slice(kernel.cpu_index, end_max)
        kernel.flush_migrations()
        kernel.load_balance()
        return True

    def _run_cpu_slice(self, t0: int, next_time: Optional[int]):
        """Run the active CPU from ``t0`` up to ``next_time``; returns
        (local end time, whether any task executed)."""
        kernel = self.kernel
        checker = self.invariant_checker
        clock = self.clock
        ran = False
        spins = 0
        while True:
            current = kernel.current
            if (kernel.need_resched or current is None
                    or current.state is not TaskState.RUNNING):
                kernel.schedule()
                current = kernel.current
            now = clock.now
            if current is None:
                if next_time is None or next_time <= now:
                    return now, ran
                # Idle fill to the barrier, attributed to this CPU.
                self.clock.advance_to(next_time)
                if checker is not None:
                    checker.on_idle_advance(next_time - now)
                return next_time, ran
            limit = next_time if next_time is not None else t0 + _IDLE_SLICE_NS
            budget = limit - now
            if budget <= 0:
                return now, ran
            kernel.engine.run(current, budget)
            ran = True
            if checker is not None:
                checker.on_step()
            if clock.now == now:
                spins += 1
                if spins > 100_000:
                    raise SimulationError(
                        f"cpu{kernel.cpu_index} slice made no progress "
                        f"at {now}ns (pid "
                        f"{current.pid if current else None})")
            else:
                spins = 0

    def run_to_completion(self, max_ns: Optional[int] = None) -> None:
        """Run until no task is alive."""
        self.run_until(self.kernel.all_finished, max_ns=max_ns)
