"""The hypervisor: N guest machines multiplexed on one physical core.

Each :class:`VirtualMachine` wraps a full guest :class:`~repro.hw.machine.
Machine` (its own kernel, clock, timer, accounting) behind a single vCPU.
The :class:`Hypervisor` owns the *host* clock and time-slices the guests
onto it with a credit scheduler (:mod:`repro.virt.credit`), sampling its
own accounting tick to decide which vCPU to bill — the two-level analogue
of the kernel's tick-sampled process accounting.

Time model (all integer ns, exact by construction):

* **RUNNING** — the guest executes on the physical core; its clock
  advances 1:1 with the host clock (``ran_ns``).
* **BLOCKED** — the guest is idle (nothing runnable); its clock still
  advances 1:1 with host time (``idle_ns``), the way a halted CPU's
  wall clock keeps moving, and the vCPU wakes when its next guest event
  (timer tick, sleep expiry) comes due in host time.
* **RUNNABLE** — the guest wants the CPU but another vCPU holds it; its
  clock is *frozen* and the gap accrues as ``steal_ns``, injected into the
  guest's timekeeper like a paravirtual steal clock.

Hence per vCPU, exactly: ``ran_ns + idle_ns + steal_ns == host wall`` and
``guest_clock == ran_ns + idle_ns`` — the conservation law the virt
invariant checker (:class:`repro.verify.invariants.VirtInvariantChecker`)
holds every run to.  Composed with the guest kernel's own shadow ledger
(utime+stime+idle = guest clock) this closes the issue's law:
Σ guest (utime + stime + idle + steal) = host wall time, per vCPU.

Billing, by contrast, is deliberately *inexact* in the faithful way: the
hypervisor bills whole ticks to whichever vCPU its accounting tick samples
on the core (``billed_utime_ns``/``billed_stime_ns``, split by the sampled
guest CPU mode).  The gap between ``billed`` and ``ran`` is the metering
vulnerability the VM scheduling attack exploits.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import MachineConfig, default_config
from ..errors import SimulationError
from ..faults.plan import normalize_plan
from ..hw.cpu import CPUMode
from ..hw.machine import Machine
from ..sim.clock import Clock
from ..sim.runloop import RunLoop
from .credit import PRI_UNDER, CreditScheduler

#: Guest-side cost of a paravirtual call (vmcall + hypervisor dispatch).
_PV_CALL_CYCLES = 150


@dataclass(frozen=True)
class HypervisorConfig:
    """Host-side knobs.  ``tick_ns`` is the scheduler accounting tick that
    both bills and debits credits (Xen: 10 ms); ``slice_ns`` is the
    round-robin quantum (Xen: 30 ms)."""

    tick_ns: int = 10_000_000
    slice_ns: int = 30_000_000
    credits_per_tick: int = 100
    refill_every_ticks: int = 3
    credit_cap_ticks: int = 300
    boost: bool = True
    max_time_ns: int = 3_600 * 1_000_000_000

    def validate(self) -> None:
        if self.tick_ns <= 0:
            raise SimulationError("hypervisor tick_ns must be positive")
        if self.slice_ns <= 0:
            raise SimulationError("hypervisor slice_ns must be positive")


class VcpuState(enum.Enum):
    RUNNING = "running"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"


class VirtualMachine:
    """One guest machine behind one vCPU, plus its hypervisor-side ledger."""

    def __init__(self, name: str, machine: Machine, weight: int,
                 hypervisor: "Hypervisor") -> None:
        self.name = name
        self.machine = machine
        self.weight = int(weight)
        #: The host clock, not the hypervisor: the hypervisor owns its
        #: vCPUs, and a reference back would tie them into a cycle.
        self._host_clock = hypervisor.clock
        self.state = VcpuState.RUNNABLE
        #: Host time at which a BLOCKED vCPU's next guest event comes due.
        self.wake_host_ns: Optional[int] = None

        # Exact ledger (host ns), maintained by the hypervisor.
        self.ran_ns = 0
        self.idle_ns = 0
        self.steal_ns = 0
        self.attach_host_ns = hypervisor.clock.now
        self.attach_guest_ns = machine.clock.now
        #: Host/guest clock values at the last ledger sync point.
        self.last_sync_host_ns = hypervisor.clock.now
        self.last_sync_guest_ns = machine.clock.now

        # Tick-sampled billing (what the provider meters).
        self.billed_utime_ns = 0
        self.billed_stime_ns = 0
        self.sampled_ticks = 0
        self.preemptions = 0

        # Credit-scheduler fields (owned by CreditScheduler).
        self.credits = 0
        self.priority = PRI_UNDER
        self.queue_seq = 0

    # -- views --------------------------------------------------------------

    @property
    def guest_clock_ns(self) -> int:
        return self.machine.clock.now

    @property
    def billed_total_ns(self) -> int:
        return self.billed_utime_ns + self.billed_stime_ns

    def host_now_estimate(self) -> int:
        """Host time as seen from inside the guest (the virtualized TSC the
        paravirtual clock exposes).  Exact: while RUNNING, host and guest
        clocks advance in lockstep from the last sync point."""
        if self.state is VcpuState.RUNNING:
            return (self._host_clock.now
                    + (self.machine.clock.now - self.last_sync_guest_ns))
        return self._host_clock.now

    # -- execution ----------------------------------------------------------

    def run_slice(self, budget_ns: int) -> "tuple[int, bool]":
        """Run the guest for at most ``budget_ns`` (guest ns == host ns)
        through its own uniprocessor :meth:`Machine.step
        <repro.hw.machine.Machine.step>`.

        Returns ``(consumed_ns, idled)``; ``idled`` means the guest went
        fully idle (halted) before the budget ran out, handing the core
        back to the hypervisor.  Consumption may overshoot the budget by
        the guest work due when a step starts (an interrupt handler, the
        context switch it asks for); the engine itself stops exactly at
        the boundary.
        """
        machine = self.machine
        clock = machine.clock
        start = clock._now
        deadline = start + budget_ns
        while clock._now < deadline:
            if not machine.step(deadline):
                return clock._now - start, True
        return clock._now - start, False

    def __repr__(self) -> str:
        return (f"VirtualMachine({self.name!r}, {self.state.value}, "
                f"ran={self.ran_ns}ns steal={self.steal_ns}ns)")


class Hypervisor(RunLoop):
    """Multiplexes VirtualMachines on one simulated physical core."""

    def __init__(self, cfg: Optional[HypervisorConfig] = None,
                 invariants=None, faults=None) -> None:
        """``invariants`` mirrors ``Machine(invariants=...)``: False/None
        (off), True (raise on first violation), ``"collect"``, or a
        pre-built :class:`~repro.verify.invariants.VirtInvariantChecker`.
        When enabled, every guest machine gets its own kernel-level checker
        too, so the composed conservation law is closed end to end.

        ``faults`` (a :class:`~repro.faults.FaultPlan` or mapping) applies
        only its hypervisor-level fault here — the lying steal clock
        (``steal_lie_factor``): the paravirtual steal value injected into
        guests is scaled while the host-side ledger keeps the truth.  Guest
        machines stay fault-free; tick/TSC faults belong to bare-metal
        runs."""
        self.cfg = cfg or HypervisorConfig()
        self.cfg.validate()
        self.fault_plan = normalize_plan(faults)
        self._steal_lie = (self.fault_plan.steal_lie_factor
                           if self.fault_plan is not None else 1.0)
        #: Net ns of steal-report distortion (injected minus true).
        self.steal_lie_ns = 0
        self.clock = Clock()
        self.scheduler = CreditScheduler(
            credits_per_tick=self.cfg.credits_per_tick,
            refill_every_ticks=self.cfg.refill_every_ticks,
            credit_cap_ticks=self.cfg.credit_cap_ticks,
            boost=self.cfg.boost)
        self.vms: List[VirtualMachine] = []
        self.current: Optional[VirtualMachine] = None
        self.need_resched = False
        self.ticks = 0
        self.idle_ticks = 0
        self.host_idle_ns = 0
        self.vcpu_switches = 0
        self._next_tick_ns = self.cfg.tick_ns
        self._slice_end_ns = 0
        self._guest_invariants = bool(invariants)
        tolerated = (self.fault_plan.tolerated_categories()
                     if self.fault_plan is not None else ())
        self.invariant_checker = None
        if invariants:
            from ..verify.invariants import VirtInvariantChecker

            self.invariant_checker = VirtInvariantChecker.resolve(
                invariants, tolerated)
        if self.invariant_checker is not None:
            self.invariant_checker.attach(self)

    def check_invariants(self) -> None:
        """Run a full virt-ledger sweep now (no-op when checking is off)."""
        if self.invariant_checker is not None:
            self.invariant_checker.check_full()

    def close(self) -> None:
        """End the run: close every guest machine
        (:meth:`Machine.close <repro.hw.machine.Machine.close>`) and
        unhook the checker, so reference counting frees the hypervisor
        and its guests once the owner lets go.  Ledgers stay readable."""
        for vm in self.vms:
            vm.machine.close()
        if self.invariant_checker is not None:
            self.invariant_checker.detach()

    # -- VM lifecycle --------------------------------------------------------

    def create_vm(self, name: str, cfg: Optional[MachineConfig] = None,
                  weight: int = 256) -> VirtualMachine:
        """Boot a guest machine and attach it as a vCPU.  A vCPU is one
        CPU: the guest runs through the uniprocessor loop, so a config with
        ``nproc > 1`` is refused rather than run on its CPU 0 alone."""
        if any(vm.name == name for vm in self.vms):
            raise SimulationError(f"vm name {name!r} already in use")
        cfg = cfg or default_config()
        if cfg.nproc != 1:
            raise SimulationError(
                f"a vCPU is one CPU: guest {name!r} asks for "
                f"nproc={cfg.nproc}")
        machine = Machine(cfg, invariants=self._guest_invariants)
        vm = VirtualMachine(name, machine, weight, self)
        self.scheduler.register(vm)
        self._install_pv_interface(vm)
        self.vms.append(vm)
        if self.invariant_checker is not None:
            self.invariant_checker.on_vm_created(vm)
        return vm

    def vm(self, name: str) -> VirtualMachine:
        for vm in self.vms:
            if vm.name == name:
                return vm
        raise KeyError(f"no such vm {name!r}")

    def _install_pv_interface(self, vm: VirtualMachine) -> None:
        """Register the paravirtual calls a guest uses to see through its
        own (steal-frozen) clock: the host-backed time source and the
        hypervisor-reported steal counter.  The guest's syscall table
        holds these, so they hold the vCPU weakly and the guest's
        timekeeper, never the guest machine itself."""
        vm_ref = weakref.ref(vm)
        timekeeper = vm.machine.kernel.timekeeper

        def sys_pv_host_time(kernel, task):
            return vm_ref().host_now_estimate()

        def sys_pv_steal(kernel, task):
            # The guest-visible steal counter: identical to the host ledger
            # unless the steal clock is lying (fault layer).
            return timekeeper.steal_ns

        table = vm.machine.kernel.syscalls
        table.register("pv_host_time", _PV_CALL_CYCLES, sys_pv_host_time)
        table.register("pv_steal", _PV_CALL_CYCLES, sys_pv_steal)

    # -- ledger maintenance --------------------------------------------------

    def _sync_vm(self, vm: VirtualMachine) -> None:
        """Bring a non-RUNNING vCPU's ledger up to host-now: RUNNABLE time
        is steal, BLOCKED time is guest idle (clock catches up 1:1)."""
        now = self.clock.now
        delta = now - vm.last_sync_host_ns
        if delta <= 0:
            return
        if vm.state is VcpuState.RUNNABLE:
            vm.steal_ns += delta
            # The paravirtual steal clock may lie (fault layer): the guest
            # sees the scaled value while the host-side ledger — and every
            # conservation law built on it — keeps the truth.
            reported = delta if self._steal_lie == 1.0 \
                else int(delta * self._steal_lie)
            vm.machine.kernel.timekeeper.account_steal(reported)
            self.steal_lie_ns += reported - delta
            if self.invariant_checker is not None:
                self.invariant_checker.on_steal(vm, delta)
        elif vm.state is VcpuState.BLOCKED:
            vm.idle_ns += delta
            target = vm.last_sync_guest_ns + delta
            vm.machine.clock.advance_to(target)
            vm.last_sync_guest_ns = target
            checker = vm.machine.invariant_checker
            if checker is not None:
                checker.on_idle_advance(delta)
            if self.invariant_checker is not None:
                self.invariant_checker.on_guest_idle(vm, delta)
        vm.last_sync_host_ns = now

    def sync_ledgers(self) -> None:
        """Sync every descheduled vCPU's ledger to host-now (the RUNNING
        one is synced at every slice boundary already)."""
        for vm in self.vms:
            if vm.state is not VcpuState.RUNNING:
                self._sync_vm(vm)

    # -- scheduling ----------------------------------------------------------

    def _earliest_wake(self) -> Optional[int]:
        wake = None
        for vm in self.vms:
            if vm.state is VcpuState.BLOCKED and vm.wake_host_ns is not None:
                if wake is None or vm.wake_host_ns < wake:
                    wake = vm.wake_host_ns
        return wake

    def _wake_vm(self, vm: VirtualMachine) -> None:
        self._sync_vm(vm)  # attribute the blocked gap as guest idle
        vm.state = VcpuState.RUNNABLE
        vm.wake_host_ns = None
        self.scheduler.on_wake(vm)
        if (self.current is not None
                and self.scheduler.check_preempt(self.current, vm)):
            self.current.preemptions += 1
            self.need_resched = True

    def _block_vm(self, vm: VirtualMachine) -> None:
        """The guest halted: park the vCPU until its next event is due."""
        next_event = vm.machine.events.next_time()
        vm.state = VcpuState.BLOCKED
        if next_event is None:
            vm.wake_host_ns = None  # parked forever (guest timer stopped)
        else:
            vm.wake_host_ns = (self.clock.now
                               + (next_event - vm.machine.clock.now))
        if self.current is vm:
            self.current = None
            self.need_resched = True

    def _reschedule(self) -> None:
        prev = self.current
        if prev is not None:
            # Xen semantics: the descheduled vCPU goes to the *tail* of its
            # priority class, so equal-priority vCPUs round-robin.
            self.scheduler.requeue(prev)
        candidates = [vm for vm in self.vms
                      if vm.state in (VcpuState.RUNNABLE, VcpuState.RUNNING)]
        nxt = self.scheduler.pick_next(candidates)
        self.need_resched = False
        if nxt is prev:
            if prev is not None:
                self._slice_end_ns = self.clock.now + self.cfg.slice_ns
            return
        if prev is not None:
            prev.state = VcpuState.RUNNABLE
        if nxt is not None:
            self._sync_vm(nxt)  # accrue the runnable wait as steal
            nxt.state = VcpuState.RUNNING
            self._slice_end_ns = self.clock.now + self.cfg.slice_ns
            self.vcpu_switches += 1
        self.current = nxt

    # -- the accounting tick ---------------------------------------------------

    def _account_tick(self) -> None:
        """One hypervisor accounting tick: bill a whole tick to whichever
        vCPU is sampled on the core (utime/stime split by the sampled guest
        CPU mode) and run the credit debit/refill."""
        self.ticks += 1
        cur = self.current
        self.scheduler.charge_tick(cur, self.vms)
        if cur is None:
            self.idle_ticks += 1
        else:
            guest_kernel = cur.machine.kernel
            user = (guest_kernel.current is not None
                    and guest_kernel.cpu.mode is CPUMode.USER)
            if user:
                cur.billed_utime_ns += self.cfg.tick_ns
            else:
                cur.billed_stime_ns += self.cfg.tick_ns
            cur.sampled_ticks += 1
        self._next_tick_ns += self.cfg.tick_ns
        if self.invariant_checker is not None:
            self.invariant_checker.on_tick()

    # -- the main loop ---------------------------------------------------------

    def step(self) -> bool:
        """One hypervisor loop iteration.  Returns False when no vCPU can
        ever progress again."""
        now = self.clock.now
        if now > self.cfg.max_time_ns:
            raise SimulationError(
                f"hypervisor exceeded max_time_ns at {now}ns")

        for vm in self.vms:
            if (vm.state is VcpuState.BLOCKED and vm.wake_host_ns is not None
                    and vm.wake_host_ns <= now):
                self._wake_vm(vm)
        while now >= self._next_tick_ns:
            self._account_tick()
        if (self.current is not None and now >= self._slice_end_ns):
            self.need_resched = True
        if self.need_resched or self.current is None:
            self._reschedule()

        cur = self.current
        if cur is None:
            wake = self._earliest_wake()
            if wake is None:
                return False  # every guest parked forever
            self._idle_to(min(wake, self._next_tick_ns))
            return True

        stop = min(self._next_tick_ns, self._slice_end_ns)
        wake = self._earliest_wake()
        if wake is not None and wake < stop:
            stop = wake
        budget = stop - now
        consumed, idled = cur.run_slice(budget)
        self.clock.advance(consumed)
        cur.ran_ns += consumed
        cur.last_sync_host_ns = self.clock.now
        cur.last_sync_guest_ns = cur.machine.clock.now
        if self.invariant_checker is not None:
            self.invariant_checker.on_run(cur, consumed)
        if idled:
            self._block_vm(cur)
        return True

    def _idle_to(self, target_ns: int) -> None:
        """No vCPU runs until host time ``target_ns``: the core idles."""
        idle = target_ns - self.clock.now
        self.clock.advance_to(target_ns)
        self.host_idle_ns += idle
        if self.invariant_checker is not None and idle > 0:
            self.invariant_checker.on_host_idle(idle)

    def _run_ended(self) -> None:
        """A run ends with every vCPU ledger synced to host-now."""
        self.sync_ledgers()

    # -- reporting ---------------------------------------------------------------

    def ledger(self, vm: VirtualMachine) -> Dict[str, int]:
        """The vCPU's exact + billed ledger (sync first for fresh numbers)."""
        self.sync_ledgers()
        return {
            "ran_ns": vm.ran_ns,
            "idle_ns": vm.idle_ns,
            "steal_ns": vm.steal_ns,
            "host_wall_ns": self.clock.now - vm.attach_host_ns,
            "billed_utime_ns": vm.billed_utime_ns,
            "billed_stime_ns": vm.billed_stime_ns,
            "sampled_ticks": vm.sampled_ticks,
        }

    def summary(self) -> str:
        self.sync_ledgers()
        lines = [f"host {self.clock.now / 1e9:9.3f}s  ticks={self.ticks} "
                 f"switches={self.vcpu_switches} "
                 f"idle={self.host_idle_ns / 1e9:.3f}s",
                 f"{'vm':<12} {'state':<9} {'ran':>9} {'steal':>9} "
                 f"{'idle':>9} {'billed':>9} {'ticks':>6}"]
        for vm in self.vms:
            lines.append(
                f"{vm.name:<12} {vm.state.value:<9} "
                f"{vm.ran_ns / 1e9:>8.3f}s {vm.steal_ns / 1e9:>8.3f}s "
                f"{vm.idle_ns / 1e9:>8.3f}s "
                f"{vm.billed_total_ns / 1e9:>8.3f}s {vm.sampled_ticks:>6}")
        return "\n".join(lines)
