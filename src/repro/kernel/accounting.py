"""CPU-time accounting schemes.

The paper's §III-A describes the commodity scheme: at every timer interrupt
the kernel charges one whole jiffy to whatever task is *currently running*,
to ``utime`` or ``stime`` depending on the interrupted CPU mode.  That
sampling design is exactly what the process-scheduling attack exploits, and
charge-to-current interrupt billing is what the interrupt-flooding attack
exploits.

The paper's §VI-B proposes fine-grained metering: TSC-based exact charging
(:class:`TscAccounting`) and process-aware interrupt accounting (Zhang &
West [27]), which bills interrupt-handler time to a system account instead
of the interrupted task.  Both are implemented here so the defense ablation
can run every attack under every scheme.

All schemes expose the same two entry points:

* :meth:`AccountingScheme.charge` — exact attribution of a slice of time,
  called by the kernel for every consumed slice; the tick scheme keeps only
  interrupt time and declares so (``charges_work``), and the kernel then
  calls it for interrupt slices alone;
* :meth:`AccountingScheme.on_tick` — the timer-interrupt sampling hook.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..config import MachineConfig
from ..errors import ConfigError
from ..hw.cpu import CPUMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .process import Task


class ChargeKind(enum.Enum):
    """What a charged slice of time was spent on."""

    #: Identity hash (a C-level slot) — members are singletons, and the
    #: charge path keys per-kind dicts on them millions of times per run.
    __hash__ = object.__hash__

    #: User-mode execution (program, library or injected code).
    USER = "user"
    #: Kernel service on behalf of the task (syscalls, faults, signals).
    SYSCALL = "syscall"
    #: Interrupt-handler execution (may be unrelated to the task).
    IRQ = "irq"
    #: Context-switch/scheduler overhead.
    SWITCH = "switch"


@dataclass
class CpuUsage:
    """What ``getrusage`` reports for one task under a given scheme."""

    utime_ns: int = 0
    stime_ns: int = 0

    @property
    def total_ns(self) -> int:
        return self.utime_ns + self.stime_ns

    @property
    def utime_seconds(self) -> float:
        return self.utime_ns / 1e9

    @property
    def stime_seconds(self) -> float:
        return self.stime_ns / 1e9

    @property
    def total_seconds(self) -> float:
        return self.total_ns / 1e9

    def __add__(self, other: "CpuUsage") -> "CpuUsage":
        return CpuUsage(self.utime_ns + other.utime_ns,
                        self.stime_ns + other.stime_ns)


class AccountingScheme:
    """Interface shared by all accounting schemes."""

    name = "abstract"
    #: True when ``usage`` is derived purely from jiffy sampling, so the
    #: tick identity (billed == per-mode ticks x jiffy, minus diversions)
    #: must hold exactly.  Consumed by the invariant checker.
    tick_sampled = False
    #: True when ``system_ns`` is a tick-resolution approximation (clamped
    #: per jiffy) rather than the exact sum of diverted IRQ nanoseconds.
    tick_sampled_system = False
    #: False when :meth:`charge` records interrupt time only, so the kernel
    #: does not call it for work and context-switch slices.
    charges_work = True

    def __init__(self, tick_ns: int, process_aware_irq: bool = False) -> None:
        self.tick_ns = tick_ns
        self.process_aware_irq = process_aware_irq
        #: Time the scheme diverted to the "system" account instead of any
        #: task (only non-zero with process-aware interrupt accounting).
        self.system_ns = 0
        #: Ticks that fired while the CPU was idle.
        self.idle_ticks = 0

    def charge(self, task: Optional["Task"], mode: CPUMode, ns: int,
               kind: ChargeKind, cpu: int = 0) -> None:
        """Attribute ``ns`` of ``kind`` time to ``task``.

        A scheme with ``charges_work = False`` is called for
        :attr:`ChargeKind.IRQ` slices only, so its ``charge`` must ignore
        every other kind; a subclass whose ``charge`` records work must set
        ``charges_work = True`` again, or its work charges never arrive.
        """
        raise NotImplementedError

    def on_tick(self, task: Optional["Task"], mode: CPUMode,
                cpu: int = 0) -> None:
        raise NotImplementedError

    def usage(self, task: "Task") -> CpuUsage:
        """The scheme's billing view of ``task`` (what getrusage returns)."""
        raise NotImplementedError

    def audit_view(self, task: "Task") -> Optional[CpuUsage]:
        """The scheme's nanosecond-exact per-task view, when it keeps one.

        The invariant checker compares this against its own shadow ledger.
        Tick sampling keeps no exact view, hence the None default.
        """
        return None

    def billing_gap_ns(self, tasks, busy_ticks: int) -> Optional[int]:
        """Global conservation gap of the billing view, in nanoseconds.

        Zero when the books balance; None when the scheme has no
        closed-form identity (TSC charging is checked per-task via
        :meth:`audit_view` instead).  ``busy_ticks`` is the number of
        jiffies that sampled a running task.
        """
        return None


class TickAccounting(AccountingScheme):
    """The commodity scheme: one whole jiffy to the current task per tick.

    With ``process_aware_irq`` enabled, interrupt-handler time observed
    since the previous tick is deducted from the jiffy and moved to the
    system account — a tick-resolution approximation of Zhang & West's
    process-aware accounting, kept so the defense can be evaluated without
    switching to TSC charging.
    """

    name = "tick"
    tick_sampled = True
    tick_sampled_system = True
    charges_work = False

    def __init__(self, tick_ns: int, process_aware_irq: bool = False) -> None:
        super().__init__(tick_ns, process_aware_irq)
        #: IRQ-handler ns observed since the previous tick, per CPU: each
        #: CPU's tick only deducts interrupt time that ran on that CPU
        #: (on a uniprocessor this collapses to one key, 0).
        self._irq_ns_since_tick: Dict[int, int] = {}
        #: System-account time diverted on *idle* jiffies.  Idle jiffies
        #: hand out nothing, so this portion of ``system_ns`` sits outside
        #: the busy-tick identity and is subtracted in billing_gap_ns.
        self.idle_diverted_ns = 0

    def charge(self, task: Optional["Task"], mode: CPUMode, ns: int,
               kind: ChargeKind, cpu: int = 0) -> None:
        if kind is ChargeKind.IRQ:
            window = self._irq_ns_since_tick
            window[cpu] = window.get(cpu, 0) + ns

    def on_tick(self, task: Optional["Task"], mode: CPUMode,
                cpu: int = 0) -> None:
        irq_ns = min(self._irq_ns_since_tick.pop(cpu, 0), self.tick_ns)
        if task is None:
            self.idle_ticks += 1
            if self.process_aware_irq and irq_ns:
                # Interrupt time observed during an idle jiffy used to be
                # discarded here (the window was zeroed above before this
                # early return); process-aware accounting must still move
                # it to the system account.
                self.system_ns += irq_ns
                self.idle_diverted_ns += irq_ns
            return
        jiffy = self.tick_ns
        if self.process_aware_irq and irq_ns:
            self.system_ns += irq_ns
            jiffy -= irq_ns
        if mode is CPUMode.USER:
            task.acct_utime_ns += jiffy
        else:
            task.acct_stime_ns += jiffy
        task.acct_ticks += 1

    def usage(self, task: "Task") -> CpuUsage:
        return CpuUsage(task.acct_utime_ns, task.acct_stime_ns)

    def billing_gap_ns(self, tasks, busy_ticks: int) -> int:
        # Every busy jiffy hands out exactly tick_ns, split between the
        # sampled task and (with process-aware IRQ) the system account.
        # Idle-jiffy diversions also land in system_ns but are not backed
        # by a busy tick, hence the idle_diverted_ns correction.
        billed = sum(t.acct_utime_ns + t.acct_stime_ns for t in tasks)
        return (billed + self.system_ns - self.idle_diverted_ns
                - busy_ticks * self.tick_ns)


class TscAccounting(AccountingScheme):
    """Fine-grained metering: exact TSC-derived charging at every boundary.

    Every consumed slice is attributed at nanosecond resolution.  With
    ``process_aware_irq``, interrupt-handler slices go to the system account
    rather than to the task that happened to be running — together these
    neutralise the scheduling and interrupt-flooding attacks (paper §VI-B).
    Ticks still fire but carry no accounting weight.
    """

    name = "tsc"

    def charge(self, task: Optional["Task"], mode: CPUMode, ns: int,
               kind: ChargeKind, cpu: int = 0) -> None:
        # The IRQ diversion must come before the idle check: interrupt
        # time exists whether or not a task was running, and returning on
        # ``task is None`` first would silently drop idle-period IRQ time
        # from the system account.
        if kind is ChargeKind.IRQ and self.process_aware_irq:
            self.system_ns += ns
            return
        if task is None:
            return
        if mode is CPUMode.USER:
            task.acct_utime_ns += ns
        else:
            task.acct_stime_ns += ns

    def on_tick(self, task: Optional["Task"], mode: CPUMode,
                cpu: int = 0) -> None:
        if task is None:
            self.idle_ticks += 1
            return
        task.acct_ticks += 1

    def usage(self, task: "Task") -> CpuUsage:
        return CpuUsage(task.acct_utime_ns, task.acct_stime_ns)

    def audit_view(self, task: "Task") -> CpuUsage:
        # TSC billing *is* the precise view.
        return self.usage(task)


class DualAccounting(AccountingScheme):
    """Bill by ticks, audit by TSC.

    The deployment path §VI-B implies: a provider cannot switch billing
    overnight, but it *can* run fine-grained measurement alongside the
    legacy tick scheme and flag divergence.  ``usage`` reports the legacy
    (billable) view; :meth:`audit_usage` reports the precise view; and
    :meth:`divergence_ns` is the per-task evidence of misattribution —
    large positive divergence on a victim is the fingerprint of the
    scheduling attack.

    Per-task precise values are kept in a side table (``task`` fields hold
    the billing view, as they do on a real kernel).
    """

    name = "dual"
    tick_sampled = True

    def __init__(self, tick_ns: int, process_aware_irq: bool = False) -> None:
        super().__init__(tick_ns, process_aware_irq)
        self._tick = TickAccounting(tick_ns, process_aware_irq)
        self._precise: Dict[int, CpuUsage] = {}

    def charge(self, task, mode: CPUMode, ns: int, kind: ChargeKind,
               cpu: int = 0) -> None:
        self._tick.charge(task, mode, ns, kind, cpu)
        # As in TscAccounting: divert IRQ time before the idle check, so
        # interrupt work during idle periods still reaches the audit-side
        # system account.
        if kind is ChargeKind.IRQ and self.process_aware_irq:
            self.system_ns += ns
            return
        if task is None:
            return
        side = self._precise.setdefault(task.pid, CpuUsage())
        if mode is CPUMode.USER:
            side.utime_ns += ns
        else:
            side.stime_ns += ns

    def on_tick(self, task, mode: CPUMode, cpu: int = 0) -> None:
        self._tick.on_tick(task, mode, cpu)
        if task is None:
            self.idle_ticks += 1

    @property
    def tick_view(self) -> TickAccounting:
        """The inner legacy (billable) scheme — exposed for checkers and
        tests that need its idle-diversion bookkeeping."""
        return self._tick

    def usage(self, task) -> CpuUsage:
        return self._tick.usage(task)

    def audit_usage(self, task) -> CpuUsage:
        side = self._precise.get(task.pid)
        return CpuUsage(side.utime_ns, side.stime_ns) if side else CpuUsage()

    def audit_view(self, task) -> CpuUsage:
        return self.audit_usage(task)

    def billing_gap_ns(self, tasks, busy_ticks: int) -> int:
        # The billable view follows the legacy tick identity (with the
        # inner scheme's own tick-resolution system account).
        return self._tick.billing_gap_ns(tasks, busy_ticks)

    def divergence_ns(self, task) -> int:
        """Billed minus precise: positive = the task is overbilled."""
        return self.usage(task).total_ns - self.audit_usage(task).total_ns


def make_accounting(cfg: MachineConfig) -> AccountingScheme:
    """Instantiate the scheme selected by ``cfg.accounting``."""
    if cfg.accounting == "tick":
        return TickAccounting(cfg.tick_ns, cfg.process_aware_irq_accounting)
    if cfg.accounting == "tsc":
        return TscAccounting(cfg.tick_ns, cfg.process_aware_irq_accounting)
    if cfg.accounting == "dual":
        return DualAccounting(cfg.tick_ns, cfg.process_aware_irq_accounting)
    raise ConfigError(f"unknown accounting scheme {cfg.accounting!r}")
