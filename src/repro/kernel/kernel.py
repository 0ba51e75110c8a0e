"""The kernel facade: task lifecycle, scheduling glue, signals, IRQs, OOM.

Owns every cross-cutting operation the engine, syscalls and machine loop
need.  The accounting-relevant paths are deliberately explicit:

* :meth:`consume` — every slice of executed work lands here once, with its
  mode, provenance and charge kind (billing scheme + ground-truth oracle);
* :meth:`_timer_irq` — the per-jiffy sampling point (paper §III-A);
* :meth:`context switch <schedule>` — switch cost charged to prev or next
  per configuration;
* interrupt handlers — handler time charged to whoever is running.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..config import MachineConfig
from ..errors import SimulationError
from ..hw.cpu import CPU, CPUMode, DebugRegisters
from ..hw.disk import Disk
from ..hw.irq import IRQ_DISK, IRQ_NIC, IRQ_TIMER, InterruptController
from ..hw.nic import NetworkCard
from ..programs.base import GuestContext, GuestFunction, Program
from ..programs.ops import Invoke, Provenance, Syscall
from ..sim.clock import Clock
from ..sim.events import EventQueue
from ..sim.rng import DeterministicRng
from ..sim.tracing import HW_FAULT_CATEGORY, TraceLog
from .accounting import AccountingScheme, ChargeKind, CpuUsage, make_accounting
from .engine import ExecState, ExecutionEngine, Frame, Segment, SyscallFrame
from .loader.linker import LinkMap, build_link_map, process_body
from .loader.registry import LibraryRegistry
from .mm.manager import MemoryManager
from .mm.vm import DATA_BASE
from .process import Task, TaskState
from .sched import make_scheduler
from .signals import (
    SIGCHLD,
    SIGCONT,
    SIGKILL,
    SIGSTOP,
    SIGTRAP,
    SignalAction,
    default_action,
    signal_name,
)
from .syscalls import SyscallTable
from .timekeeping import TimeKeeper

#: Sentinel distinguishing "no wake arrived while stopped" from payload None.
_NO_WAKE = object()

#: Hoisted enum members: reading a member off its Enum class costs about
#: 0.1 µs on CPython 3.11, and the charge, switch, fork, signal and tick
#: paths would otherwise pay that on every read.
_MODE_USER = CPUMode.USER
_MODE_KERNEL = CPUMode.KERNEL
_KIND_SWITCH = ChargeKind.SWITCH
_KIND_SYSCALL = ChargeKind.SYSCALL
_KIND_IRQ = ChargeKind.IRQ
_PROV_USER = Provenance.USER
_PROV_SYSTEM = Provenance.SYSTEM
_PROV_TRACER = Provenance.TRACER
_PROV_IRQ = Provenance.IRQ
#: Oracle key of context-switch overhead (kernel mode, system provenance).
_KEY_SWITCH = (False, _PROV_SYSTEM)
#: Hoisted task states: the switch, wake, signal and exit paths compare
#: against these instead of reading the ``Task.alive`` property.
_RUNNING = TaskState.RUNNING
_READY = TaskState.READY
_WAITING = TaskState.WAITING
_STOPPED = TaskState.STOPPED
_ZOMBIE = TaskState.ZOMBIE
_DEAD = TaskState.DEAD
_IGNORE = SignalAction.IGNORE
_TERMINATE = SignalAction.TERMINATE
_STOP = SignalAction.STOP
_TRAP = SignalAction.TRAP
_CONTINUE = SignalAction.CONTINUE

#: ``default_action`` is pure, and the signal-post and delivery paths of
#: both attack round trips resolve one: a memo answers without running it.
_default_action = lru_cache(maxsize=None)(default_action)


class CpuContext:
    """Saved per-CPU kernel state (one register bank per CPU).

    ``Kernel.current``/``need_resched``/``scheduler``/``cpu`` always describe
    the *active* CPU; :meth:`Kernel.set_active_cpu` swaps them through these
    banks.  Every machine has one bank per CPU, a uniprocessor included: its
    single bank is always active, so no switch ever happens there.  The
    scheduler and CPU references are fixed at boot; only the mutable fields
    are written back on a switch.
    """

    __slots__ = ("index", "cpu", "scheduler", "current",
                 "need_resched", "irq_window", "tick_offset_ns")

    def __init__(self, index, cpu, scheduler, tick_offset_ns):
        self.index = index
        self.cpu = cpu
        self.scheduler = scheduler
        self.current = None
        self.need_resched = False
        self.irq_window = (0, 0)
        self.tick_offset_ns = tick_offset_ns


def _close_frames(frames) -> None:
    """Close and drop every frame generator.

    A syscall frame between phases has no generator.  A generator that is
    *currently executing* cannot be closed from within itself; it is simply
    dropped — the engine never resumes a frame once the stack is cleared,
    and GC finalises it.
    """
    for frame in frames:
        gen = frame.gen
        if gen is not None and not getattr(gen, "gi_running", False):
            gen.close()
    frames.clear()


def _post_message(sig: int) -> str:
    return f"post {signal_name(sig)}"


def _stop_message(sig: int) -> str:
    return f"stopped by {signal_name(sig)}"


def _exit_message(code: int, signal: Optional[int]) -> str:
    if signal:
        return f"exit code={code} signal={signal_name(signal)}"
    return f"exit code={code}"


class _GuestRngStreams:
    """One process's ``GuestContext.rng`` factory: streams named
    ``guest:<pid>:<name>``.  A slotted callable, where a closure would
    cost a function, two cells and a tuple per task."""

    __slots__ = ("rng", "pid")

    def __init__(self, rng: DeterministicRng, pid: int) -> None:
        self.rng = rng
        self.pid = pid

    def __call__(self, name: str):
        return self.rng.stream(f"guest:{self.pid}:{name}")


class Kernel:
    """The simulated operating system."""

    def __init__(self, cfg: MachineConfig, clock: Clock, events: EventQueue,
                 cpu: CPU, pic: InterruptController, disk: Disk,
                 nic: NetworkCard, rng: DeterministicRng,
                 trace_log: TraceLog) -> None:
        self.cfg = cfg
        self.costs = cfg.costs
        self.clock = clock
        self.events = events
        self.cpu = cpu
        self.pic = pic
        self.disk = disk
        self.nic = nic
        self.rng = rng
        self.trace_log = trace_log

        self.accounting: AccountingScheme = make_accounting(cfg)
        self.scheduler = make_scheduler(cfg)
        self.mm = MemoryManager(cfg.memory)
        self.libraries = LibraryRegistry()
        self.syscalls = SyscallTable(self)
        self.engine = ExecutionEngine(self)
        self.timekeeper = TimeKeeper(cfg.tick_ns, cfg.nproc)

        self.tasks: Dict[int, Task] = {}
        self._next_pid = 1
        self.current: Optional[Task] = None
        self.need_resched = False

        #: Per-CPU state.  ``current``/``need_resched``/``scheduler``/``cpu``
        #: above are the *active* CPU's bank; set_active_cpu swaps them.
        self.nproc = cfg.nproc
        self.cpu_index = 0
        self._active_tick_offset = 0
        self._cpu_contexts: List[CpuContext] = []
        #: READY tasks in flight to another CPU's run queue (IPI-deferred:
        #: applied at the machine's slice barrier, never mid-slice).
        self._pending_migrations: List[Tuple[Task, int]] = []
        #: Tasks moved by the load balancer over the run's lifetime.
        self.balance_moves = 0
        #: Optional runtime invariant checker (see repro.verify); attached
        #: by the machine when invariant checking is enabled.
        self.invariants = None
        #: Optional clocksource watchdog (see repro.kernel.timekeeping);
        #: attached by the machine when a fault plan enables it.  Its
        #: presence also turns on lost-tick compensation in _timer_irq.
        self.watchdog = None
        #: Optional stale-/proc cache fault (see repro.faults), consulted
        #: by repro.kernel.procfs read paths.
        self.procfs_fault = None
        #: LSM-style policy: may non-root users ptrace their own processes?
        self.policy_allow_user_ptrace = True

        #: Wait queues: channel → tasks parked on it.
        self._wait_queues: Dict[str, List[Task]] = {}

        #: Handler-time ns that fired while the CPU was idle.
        self.idle_irq_ns = 0
        self.context_switches = 0
        #: Window [start, end) of the most recent interrupt handler, used to
        #: sample deferred ticks as system time (see _timer_irq).
        self._irq_window = (0, 0)

        #: Hot-path precomputation: the context-switch charge is the same
        #: pair of numbers each time.
        self._switch_cycles = (self.costs.context_switch_cycles
                               + self.costs.schedule_pick_cycles)
        self._switch_ns = cpu.cycles_to_ns(self._switch_cycles)
        self._charge_switch_to_prev = self.cfg.charge_switch_to == "prev"
        #: The debug register file the CPU holds while idle.
        self._idle_debug = DebugRegisters()

        pic.register(IRQ_NIC, self._nic_irq)
        pic.register(IRQ_DISK, self._disk_irq)

    def close(self) -> None:
        """Drop the kernel's back-edges when its run is over: the engine's
        and the checker's references to the kernel, and the IRQ handlers
        the kernel lent the PIC.  Called by :meth:`Machine.close
        <repro.hw.machine.Machine.close>`."""
        self.engine.kernel = None
        self.pic.unregister(IRQ_NIC)
        self.pic.unregister(IRQ_DISK)
        if self.invariants is not None:
            self.invariants.detach()

    # ------------------------------------------------------------------
    # per-CPU banks, migration, load balancing
    # ------------------------------------------------------------------

    def init_smp(self, cpus: List[CPU], timers) -> None:
        """Wire one context per CPU (called by the machine at boot).

        CPU 0 keeps the kernel's boot-time scheduler and CPU objects so the
        active bank is context 0's from the start; the other CPUs get their
        own run queue each.
        """
        self._cpu_contexts = [
            CpuContext(i, cpus[i],
                       self.scheduler if i == 0 else make_scheduler(self.cfg),
                       timers[i].offset_ns)
            for i in range(self.nproc)]

    def set_active_cpu(self, index: int) -> None:
        """Bank-switch the kernel onto CPU ``index``."""
        if index == self.cpu_index:
            return
        old = self._cpu_contexts[self.cpu_index]
        old.current = self.current
        old.need_resched = self.need_resched
        old.irq_window = self._irq_window
        new = self._cpu_contexts[index]
        self.cpu_index = index
        self.cpu = new.cpu
        self.scheduler = new.scheduler
        self.current = new.current
        self.need_resched = new.need_resched
        self._irq_window = new.irq_window
        self._active_tick_offset = new.tick_offset_ns

    def timer_interrupt(self, cpu_index: int) -> None:
        """Per-CPU local-timer entry point: each CPU's staggered
        TimerDevice calls this (local-APIC style) instead of raising IRQ 0
        on the shared PIC."""
        self.set_active_cpu(cpu_index)
        self.pic.counts[IRQ_TIMER] = self.pic.counts.get(IRQ_TIMER, 0) + 1
        self._timer_irq(IRQ_TIMER)

    def per_cpu_state(self) -> List[Tuple["CpuContext", Optional[Task]]]:
        """(context, current) per CPU with the active bank synced — for the
        invariant checker and the load balancer."""
        return [(ctx, self.current if ctx.index == self.cpu_index
                 else ctx.current)
                for ctx in self._cpu_contexts]

    def migrate_current(self, target: int) -> int:
        """sched_setaffinity-style self-migration of the current task.

        Pins the task to ``target`` and requests a resched; schedule()
        parks the task in the pending-migration list and the slice barrier
        enqueues it on the target's run queue (IPI semantics — a task
        never sits in two run queues, and never hops mid-slice)."""
        task = self.current
        target = int(target) % self.nproc
        task.cpus_allowed = {target}
        if target != self.cpu_index:
            task.cpu = target
            task.migrations += 1
            self.need_resched = True
            self.trace("sched", "migrate -> cpu{}".format, task.pid, target)
        return target

    def flush_migrations(self) -> int:
        """Apply IPI-deferred migrations (slice-barrier hook)."""
        if not self._pending_migrations:
            return 0
        pending = self._pending_migrations
        self._pending_migrations = []
        moved = 0
        for task, src in pending:
            if task.state is not _READY:
                continue  # exited/stopped while in flight
            self._migrate_place(task, src, task.cpu)
            moved += 1
        return moved

    def load_balance(self) -> int:
        """CFS-style periodic balancing (slice-barrier hook): while the
        busiest run queue leads the idlest by 2+ runnable tasks, pull one
        task across, respecting affinity."""
        ctxs = self._cpu_contexts
        moves = 0
        while True:
            loads = []
            for ctx, cur in self.per_cpu_state():
                loads.append(ctx.scheduler.nr_runnable
                             + (1 if cur is not None else 0))
            busiest = max(range(self.nproc), key=lambda i: (loads[i], -i))
            idlest = min(range(self.nproc), key=lambda i: (loads[i], i))
            if loads[busiest] - loads[idlest] < 2:
                break
            task = ctxs[busiest].scheduler.steal_task(
                allowed=lambda t: t.cpus_allowed is None
                or idlest in t.cpus_allowed)
            if task is None:
                break
            task.migrations += 1
            self._migrate_place(task, busiest, idlest)
            moves += 1
        self.balance_moves += moves
        return moves

    def _migrate_place(self, task: Task, src: int, dst: int) -> None:
        """Enqueue a migrating task on ``dst``, renormalizing CFS vruntime
        the way set_task_cpu() does (− src.min_vruntime + dst.min_vruntime
        keeps the task's relative fairness position)."""
        src_sched = self._cpu_contexts[src].scheduler
        dst_sched = self._cpu_contexts[dst].scheduler
        src_min = getattr(src_sched, "min_vruntime", None)
        dst_min = getattr(dst_sched, "min_vruntime", None)
        if src_min is not None and dst_min is not None:
            task.vruntime = max(0, task.vruntime - src_min + dst_min)
        task.cpu = dst
        dst_sched.enqueue(task, wakeup=False)

    def _dequeue_anywhere(self, task: Task) -> None:
        """Remove a READY task from whichever run queue holds it (or from
        the pending-migration list)."""
        for i, (t, _src) in enumerate(self._pending_migrations):
            if t is task:
                del self._pending_migrations[i]
                return
        self._cpu_contexts[task.cpu].scheduler.dequeue(task)

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------

    def trace(self, category: str, message,
              pid: Optional[int] = None, *args, **data) -> None:
        """Emit a trace record stamped with the current time.

        ``message`` is the text, or a function :meth:`TraceLog.emit
        <repro.sim.tracing.TraceLog.emit>` calls with ``args`` only if it
        stores the record.  The fork, exit, signal-post and stop paths call
        ``trace_log.emit`` themselves, the same way, to skip this call."""
        self.trace_log.emit(self.clock._now, category, message, pid,
                            *args, **data)

    # ------------------------------------------------------------------
    # time consumption (the single charging point)
    # ------------------------------------------------------------------

    def consume(self, task: Task, ns: int, cycles: int, user_mode: bool,
                provenance: Provenance, kind: ChargeKind) -> None:
        """Advance time for work executed by ``task``.

        This is the hottest function in the simulator — every engine charge
        flush lands here — so Clock.advance, CPU.retire_cycles and
        Task.oracle_charge are inlined (callers only ever pass non-negative
        integers, which is all those wrappers additionally enforce).  The
        engine charges only user and syscall work here, never interrupt
        time, so a scheme that records only interrupt time is not called.
        """
        clock = self.clock
        clock._now += ns
        if clock.on_advance is not None and ns:
            clock.on_advance(ns)
        self.cpu._cycles += cycles
        accounting = self.accounting
        if accounting.charges_work:
            accounting.charge(
                task, _MODE_USER if user_mode else _MODE_KERNEL, ns, kind,
                self.cpu_index)
        oracle = task.oracle_ns
        key = (user_mode, provenance)
        oracle[key] = oracle.get(key, 0) + ns
        if self.invariants is not None:
            self.invariants.on_charge(task, ns, user_mode, kind)

    def consume_irq(self, cycles: int, provenance: Provenance) -> None:
        """Advance time for an interrupt handler, billed to the current task
        (the commodity behaviour the flooding attack exploits)."""
        ns = self.cpu.cycles_to_ns(cycles)
        start = self.clock.now
        self.clock.advance(ns)
        self._irq_window = (start, self.clock.now)
        self.cpu.retire_cycles(cycles)
        self.accounting.charge(self.current, _MODE_KERNEL, ns, _KIND_IRQ,
                               self.cpu_index)
        if self.current is not None:
            self.current.oracle_charge(False, provenance, ns)
        else:
            self.idle_irq_ns += ns
        if self.invariants is not None:
            self.invariants.on_charge(self.current, ns, False, _KIND_IRQ)

    # ------------------------------------------------------------------
    # IRQ handlers
    # ------------------------------------------------------------------

    def _timer_irq(self, line: int) -> None:
        # Sample the interrupted context *first* (as account_process_tick
        # does), then pay the handler cost.
        current = self.current
        mode = self.cpu.mode if current is not None else _MODE_KERNEL
        # A tick whose nominal (grid) instant fell inside a device-handler
        # window was deferred by that handler: on hardware its saved regs
        # would point into the handler, so it samples as system time.  This
        # is how the interrupt flood turns into victim stime (Fig. 10).
        offset = self._active_tick_offset
        nominal = ((self.clock.now - offset) // self.cfg.tick_ns) \
            * self.cfg.tick_ns + offset
        window_start, window_end = self._irq_window
        if window_start <= nominal < window_end:
            mode = _MODE_KERNEL
        if self.watchdog is not None and self.cpu_index == 0:
            # Lost-tick compensation: if grid instants passed without a
            # jiffy (tick swallowed by an SMI or masked window), replay
            # them against the interrupted context before accounting this
            # one — the tick_nohz_idle-style catch-up Linux performs from
            # jiffies_update when it sees jiffies lag the clocksource.
            missed = nominal // self.cfg.tick_ns - 1 - self.timekeeper.jiffies
            if missed > 0:
                self._catch_up_ticks(missed, current, mode)
        self.timekeeper.tick(current is not None, mode is _MODE_USER,
                             self.cpu_index)
        self.accounting.on_tick(current, mode, self.cpu_index)
        if self.invariants is not None:
            self.invariants.on_tick(current, mode is _MODE_USER)
        if self.watchdog is not None and self.cpu_index == 0:
            # The watchdog cross-checks the *global* jiffy counter, which
            # only the timekeeping CPU advances (see TimeKeeper).
            self.watchdog.on_tick(self.clock.now)
        if current is not None:
            self._update_curr(current)
            if self.scheduler.task_tick(current):
                self.need_resched = True
        # The periodic tick is benign system overhead, not device traffic:
        # the oracle files it under SYSTEM so only genuinely external
        # interrupts (NIC, disk) count as attack-relevant IRQ time.
        self.consume_irq(self.costs.timer_handler_cycles, _PROV_SYSTEM)

    def _catch_up_ticks(self, missed: int, current: Optional[Task],
                        mode: CPUMode) -> None:
        """Replay ``missed`` lost jiffies against the interrupted context.

        Replays only the sampling actions (timekeeper, accounting scheme,
        oracle checker) — scheduler task_tick is *not* replayed, mirroring
        Linux where catch-up updates jiffies and cpustat but preemption
        decisions only happen on real interrupts.
        """
        running = current is not None
        user = mode is _MODE_USER
        for _ in range(missed):
            self.timekeeper.tick(running, user, self.cpu_index)
            self.accounting.on_tick(current, mode, self.cpu_index)
            if self.invariants is not None:
                self.invariants.on_tick(current, user)
        self.timekeeper.jiffies_caught_up += missed
        if self.watchdog is not None:
            self.watchdog.note_caught_up(missed)
        self.trace(HW_FAULT_CATEGORY,
                   "tick catch-up: replayed {} lost jiffies".format,
                   current.pid if current is not None else None, missed)

    def _nic_irq(self, line: int) -> None:
        # Device interrupts land on the line's affine CPU: whoever runs
        # there eats the handler time (the IRQ-steering attack surface).
        self.set_active_cpu(self.pic.affinity(line))
        self.consume_irq(self.costs.nic_handler_cycles, _PROV_IRQ)

    def _disk_irq(self, line: int) -> None:
        self.set_active_cpu(self.pic.affinity(line))
        self.consume_irq(self.costs.disk_handler_cycles, _PROV_IRQ)
        completion = self.disk.take_completion()
        if completion is not None:
            completion()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def request_resched(self) -> None:
        self.need_resched = True

    def _update_curr(self, task: Task) -> None:
        now = self.clock._now
        delta = now - task.last_dispatch_ns
        if delta > 0:
            self.scheduler.update_curr(task, delta)
        task.last_dispatch_ns = now

    def schedule(self) -> None:
        """__schedule(): pick the next task, paying the switch cost."""
        prev = self.current
        clock = self.clock
        if prev is not None:
            self._update_curr(prev)
            state = prev.state
            if state is _RUNNING:
                prev.state = state = _READY
            if state is _READY:
                prev.involuntary_switches += 1
                if prev.cpu != self.cpu_index:
                    # The task asked to run elsewhere (sys_migrate): park
                    # it for the slice barrier instead of requeueing here.
                    self._pending_migrations.append((prev, self.cpu_index))
                else:
                    self.scheduler.put_prev(prev)

        nxt = self.scheduler.pick_next()
        self.need_resched = False
        if nxt is None:
            self.current = None
            self.cpu.mode = _MODE_KERNEL
            # Unload the previous task's debug registers.  Load a register
            # file no task owns: cpu.debug aliases the *task's* register
            # file while it runs, so clearing in place would wipe the
            # task's watchpoints.  Nothing writes through cpu.debug, so one
            # empty file serves every idle pick.
            self.cpu.debug = self._idle_debug
            return

        if nxt is not prev:
            self.context_switches += 1
            # The switch cost, charged inline like consume() charges work:
            # one switch per schedule() adds up.
            ns = self._switch_ns
            clock._now += ns
            if clock.on_advance is not None and ns:
                clock.on_advance(ns)
            self.cpu._cycles += self._switch_cycles
            target = prev if self._charge_switch_to_prev else nxt
            if target is None or target.state is _ZOMBIE \
                    or target.state is _DEAD:
                target = nxt
            accounting = self.accounting
            if accounting.charges_work:
                accounting.charge(target, _MODE_KERNEL, ns, _KIND_SWITCH)
            oracle = target.oracle_ns
            oracle[_KEY_SWITCH] = oracle.get(_KEY_SWITCH, 0) + ns
            if self.invariants is not None:
                self.invariants.on_charge(target, ns, False, _KIND_SWITCH)
        self.current = nxt
        nxt.state = _RUNNING
        nxt.last_dispatch_ns = clock._now
        nxt.ran_since_pick = 0
        # Load the task's debug registers (per-thread DR state).
        self.cpu.debug = nxt.debug

    # ------------------------------------------------------------------
    # blocking and waking
    # ------------------------------------------------------------------

    def block_current(self, task: Task, channel: str) -> None:
        """Park the current task on ``channel`` (engine Block op path)."""
        if task is not self.current:
            raise SimulationError("only the current task can block")
        self._update_curr(task)
        task.state = _WAITING
        task.wait_channel = channel
        task.voluntary_switches += 1
        self._wait_queues.setdefault(channel, []).append(task)

    def block_on(self, task: Task, channel: str) -> None:
        """Park the current task on ``channel`` from non-frame kernel code
        (page-fault swap-in path)."""
        self.block_current(task, channel)

    def _unpark(self, task: Task) -> None:
        """Remove a task from its wait queue, if any."""
        channel = task.wait_channel
        if channel is None:
            return
        queue = self._wait_queues.get(channel)
        if queue and task in queue:
            queue.remove(task)
            if not queue:
                del self._wait_queues[channel]
        task.wait_channel = None

    def wake(self, task: Task, payload: object = None) -> bool:
        """Make a parked task runnable; returns True if a wake happened.
        An exited task is neither waiting nor stopped, so it never wakes."""
        state = task.state
        if state is _WAITING:
            self._unpark(task)
            st = task.exec_state
            if st is not None:
                st.send_value = payload
                st.blocked_frame = None
            self._activate(task)
            return True
        if state is _STOPPED and task.wait_channel is not None:
            # The wake arrived while the task was stopped: remember it so
            # SIGCONT resumes straight to READY.
            self._unpark(task)
            task._pending_wake = payload  # type: ignore[attr-defined]
            return True
        return False

    def wake_channel(self, channel: str, payload: object = None) -> int:
        """Wake every task parked on ``channel``; returns the count."""
        queue = self._wait_queues.get(channel)
        if not queue:
            return 0
        woken = 0
        for task in list(queue):
            if self.wake(task, payload):
                woken += 1
        return woken

    def _activate(self, task: Task) -> None:
        """try_to_wake_up(): make a woken or resumed task READY, enqueue it
        where SMP placement says, and let it preempt the current task when
        the scheduler says so.

        It wakes to the waking CPU (cheap wake balancing) unless it is
        pinned elsewhere; then it goes straight onto the pinned queue, and
        that CPU reschedules at its slice."""
        task.state = _READY
        allowed = task.cpus_allowed
        if allowed is not None and self.cpu_index not in allowed:
            dst = min(c for c in allowed if 0 <= c < self.nproc)
            if task.cpu != dst:
                task.migrations += 1
            task.cpu = dst
            ctx = self._cpu_contexts[dst]
            ctx.scheduler.enqueue(task, wakeup=True)
            ctx.need_resched = True
            return
        if task.cpu != self.cpu_index:
            task.cpu = self.cpu_index
            task.migrations += 1
        self.scheduler.enqueue(task, wakeup=True)
        current = self.current
        if current is not None \
                and self.scheduler.check_preempt_wakeup(current, task):
            self.need_resched = True

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------

    def post_signal(self, target: Task, sig: int,
                    sender_pid: Optional[int] = None) -> None:
        state = target.state
        if state is _ZOMBIE or state is _DEAD:
            return
        pending = target.pending_signals
        pending.append((sig, sender_pid))
        target.signals_received += 1
        self.trace_log.emit(self.clock._now, "signal", _post_message,
                            target.pid, sig, sender=sender_pid)
        if target is not self.current:
            # Off-CPU target: resolve dispositions immediately (the engine
            # only runs for the current task).  Delivery cost for off-CPU
            # targets is absorbed by the sender's syscall cost.  An action
            # that kills the target clears its queue.
            while pending:
                queued, _sender = pending.pop(0)
                action = _default_action(queued, target.tracer is not None)
                if action is not _IGNORE:
                    self._apply_signal_action(target, queued, action)

    def deliver_signals(self, task: Task) -> None:
        """Engine hook: queue delivery (with cost) for the current task."""
        if not task.pending_signals:
            return
        sig, sender = task.pending_signals.pop(0)
        action = _default_action(sig, task.tracer is not None)
        prov = _PROV_TRACER if sig in (SIGTRAP, SIGSTOP, SIGCONT) \
            else _PROV_SYSTEM
        st = task.exec_state
        cycles = self.costs.signal_deliver_cycles
        if action is _TRAP:
            # ptrace_stop() runs in the tracee: billed to the victim.
            cycles += self.costs.ptrace_stop_cycles
        st.segments.append(Segment(
            cycles, False, prov, _KIND_SYSCALL,
            on_done=partial(self._apply_signal_action, task, sig, action)))

    def _apply_signal_action(self, task: Task, sig: int,
                             action: SignalAction) -> None:
        if action is _IGNORE:
            return
        if action is _TERMINATE:
            self.do_exit(task, 128 + sig, signal=sig)
            return
        if action is _STOP or action is _TRAP:
            self._stop_task(task, sig)
            return
        if action is _CONTINUE:
            if task.state is _STOPPED:
                self.resume_stopped(task)
            return
        raise SimulationError(f"unhandled signal action {action}")

    def _stop_task(self, task: Task, sig: int) -> None:
        state = task.state
        if state is _STOPPED:
            return
        was_running = task is self.current
        if state is _READY:
            self._dequeue_anywhere(task)
        if was_running:
            self._update_curr(task)
            self.need_resched = True
        # A WAITING task keeps its wait channel; a wake while stopped is
        # remembered (see wake()).
        task.state = _STOPPED
        task.stop_signal = sig
        task.stop_pending_report = True
        self.trace_log.emit(self.clock._now, "signal", _stop_message,
                            task.pid, sig)
        # Wake anyone waiting on this task's stop (tracer and parent).
        if task.tracer is not None:
            self.wake_channel(f"wait:{task.tracer.pid}")
        if task.parent is not None:
            self.wake_channel(f"wait:{task.parent.pid}")

    def resume_stopped(self, task: Task) -> None:
        if task.state is not _STOPPED:
            return
        task.stop_signal = None
        task.stop_pending_report = False
        pending_wake = getattr(task, "_pending_wake", _NO_WAKE)
        if pending_wake is not _NO_WAKE:
            del task._pending_wake
            st = task.exec_state
            if st is not None:
                st.send_value = pending_wake
                st.blocked_frame = None
            self._activate(task)
        elif task.wait_channel is not None:
            task.state = _WAITING
        else:
            self._activate(task)

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------

    def _root_frame(self, fn: Optional[GuestFunction],
                    args: Tuple) -> Frame:
        """The bottom of a new task's stack: run ``fn``, then exit with its
        return value.  With no ``fn`` the task makes one call, exit(0), so
        its stack starts as that call's frame."""
        if fn is None:
            return SyscallFrame("exit", (0,),
                                self.syscalls.handlers.get("exit"),
                                _PROV_USER)

        def body():
            code = yield Invoke(fn, args)
            yield Syscall("exit", (code if isinstance(code, int) else 0,))

        return Frame(body(), fn.provenance, fn.name, user_mode=True)

    def create_task(self, name: str, uid: Optional[int] = None,
                    nice: Optional[int] = None,
                    parent: Optional[Task] = None,
                    tgid: Optional[int] = None) -> Task:
        """Allocate a PCB.  uid/nice default to the parent's (or 1000/0)."""
        if uid is None:
            uid = parent.uid if parent is not None else 1000
        if nice is None:
            nice = parent.nice if parent is not None else 0
        elif not -20 <= nice <= 19:
            raise SimulationError(f"nice {nice} outside [-20, 19]")
        pid = self._next_pid
        self._next_pid = pid + 1
        task = Task(pid, name, uid=uid, nice=nice, tgid=tgid)
        task.parent = parent
        if parent is not None:
            parent.children.append(task)
            task.env = dict(parent.env)
        self.tasks[pid] = task
        return task

    def _start_process(self, task: Task, fn: Optional[GuestFunction],
                       args: Tuple) -> None:
        """Give a new process a stack whose root frame runs ``fn`` and,
        when there is an ``fn``, its own address space, an empty guest view
        and link map.

        With no ``fn`` the process is exit-only: its one frame is exit(0),
        which touches no memory and calls nothing, so it gets no address
        space, guest view or link map (``mm`` and ``guest_ctx`` stay None).
        Every Fork child of the scheduling attack is one."""
        st = task.exec_state = ExecState()
        st.frames.append(self._root_frame(fn, args))
        if fn is None:
            return
        task.mm = self.mm.create_space()
        ctx = task.guest_ctx = GuestContext(
            argv=(), rng_stream_factory=_GuestRngStreams(self.rng, task.pid))
        ctx.shared["_link_map"] = LinkMap([])

    def spawn(self, fn: Optional[GuestFunction] = None, args: Tuple = (),
              name: str = "task", uid: Optional[int] = None,
              nice: Optional[int] = None,
              env: Optional[Dict[str, str]] = None,
              parent: Optional[Task] = None) -> Task:
        """Create and enqueue a task running ``fn`` (no program image)."""
        task = self.create_task(name, uid=uid, nice=nice, parent=parent)
        if env:
            task.env.update(env)
        self._start_process(task, fn, args)
        task.vruntime = getattr(self.scheduler, "min_vruntime", 0)
        task.cpu = self.cpu_index
        self.scheduler.enqueue(task)
        self.trace("task", "spawn {}".format, task.pid, name)
        return task

    def do_fork(self, parent: Task, child_fn: Optional[GuestFunction],
                child_args: Tuple) -> Task:
        child = self.create_task(
            f"{parent.name}-child", parent=parent)
        self._start_process(child, child_fn, child_args)
        self.scheduler.on_fork(parent, child)
        child.cpu = self.cpu_index
        self.scheduler.enqueue(child)
        self.trace_log.emit(self.clock._now, "task", "fork", parent.pid,
                            child=child.pid)
        return child

    def do_clone_thread(self, leader: Task, fn: GuestFunction,
                        args: Tuple) -> Task:
        thread = self.create_task(
            f"{leader.name}/t", parent=leader, tgid=leader.tgid)
        thread.mm = self.mm.grab_space(leader.mm)
        thread.guest_ctx = leader.guest_ctx  # shared thread-group view
        thread.exec_state = ExecState()
        thread.exec_state.frames.append(self._root_frame(fn, args))
        self.scheduler.on_fork(leader, thread)
        thread.cpu = self.cpu_index
        self.scheduler.enqueue(thread)
        self.trace("task", "clone-thread", leader.pid, thread=thread.pid)
        return thread

    def install_image(self, task: Task, program: Program) -> None:
        """execve point of no return: replace the whole process image."""
        if task.mm is not None:
            if task.mm.users > 1:
                raise SimulationError(
                    "execve from a multithreaded process is not modelled")
            self.mm.drop_space(task.mm)
        task.mm = self.mm.create_space()
        task.name = program.name
        ctx = task.guest_ctx = GuestContext(
            argv=tuple(program.argv),
            rng_stream_factory=_GuestRngStreams(self.rng, task.pid))
        self._bind_data_symbols(task, program)
        link_map = build_link_map(program, task.env, self.libraries)
        ctx.shared["_link_map"] = link_map
        ctx.shared["_program"] = program
        ctx.shared["_costs"] = self.costs
        # Mutate the existing ExecState in place: the engine holds a live
        # reference to it while this runs (from inside the execve syscall).
        st = task.exec_state
        if st is None:
            st = ExecState()
            task.exec_state = st
        _close_frames(st.frames)
        st.segments.clear()
        st.pending_mem = None
        st.send_value = None
        st.blocked_frame = None
        st.frames.append(Frame(
            process_body(ctx, program, link_map, self.costs),
            Provenance.LIB, f"crt0:{program.name}", user_mode=True))
        self.trace("task", "execve {}".format, task.pid, program.name,
                   libs=len(link_map))

    def _bind_data_symbols(self, task: Task, program: Program) -> None:
        if not program.data_symbols:
            return
        page = task.mm.page_size
        total = 0
        offsets = {}
        for symbol, size in program.data_symbols.items():
            if size <= 0:
                raise SimulationError(f"symbol {symbol!r} has size {size}")
            offsets[symbol] = total
            total += (size + 7) // 8 * 8
        npages = (total + page - 1) // page
        task.mm.add_region(DATA_BASE, max(npages, 1), "data")
        for symbol, offset in offsets.items():
            task.guest_ctx.bind_symbol(symbol, DATA_BASE + offset)

    def do_exit(self, task: Task, code: int,
                signal: Optional[int] = None) -> None:
        state = task.state
        if state is _ZOMBIE or state is _DEAD:
            return
        if task is self.current:
            self._update_curr(task)
            self.need_resched = True
        elif state is _READY:
            self._dequeue_anywhere(task)
        elif state is _WAITING:
            self._unpark(task)
        task.state = _ZOMBIE
        task.exit_code = code
        task.exit_signal = signal
        task.pending_signals.clear()
        if task.exec_state is not None:
            _close_frames(task.exec_state.frames)
            task.exec_state.segments.clear()
            task.exec_state.pending_mem = None
        if task.mm is not None:
            self.mm.drop_space(task.mm)
            task.mm = None
        # Detach tracing relations.
        tracees = task.tracees
        if tracees:
            for tracee_pid in tracees:
                tracee = self.tasks.get(tracee_pid)
                if tracee is not None:
                    tracee.tracer = None
            tracees.clear()
        if task.tracer is not None:
            # A blocked tracer must learn its tracee is gone.
            tracer = task.tracer
            tracer.tracees.discard(task.pid)
            task.tracer = None
            self.wake_channel(f"wait:{tracer.pid}")
        # Reparent children to nobody (init is implicit).
        for child in task.children:
            child.parent = None
        self.trace_log.emit(self.clock._now, "task", _exit_message,
                            task.pid, code, signal)
        if task.parent is not None:
            self.post_signal(task.parent, SIGCHLD, sender_pid=task.pid)
            self.wake_channel(f"wait:{task.parent.pid}")
        if self.invariants is not None:
            # Exit reconciliation: the dying task's books must balance.
            self.invariants.on_exit(task)

    def reap(self, parent: Task, zombie: Task) -> None:
        if zombie.state is not _ZOMBIE:
            raise SimulationError(f"cannot reap live task {zombie.pid}")
        zombie.state = _DEAD
        if zombie in parent.children:
            parent.children.remove(zombie)
        # POSIX RUSAGE_CHILDREN semantics: the child's own usage plus its
        # reaped descendants' accumulates into the parent at wait() time.
        usage = self.accounting.usage(zombie)
        parent.acct_cutime_ns += usage.utime_ns + zombie.acct_cutime_ns
        parent.acct_cstime_ns += usage.stime_ns + zombie.acct_cstime_ns
        # A dead task keeps only its books: identity, tree links, exit
        # status, accounting and rusage fields, the oracle, the scheduler
        # scalars and its CPU placement.  It stays in self.tasks because
        # these read dead tasks:
        #   * procfs stat() and stat_all(include_dead=True);
        #   * sys_proc_threads and thread_group() (rusage, oracle reports,
        #     a run's group usage);
        #   * the invariant checker's per-task, billing-gap and run-queue
        #     walks over self.tasks;
        #   * run_experiment's SMP migrations sum.
        # None of them touches what only a runnable task uses, so that is
        # released here: the frame stack and segment queue (with the exit
        # cost queued after do_exit, which never runs), the guest view,
        # env, debug registers, child list, tracee set, signal queue and
        # CPU affinity mask.  Fork-heavy runs reap thousands of children,
        # and every full garbage collection rescans what each one keeps.
        zombie.exec_state = None
        zombie.guest_ctx = None
        zombie.env = None
        zombie.debug = None
        zombie.children = None
        zombie.tracees = None
        zombie.pending_signals = None
        zombie.cpus_allowed = None

    # ------------------------------------------------------------------
    # memory helpers (engine fault paths)
    # ------------------------------------------------------------------

    def swap_writeback(self, task: Task) -> None:
        """Submit the dirty-victim writeback for an eviction (async)."""
        self.disk.submit(1, write=True, on_complete=lambda: None)

    def begin_swap_in(self, task: Task, vaddr: int, frame) -> None:
        channel = f"page:{task.pid}:0x{vaddr:x}"
        self.trace("fault", "major fault 0x{:x}".format, task.pid, vaddr)

        def complete() -> None:
            if not task.alive or task.mm is None:
                # Killed while sleeping on I/O: give the frame back.
                self.mm.phys.release(frame.pfn)
                return
            self.mm.complete_major_fault(task.mm, vaddr, frame)
            self.wake_channel(channel)

        self.disk.submit(1, write=False, on_complete=complete)
        self.block_on(task, channel)

    def oom_kill(self, requester: Task) -> bool:
        """Invoke the OOM killer; True if a victim was killed."""
        victim = self.mm.pick_oom_victim(
            [t for t in self.tasks.values() if t.alive and t.mm is not None])
        if victim is None:
            return False
        self.trace("oom", f"killing pid {victim.pid} (rss={victim.mm.rss})",
                   requester.pid)
        self.do_exit(victim, 128 + SIGKILL, signal=SIGKILL)
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def task_by_pid(self, pid: int) -> Optional[Task]:
        return self.tasks.get(pid)

    def thread_group(self, task: Task) -> List[Task]:
        return [t for t in self.tasks.values() if t.tgid == task.tgid]

    def rusage(self, task: Task) -> Dict[str, object]:
        """getrusage(RUSAGE_SELF): aggregated over the thread group."""
        usage = CpuUsage()
        minflt = majflt = nvcsw = nivcsw = 0
        for member in self.thread_group(task):
            usage = usage + self.accounting.usage(member)
            minflt += member.minor_faults
            majflt += member.major_faults
            nvcsw += member.voluntary_switches
            nivcsw += member.involuntary_switches
        return {
            "utime_ns": usage.utime_ns,
            "stime_ns": usage.stime_ns,
            "cutime_ns": task.acct_cutime_ns,
            "cstime_ns": task.acct_cstime_ns,
            "minflt": minflt,
            "majflt": majflt,
            "nvcsw": nvcsw,
            "nivcsw": nivcsw,
        }

    def alive_tasks(self) -> List[Task]:
        return [t for t in self.tasks.values() if t.alive]

    def all_finished(self) -> bool:
        return not self.alive_tasks()
