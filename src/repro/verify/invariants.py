"""Runtime invariant checking: machine-checked accounting identities.

The simulator's whole reason to exist is trustworthy attribution of CPU
time, so the simulator itself must be held to conservation laws, not spot
figures.  The :class:`InvariantChecker` keeps an independent *shadow
ledger* fed by kernel hooks (every charge, every tick, every exit, every
clock advance) and continuously cross-checks it against the kernel's own
books:

* **time-conservation** — every advanced nanosecond is attributed to
  exactly one account (a task, idle interrupt time, or the idle loop);
  per-task attribution equals the oracle's provenance ledger; the engine
  never consumes more than the clock moved.
* **tick-conservation** — each tick is charged to exactly one account:
  ``timekeeper.ticks_total`` equals the observed tick count, per-task
  ``acct_ticks`` equals the ticks the checker saw land on that task, and
  idle ticks balance.
* **billing-conservation** — scheme-specific closed-form identities: under
  tick sampling, billed time is exactly (per-mode ticks x jiffy length)
  minus process-aware diversions; under TSC charging, billed time equals
  the shadow ledger nanosecond for nanosecond (ditto the audit side of the
  dual scheme).
* **oracle-reconciliation** — at exit (and on every full sweep) a task's
  oracle total equals the time actually charged to it.
* **runqueue** — READY tasks sit in the scheduler queue exactly once,
  WAITING tasks on exactly one wait channel, the current task and the
  dead in neither; ``nr_runnable`` agrees with queue contents.
* **clock-monotonic** — simulated time and jiffies never move backwards.

The conservation laws also hold per CPU, at every ``cfg.nproc``: every
nanosecond of a CPU's capacity is claimed by exactly one account *on that
CPU* (task charge, idle-IRQ, or idle loop), per-CPU tick counters close
against the per-CPU ticks the checker observed, and the runqueue
discipline holds across all per-CPU queues plus the in-flight migration
list (a migrating task is queued exactly once — there).  The machine's
SMP loop notifies the checker of its silent slice rewinds via
:meth:`on_cpu_slice`, so total clock advance is the *sum* of per-CPU
capacity, not the wall window.  The one law that holds only on a
uniprocessor is the wall-clock law: there, and only there, the clock's
wall reading equals the capacity that passed through ``advance()``.

Checks are two-tier: O(1) hooks run on every event, and a full O(tasks)
sweep runs every ``full_check_every_ticks`` jiffies, at every task exit
(that task only) and at :meth:`check_full`.  Violations either raise
:class:`InvariantViolation` (default) or are collected for inspection
(``mode="collect"``), and are always emitted to the trace log under the
:data:`~repro.sim.tracing.INVARIANT_CATEGORY` category.

Enable via ``Machine(cfg, invariants=True)``, per-experiment via
``run_experiment(..., check_invariants=True)``, process-wide via
:func:`set_default_invariants` (the CLI's ``--check-invariants``), or on
sweep points via ``ExperimentSpec(check_invariants=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

# Re-exported: the process-wide flag lives in repro.config.
from ..config import default_invariants, set_default_invariants  # noqa: F401
from ..errors import SimulationError
from ..sim.tracing import INVARIANT_CATEGORY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel.accounting import ChargeKind
    from ..kernel.kernel import Kernel
    from ..kernel.process import Task
    from ..virt.hypervisor import Hypervisor, VirtualMachine


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach."""

    category: str
    message: str
    pid: Optional[int]
    tick: int
    time_ns: int

    def __str__(self) -> str:
        where = f" pid={self.pid}" if self.pid is not None else ""
        return (f"[{self.category}] tick={self.tick} t={self.time_ns}ns"
                f"{where}: {self.message}")


class InvariantViolation(SimulationError):
    """Raised (in ``raise`` mode) when a conservation law is broken."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation

    @property
    def category(self) -> str:
        return self.violation.category

    @property
    def pid(self) -> Optional[int]:
        return self.violation.pid

    @property
    def tick(self) -> int:
        return self.violation.tick


class _TaskShadow:
    """The checker's independent per-task ledger."""

    __slots__ = ("attributed_ns", "ticks_user", "ticks_kernel",
                 "billable_user_ns", "billable_kernel_ns")

    def __init__(self) -> None:
        self.attributed_ns = 0
        self.ticks_user = 0
        self.ticks_kernel = 0
        #: ns the active scheme should bill (diverted IRQ time excluded).
        self.billable_user_ns = 0
        self.billable_kernel_ns = 0

    @property
    def ticks(self) -> int:
        return self.ticks_user + self.ticks_kernel


class _Checker:
    """What both shadow-ledger checkers share: the raise/collect mode, the
    fault-declared tolerated categories, and how a violation is recorded."""

    def __init__(self, mode: str, full_check_every_ticks: int,
                 max_recorded: int, tolerated: Iterable[str]) -> None:
        if mode not in ("raise", "collect"):
            raise SimulationError(f"unknown invariant mode {mode!r}")
        self.mode = mode
        self.full_check_every_ticks = max(1, int(full_check_every_ticks))
        self.max_recorded = max_recorded
        self.violations: List[Violation] = []
        #: Violation categories declared by an active fault plan: faults in
        #: these categories are *expected*, so they are recorded separately
        #: instead of raising — graceful degradation, not failure.
        self.tolerated: Set[str] = set(tolerated)
        self.tolerated_violations: List[Violation] = []
        #: (category, subject) pairs already recorded (collect-mode dedup).
        self._seen: Set[Tuple[str, object]] = set()
        self.suppressed = 0

    @classmethod
    def resolve(cls, invariants, tolerated: Iterable[str] = ()):
        """The checker an ``invariants=`` argument asks for: None when
        falsy, a pre-built checker as is, ``"collect"`` for a collecting
        one, anything else truthy for a raising one.  ``tolerated``
        categories are declared on whichever checker results."""
        if not invariants:
            return None
        if isinstance(invariants, cls):
            if tolerated:
                invariants.tolerate(*tolerated)
            return invariants
        if invariants == "collect":
            return cls(mode="collect", tolerated=tolerated)
        return cls(tolerated=tolerated)

    def tolerate(self, *categories: str) -> None:
        """Declare ``categories`` as expected under the active fault plan."""
        self.tolerated.update(categories)

    def _record(self, violation: Violation, subject: object) -> None:
        """Tolerate, raise or collect ``violation``; collect mode keeps one
        per (category, ``subject``) and at most ``max_recorded``."""
        category = violation.category
        if category in self.tolerated:
            if len(self.tolerated_violations) < self.max_recorded:
                self.tolerated_violations.append(violation)
            return
        if self.mode == "raise":
            raise InvariantViolation(violation)
        key = (category, subject)
        if key in self._seen or len(self.violations) >= self.max_recorded:
            self.suppressed += 1
            return
        self._seen.add(key)
        self.violations.append(violation)


class InvariantChecker(_Checker):
    """Shadow-ledger invariant checker wired into a running machine."""

    def __init__(self, mode: str = "raise",
                 full_check_every_ticks: int = 16,
                 max_recorded: int = 200,
                 tolerated: Iterable[str] = ()) -> None:
        super().__init__(mode, full_check_every_ticks, max_recorded,
                         tolerated)
        self.kernel: Optional["Kernel"] = None
        self._tick_ns = 0
        self._attach_now = 0
        self._attach_jiffies = 0

        # Shadow ledger.
        self._tasks: Dict[int, _TaskShadow] = {}
        self._clock_total = 0
        #: ns advanced but not yet attributed by a charge/idle hook.
        self._pending_ns = 0
        self._attributed_total = 0
        self._idle_irq_ns = 0
        self._idle_ns = 0
        self._system_ns = 0
        self._ticks_total = 0
        self._idle_ticks = 0
        self._last_now = 0
        self._last_jiffies = 0
        self.full_checks = 0

        # Per-CPU shadow ledgers, sized at attach.
        self._nproc = 1
        self._cpu_cap: List[int] = []
        self._cpu_attr: List[int] = []
        self._cpu_idle_irq: List[int] = []
        self._cpu_idle: List[int] = []
        self._ticks_cpu: List[int] = []
        self._attach_ticks_total = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._tick_ns = kernel.cfg.tick_ns
        self._attach_now = kernel.clock.now
        self._attach_jiffies = kernel.timekeeper.jiffies
        self._last_now = kernel.clock.now
        self._last_jiffies = kernel.timekeeper.jiffies
        self._nproc = kernel.nproc
        self._cpu_cap = [0] * self._nproc
        self._cpu_attr = [0] * self._nproc
        self._cpu_idle_irq = [0] * self._nproc
        self._cpu_idle = [0] * self._nproc
        self._ticks_cpu = [0] * self._nproc
        self._attach_ticks_total = kernel.timekeeper.ticks_total
        kernel.invariants = self
        kernel.clock.on_advance = self.on_clock_advance

    def detach(self) -> None:
        """Unhook from the kernel at the end of its run: the kernel and
        its clock point at this checker, so the checker lets go of the
        kernel.  What the checker recorded stays readable."""
        if self.kernel is not None:
            self.kernel.clock.on_advance = None
            self.kernel = None

    def _shadow(self, pid: int) -> _TaskShadow:
        shadow = self._tasks.get(pid)
        if shadow is None:
            shadow = self._tasks[pid] = _TaskShadow()
        return shadow

    def report(self, category: str, message: str,
               pid: Optional[int] = None) -> None:
        """Record a breach of ``category`` (traced under
        :data:`~repro.sim.tracing.INVARIANT_CATEGORY`); also the entry
        point for checks that live outside this class."""
        kernel = self.kernel
        tick = kernel.timekeeper.jiffies if kernel is not None else 0
        now = kernel.clock.now if kernel is not None else 0
        violation = Violation(category=category, message=message, pid=pid,
                              tick=tick, time_ns=now)
        if kernel is not None:
            kernel.trace(INVARIANT_CATEGORY, f"{category}: {message}", pid)
        self._record(violation, pid)

    # ------------------------------------------------------------------
    # hooks (called by clock/kernel/engine/machine)
    # ------------------------------------------------------------------

    def on_cpu_slice(self, cpu: int, now: int) -> None:
        """The SMP loop silently moved the clock to ``now`` (slice rewind
        or barrier) and made ``cpu`` the active CPU.  The jump is not a
        clock advance — no capacity passes — but the monotonicity cursor
        must follow it or the rewind would read as time going backwards."""
        self._last_now = now

    def on_clock_advance(self, delta_ns: int) -> None:
        if delta_ns < 0:
            self.report("clock-monotonic",
                        f"clock advanced by negative delta {delta_ns}")
            return
        self._clock_total += delta_ns
        self._pending_ns += delta_ns
        self._cpu_cap[self.kernel.cpu_index] += delta_ns

    def on_charge(self, task: Optional["Task"], ns: int, user_mode: bool,
                  kind: "ChargeKind") -> None:
        """Every charged slice: consume, IRQ handlers, switch cost."""
        self._pending_ns -= ns
        if self._pending_ns < 0:
            self.report(
                "time-conservation",
                f"charged {ns}ns exceeding clock advance (pending "
                f"{self._pending_ns + ns}ns)",
                task.pid if task is not None else None)
            self._pending_ns = 0
        if task is None:
            self._cpu_idle_irq[self.kernel.cpu_index] += ns
            self._idle_irq_ns += ns
            # Idle-period IRQ time is still diverted to the scheme's
            # system account under process-aware accounting; keep the
            # diversion shadow in step so the TSC-style system_ns check
            # stays exact.
            if (kind.value == "irq"
                    and self.kernel.accounting.process_aware_irq):
                self._system_ns += ns
            return
        kernel = self.kernel
        self._cpu_attr[kernel.cpu_index] += ns
        shadow = self._shadow(task.pid)
        shadow.attributed_ns += ns
        self._attributed_total += ns
        if (kind.value == "irq"
                and kernel.accounting.process_aware_irq):
            self._system_ns += ns
            return
        if user_mode:
            shadow.billable_user_ns += ns
        else:
            shadow.billable_kernel_ns += ns

    def on_idle_advance(self, delta_ns: int) -> None:
        """The machine advanced the clock with no task to charge."""
        self._pending_ns -= delta_ns
        if self._pending_ns < 0:
            self.report("time-conservation",
                        f"idle advance of {delta_ns}ns exceeds clock delta")
            self._pending_ns = 0
        self._idle_ns += delta_ns
        self._cpu_idle[self.kernel.cpu_index] += delta_ns

    def on_tick(self, task: Optional["Task"], user_mode: bool) -> None:
        """After the accounting scheme sampled this jiffy."""
        self._ticks_total += 1
        self._ticks_cpu[self.kernel.cpu_index] += 1
        if task is None:
            self._idle_ticks += 1
        else:
            shadow = self._shadow(task.pid)
            if user_mode:
                shadow.ticks_user += 1
            else:
                shadow.ticks_kernel += 1
        if self._ticks_total % self.full_check_every_ticks == 0:
            self.check_full()

    def on_exit(self, task: "Task") -> None:
        """Exit reconciliation: the dying task's books must balance now."""
        self._check_task(task)

    def on_engine_stop(self, task: "Task", consumed_ns: int,
                       clock_delta_ns: int, budget_ns: int) -> None:
        if consumed_ns != clock_delta_ns:
            self.report(
                "time-conservation",
                f"engine consumed {consumed_ns}ns but the clock moved "
                f"{clock_delta_ns}ns", task.pid)
        if consumed_ns > budget_ns:
            self.report(
                "engine-budget",
                f"engine consumed {consumed_ns}ns of a {budget_ns}ns budget",
                task.pid)

    def on_step(self) -> None:
        """Cheap per-iteration check from the machine loop."""
        if self._pending_ns != 0:
            self.report(
                "time-conservation",
                f"{self._pending_ns}ns advanced without attribution")
        kernel = self.kernel
        if kernel.clock.now < self._last_now:
            self.report("clock-monotonic",
                        f"clock moved backwards to {kernel.clock.now}ns")
        self._last_now = kernel.clock.now

    # ------------------------------------------------------------------
    # full sweep
    # ------------------------------------------------------------------

    def check_full(self) -> None:
        """Run every global and per-task identity check."""
        kernel = self.kernel
        if kernel is None:
            return
        self.full_checks += 1
        self._check_time_conservation()
        self._check_tick_conservation()
        self._check_billing_global()
        for task in kernel.tasks.values():
            self._check_task(task)
        self._check_runqueue()

    def _check_time_conservation(self) -> None:
        kernel = self.kernel
        if self._pending_ns != 0:
            self.report(
                "time-conservation",
                f"{self._pending_ns}ns advanced without attribution")
        if self._nproc == 1:
            # The wall-clock law holds on one CPU only: N CPUs each
            # account the same wall window, so _clock_total is the *sum*
            # of per-CPU capacity (checked per CPU below) while clock.now
            # only tracks the wall.
            observed = kernel.clock.now - self._attach_now
            if observed != self._clock_total:
                self.report(
                    "clock-monotonic",
                    f"clock moved {observed}ns but only {self._clock_total}"
                    f"ns passed through advance()")
        if kernel.idle_irq_ns != self._idle_irq_ns:
            self.report(
                "time-conservation",
                f"kernel idle IRQ time {kernel.idle_irq_ns}ns != shadow "
                f"{self._idle_irq_ns}ns")
        accounted = (self._attributed_total + self._idle_irq_ns
                     + self._idle_ns + self._pending_ns)
        if accounted != self._clock_total:
            self.report(
                "time-conservation",
                f"{self._clock_total}ns elapsed but {accounted}ns accounted")
        if self._pending_ns == 0:
            # Per-CPU conservation: every nanosecond of a CPU's capacity
            # is claimed by exactly one account *on that CPU*.
            for c in range(self._nproc):
                cpu_accounted = (self._cpu_attr[c] + self._cpu_idle_irq[c]
                                 + self._cpu_idle[c])
                if cpu_accounted != self._cpu_cap[c]:
                    self.report(
                        "time-conservation",
                        f"cpu{c}: {self._cpu_cap[c]}ns of capacity but "
                        f"{cpu_accounted}ns accounted")

    def _check_tick_conservation(self) -> None:
        kernel = self.kernel
        tk = kernel.timekeeper
        jiffies = tk.jiffies - self._attach_jiffies
        if jiffies < self._last_jiffies - self._attach_jiffies:
            self.report("clock-monotonic", "jiffies moved backwards")
        self._last_jiffies = tk.jiffies
        # Jiffies advance on the timekeeping CPU only; the checker's
        # global tick count closes against ticks_total instead.
        ticks = tk.ticks_total - self._attach_ticks_total
        if ticks != self._ticks_total:
            self.report(
                "tick-conservation",
                f"timekeeper counted {ticks} ticks, checker saw "
                f"{self._ticks_total}")
        if jiffies != self._ticks_cpu[0]:
            self.report(
                "tick-conservation",
                f"jiffies advanced {jiffies} but cpu0 fired "
                f"{self._ticks_cpu[0]} ticks")
        for c in range(self._nproc):
            per_mode = (tk.cpu_ticks_user[c] + tk.cpu_ticks_kernel[c]
                        + tk.cpu_ticks_idle[c])
            if per_mode != self._ticks_cpu[c]:
                self.report(
                    "tick-conservation",
                    f"cpu{c} per-mode ticks sum to {per_mode}, checker "
                    f"saw {self._ticks_cpu[c]}")
        if kernel.accounting.idle_ticks != self._idle_ticks:
            self.report(
                "tick-conservation",
                f"scheme idle_ticks {kernel.accounting.idle_ticks} != "
                f"shadow {self._idle_ticks}")
        if tk.ticks_user + tk.ticks_kernel + tk.ticks_idle != tk.ticks_total:
            self.report(
                "tick-conservation",
                "per-mode tick counters do not sum to ticks_total")

    def _check_billing_global(self) -> None:
        kernel = self.kernel
        busy_ticks = self._ticks_total - self._idle_ticks
        gap = kernel.accounting.billing_gap_ns(
            kernel.tasks.values(), busy_ticks)
        if gap is not None and gap != 0:
            self.report(
                "billing-conservation",
                f"billed time off by {gap}ns against "
                f"{busy_ticks} busy ticks")
        scheme = kernel.accounting
        if scheme.process_aware_irq and not scheme.tick_sampled_system:
            # TSC-style diversion: the system account must equal exactly
            # the IRQ nanoseconds the checker watched being diverted.
            if scheme.system_ns != self._system_ns:
                self.report(
                    "billing-conservation",
                    f"system account {scheme.system_ns}ns != diverted IRQ "
                    f"shadow {self._system_ns}ns")

    def _check_task(self, task: "Task") -> None:
        kernel = self.kernel
        shadow = self._tasks.get(task.pid)
        if shadow is None:
            shadow = _TaskShadow()
        oracle_total = sum(task.oracle_ns.values())
        if oracle_total != shadow.attributed_ns:
            self.report(
                "oracle-reconciliation",
                f"oracle recorded {oracle_total}ns but {shadow.attributed_ns}"
                f"ns were charged", task.pid)
        if task.acct_ticks != shadow.ticks:
            self.report(
                "tick-conservation",
                f"task sampled {task.acct_ticks} ticks, checker saw "
                f"{shadow.ticks}", task.pid)
        scheme = kernel.accounting
        usage = scheme.usage(task)
        if scheme.tick_sampled:
            if not scheme.process_aware_irq:
                expect_u = shadow.ticks_user * self._tick_ns
                expect_k = shadow.ticks_kernel * self._tick_ns
                if (usage.utime_ns, usage.stime_ns) != (expect_u, expect_k):
                    self.report(
                        "billing-conservation",
                        f"billed {usage.utime_ns}u+{usage.stime_ns}s ns, "
                        f"tick identity expects {expect_u}u+{expect_k}s ns",
                        task.pid)
            elif usage.total_ns > shadow.ticks * self._tick_ns:
                self.report(
                    "billing-conservation",
                    f"billed {usage.total_ns}ns exceeds {shadow.ticks} "
                    f"sampled jiffies", task.pid)
        audit = scheme.audit_view(task)
        if audit is not None:
            if (audit.utime_ns != shadow.billable_user_ns
                    or audit.stime_ns != shadow.billable_kernel_ns):
                self.report(
                    "billing-conservation",
                    f"precise view {audit.utime_ns}u+{audit.stime_ns}s ns "
                    f"!= shadow {shadow.billable_user_ns}u+"
                    f"{shadow.billable_kernel_ns}s ns", task.pid)

    def _check_runqueue(self) -> None:
        from ..kernel.process import TaskState

        kernel = self.kernel
        queued: List[int] = []
        currents = []
        for ctx, cpu_current in kernel.per_cpu_state():
            pids = ctx.scheduler.queued_pids()
            if pids is None:
                return
            if ctx.scheduler.nr_runnable != len(pids):
                self.report(
                    "runqueue",
                    f"cpu{ctx.index} nr_runnable "
                    f"{ctx.scheduler.nr_runnable} != {len(pids)} "
                    f"queued tasks")
            queued.extend(pids)
            if cpu_current is not None:
                currents.append(cpu_current)
        # An in-flight migration holds its task out of every runqueue
        # until the slice barrier; it still counts as queued exactly
        # once — there.
        queued.extend(task.pid for task, _src in kernel._pending_migrations)
        if len(queued) != len(set(queued)):
            dupes = sorted({p for p in queued if queued.count(p) > 1})
            self.report("runqueue",
                        f"pids queued more than once: {dupes}",
                        dupes[0] if dupes else None)
        queued_set = set(queued)
        for current in currents:
            if current.pid in queued_set:
                self.report("runqueue", "current task is on the run queue",
                            current.pid)
        waiting_members: Dict[int, str] = {}
        for channel, tasks in kernel._wait_queues.items():
            for task in tasks:
                if task.pid in waiting_members:
                    self.report("runqueue",
                                "task parked on two wait channels",
                                task.pid)
                waiting_members[task.pid] = channel
                if task.state not in (TaskState.WAITING, TaskState.STOPPED):
                    self.report(
                        "runqueue",
                        f"{task.state.value} task parked on {channel!r}",
                        task.pid)
                if task.wait_channel != channel:
                    self.report(
                        "runqueue",
                        f"task parked on {channel!r} but wait_channel is "
                        f"{task.wait_channel!r}", task.pid)
        for task in kernel.tasks.values():
            state = task.state
            if state is TaskState.READY:
                if task.pid not in queued_set:
                    self.report("runqueue",
                                "READY task missing from the run queue",
                                task.pid)
            elif task.pid in queued_set:
                self.report("runqueue",
                            f"{state.value} task sitting on the run queue",
                            task.pid)
            if state is TaskState.WAITING:
                if task.wait_channel is None:
                    self.report("runqueue",
                                "WAITING task has no wait channel", task.pid)
                elif waiting_members.get(task.pid) != task.wait_channel:
                    self.report(
                        "runqueue",
                        f"WAITING task not parked on its channel "
                        f"{task.wait_channel!r}", task.pid)
            if state in (TaskState.ZOMBIE, TaskState.DEAD):
                if task.pid in waiting_members:
                    self.report("runqueue",
                                "dead task still parked on a wait channel",
                                task.pid)


class _VcpuShadow:
    """The virt checker's independent per-vCPU ledger."""

    __slots__ = ("ran_ns", "idle_ns", "steal_ns", "sampled_ticks")

    def __init__(self) -> None:
        self.ran_ns = 0
        self.idle_ns = 0
        self.steal_ns = 0
        self.sampled_ticks = 0


class VirtInvariantChecker(_Checker):
    """Shadow-ledger checker for the hypervisor's vCPU time accounting.

    Extends the conservation discipline one level up: fed by hypervisor
    hooks (every dispatched slice, every steal/idle attribution, every
    accounting tick), it independently re-derives each vCPU's
    ``ran/idle/steal`` ledger and holds the hypervisor to

    * **vcpu-conservation** — per vCPU, exactly
      ``ran_ns + idle_ns + steal_ns == host wall`` and
      ``guest_clock == ran_ns + idle_ns`` (the issue's law: with the guest
      kernel's own shadow ledger closing utime+stime+idle = guest clock,
      Σ guest (utime + stime + idle + steal) = host wall time per vCPU);
    * **steal-injection** — the steal time injected into each guest's
      timekeeper equals the hypervisor-side steal ledger nanosecond for
      nanosecond;
    * **host-conservation** — Σ vCPU ran + host idle = host wall, and the
      host clock only moves through the hooks the checker watched;
    * **vm-billing-conservation** — tick-sampled billing is exactly
      ``sampled_ticks x tick_ns`` per vCPU, sampled ticks match the ticks
      the checker saw land on that vCPU, and idle ticks balance.

    A full sweep also runs every guest machine's own kernel-level checker,
    so one :meth:`check_full` closes the two-level law end to end.

    The hypervisor multiplexes single-vCPU guests onto one physical core
    (``run_spec`` rejects vm specs with ``nproc > 1``), so the per-vCPU
    laws here are already "per CPU" — the guest-side sweep it triggers is
    the place where the SMP-generalised kernel checker would engage.
    """

    def __init__(self, mode: str = "raise",
                 full_check_every_ticks: int = 32,
                 max_recorded: int = 200,
                 tolerated: Iterable[str] = ()) -> None:
        super().__init__(mode, full_check_every_ticks, max_recorded,
                         tolerated)
        self.hypervisor: Optional["Hypervisor"] = None
        self._attach_now = 0
        self._vcpus: Dict[int, _VcpuShadow] = {}
        self._clock_total = 0
        #: host ns advanced but not yet attributed by a run/idle hook.
        self._pending_ns = 0
        self._host_idle_ns = 0
        self._ticks_total = 0
        self._idle_ticks = 0
        self._last_now = 0
        self.full_checks = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, hypervisor: "Hypervisor") -> None:
        self.hypervisor = hypervisor
        self._attach_now = hypervisor.clock.now
        self._last_now = hypervisor.clock.now
        hypervisor.clock.on_advance = self.on_clock_advance

    def detach(self) -> None:
        """Unhook from the hypervisor at the end of its run (see
        :meth:`InvariantChecker.detach`)."""
        if self.hypervisor is not None:
            self.hypervisor.clock.on_advance = None
            self.hypervisor = None

    def on_vm_created(self, vm: "VirtualMachine") -> None:
        self._vcpus[id(vm)] = _VcpuShadow()

    def _shadow(self, vm: "VirtualMachine") -> _VcpuShadow:
        shadow = self._vcpus.get(id(vm))
        if shadow is None:
            shadow = self._vcpus[id(vm)] = _VcpuShadow()
        return shadow

    def report(self, category: str, message: str,
               vm: Optional["VirtualMachine"] = None) -> None:
        """Record a breach of ``category``, attributed to ``vm`` if given."""
        hv = self.hypervisor
        where = f"vm={vm.name!r}: " if vm is not None else ""
        violation = Violation(category=category, message=where + message,
                              pid=None,
                              tick=hv.ticks if hv is not None else 0,
                              time_ns=hv.clock.now if hv is not None else 0)
        self._record(violation, vm.name if vm is not None else None)

    # ------------------------------------------------------------------
    # hooks (called by the hypervisor)
    # ------------------------------------------------------------------

    def on_clock_advance(self, delta_ns: int) -> None:
        if delta_ns < 0:
            self.report("clock-monotonic",
                        f"host clock advanced by negative delta {delta_ns}")
            return
        self._clock_total += delta_ns
        self._pending_ns += delta_ns

    def on_run(self, vm: "VirtualMachine", ns: int) -> None:
        """The vCPU held the physical core for ``ns`` host nanoseconds."""
        self._pending_ns -= ns
        if self._pending_ns < 0:
            self.report(
                "vcpu-conservation",
                f"ran {ns}ns exceeding host clock advance", vm)
            self._pending_ns = 0
        self._shadow(vm).ran_ns += ns

    def on_steal(self, vm: "VirtualMachine", ns: int) -> None:
        """A runnable-but-descheduled gap was attributed as steal.  Steal
        time is concurrent with some other vCPU's run (or host idle) time,
        so it does NOT drain ``_pending_ns``."""
        self._shadow(vm).steal_ns += ns

    def on_guest_idle(self, vm: "VirtualMachine", ns: int) -> None:
        """A blocked gap was attributed as guest idle (also concurrent)."""
        self._shadow(vm).idle_ns += ns

    def on_host_idle(self, ns: int) -> None:
        """The host core itself idled (no runnable vCPU)."""
        self._pending_ns -= ns
        if self._pending_ns < 0:
            self.report("host-conservation",
                        f"host idle of {ns}ns exceeds clock delta")
            self._pending_ns = 0
        self._host_idle_ns += ns

    def on_tick(self) -> None:
        """After the hypervisor billed/debited one accounting tick."""
        self._ticks_total += 1
        hv = self.hypervisor
        cur = hv.current if hv is not None else None
        if cur is None:
            self._idle_ticks += 1
        else:
            self._shadow(cur).sampled_ticks += 1
        if self._ticks_total % self.full_check_every_ticks == 0:
            self.check_full()

    # ------------------------------------------------------------------
    # full sweep
    # ------------------------------------------------------------------

    def check_full(self) -> None:
        """Sync every ledger, then run all global and per-vCPU checks plus
        each guest machine's own kernel-level sweep."""
        hv = self.hypervisor
        if hv is None:
            return
        self.full_checks += 1
        hv.sync_ledgers()
        now = hv.clock.now
        if now < self._last_now:
            self.report("clock-monotonic",
                        f"host clock moved backwards to {now}ns")
        self._last_now = now
        observed = now - self._attach_now
        if observed != self._clock_total:
            self.report(
                "clock-monotonic",
                f"host clock moved {observed}ns but only "
                f"{self._clock_total}ns passed through advance()")
        if self._pending_ns != 0:
            self.report(
                "host-conservation",
                f"{self._pending_ns}ns of host time advanced without "
                f"attribution")
        if hv.host_idle_ns != self._host_idle_ns:
            self.report(
                "host-conservation",
                f"hypervisor host_idle_ns {hv.host_idle_ns} != shadow "
                f"{self._host_idle_ns}")
        ran_total = 0
        for vm in hv.vms:
            self._check_vm(vm)
            ran_total += vm.ran_ns
        accounted = ran_total + self._host_idle_ns + self._pending_ns
        if accounted != observed:
            self.report(
                "host-conservation",
                f"host wall {observed}ns but Σ ran + idle accounts "
                f"{accounted}ns")
        if hv.ticks != self._ticks_total:
            self.report(
                "vm-billing-conservation",
                f"hypervisor counted {hv.ticks} ticks, checker saw "
                f"{self._ticks_total}")
        if hv.idle_ticks != self._idle_ticks:
            self.report(
                "vm-billing-conservation",
                f"hypervisor idle_ticks {hv.idle_ticks} != shadow "
                f"{self._idle_ticks}")

    def _check_vm(self, vm: "VirtualMachine") -> None:
        hv = self.hypervisor
        shadow = self._shadow(vm)
        if (vm.ran_ns, vm.idle_ns, vm.steal_ns) != (
                shadow.ran_ns, shadow.idle_ns, shadow.steal_ns):
            self.report(
                "vcpu-conservation",
                f"ledger ran/idle/steal ({vm.ran_ns}/{vm.idle_ns}/"
                f"{vm.steal_ns})ns != shadow ({shadow.ran_ns}/"
                f"{shadow.idle_ns}/{shadow.steal_ns})ns", vm)
        host_wall = hv.clock.now - vm.attach_host_ns
        total = vm.ran_ns + vm.idle_ns + vm.steal_ns
        if total != host_wall:
            self.report(
                "vcpu-conservation",
                f"ran+idle+steal = {total}ns but host wall is "
                f"{host_wall}ns", vm)
        guest_elapsed = vm.machine.clock.now - vm.attach_guest_ns
        if guest_elapsed != vm.ran_ns + vm.idle_ns:
            self.report(
                "vcpu-conservation",
                f"guest clock advanced {guest_elapsed}ns but ran+idle is "
                f"{vm.ran_ns + vm.idle_ns}ns", vm)
        injected = vm.machine.kernel.timekeeper.steal_ns
        if injected != vm.steal_ns:
            self.report(
                "steal-injection",
                f"guest timekeeper reports {injected}ns steal, hypervisor "
                f"ledger has {vm.steal_ns}ns", vm)
        if vm.sampled_ticks != shadow.sampled_ticks:
            self.report(
                "vm-billing-conservation",
                f"vm sampled {vm.sampled_ticks} ticks, checker saw "
                f"{shadow.sampled_ticks}", vm)
        expect_billed = vm.sampled_ticks * hv.cfg.tick_ns
        if vm.billed_total_ns != expect_billed:
            self.report(
                "vm-billing-conservation",
                f"billed {vm.billed_total_ns}ns != {vm.sampled_ticks} "
                f"sampled ticks x {hv.cfg.tick_ns}ns", vm)
        guest_checker = vm.machine.invariant_checker
        if guest_checker is not None:
            guest_checker.check_full()
