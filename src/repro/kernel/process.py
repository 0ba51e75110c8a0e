"""Task control blocks.

A :class:`Task` is a schedulable entity — Linux-style, threads are tasks
that share an address space (``mm``) and a thread-group id (``tgid``).  The
accounting fields live directly on the task because that is where Linux
keeps them (``task_struct.utime/stime``), and because the paper's attacks
are precisely about *which task's fields* a given slice of time lands in.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..hw.cpu import DebugRegisters
from ..programs.ops import Provenance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..programs.base import GuestContext
    from .engine import ExecState
    from .mm.vm import AddressSpace


class TaskState(enum.Enum):
    """Scheduler-visible task states."""

    #: Currently executing on the CPU.
    RUNNING = "running"
    #: Runnable, waiting in the run queue.
    READY = "ready"
    #: Blocked on an event (child exit, disk I/O, sleep...).
    WAITING = "waiting"
    #: Stopped by SIGSTOP or a ptrace traced-stop.
    STOPPED = "stopped"
    #: Exited, waiting for the parent to reap it.
    ZOMBIE = "zombie"
    #: Fully reaped; the PCB is inert.
    DEAD = "dead"


#: Hoisted members: reading one off the Enum class costs about 0.1 µs on
#: CPython 3.11, and every PCB and ``alive`` test reads them.
_RUNNING = TaskState.RUNNING
_READY = TaskState.READY
_ZOMBIE = TaskState.ZOMBIE
_DEAD = TaskState.DEAD


class Task:
    """One schedulable entity (process or thread).

    A reaped (DEAD) task keeps only its books: :meth:`Kernel.reap` sets
    ``exec_state``, ``guest_ctx``, ``env``, ``debug``, ``children``,
    ``tracees``, ``pending_signals`` and ``cpus_allowed`` to None.
    """

    #: Slotted: task attributes are read on every charge, schedule and
    #: signal delivery, and a run touches them hundreds of millions of
    #: times.  ``_pending_wake`` is assigned lazily by Kernel.wake and
    #: deleted on consumption, so it must be declared here.
    __slots__ = (
        "pid", "tgid", "name", "uid", "nice", "state",
        "parent", "children", "exit_code", "exit_signal",
        "mm", "guest_ctx", "exec_state", "env",
        "debug", "tracer", "tracees", "stop_signal", "stop_pending_report",
        "pending_signals", "wait_channel", "syscall_result",
        "acct_utime_ns", "acct_stime_ns", "acct_ticks",
        "acct_cutime_ns", "acct_cstime_ns",
        "minor_faults", "major_faults", "voluntary_switches",
        "involuntary_switches", "debug_exceptions", "signals_received",
        "oracle_ns", "vruntime", "ran_since_pick", "timeslice_ns",
        "last_dispatch_ns", "enqueue_seq", "_pending_wake",
        "cpu", "migrations", "cpus_allowed",
    )

    def __init__(self, pid: int, name: str, uid: int = 1000,
                 nice: int = 0, tgid: Optional[int] = None) -> None:
        self.pid = pid
        self.tgid = tgid if tgid is not None else pid
        self.name = name
        self.uid = uid
        self.nice = nice
        self.state = _READY

        # Process tree.
        self.parent: Optional["Task"] = None
        self.children: List["Task"] = []
        self.exit_code: Optional[int] = None
        #: Signal that killed the task, if any.
        self.exit_signal: Optional[int] = None

        # Memory and execution.
        self.mm: Optional["AddressSpace"] = None
        self.guest_ctx: Optional["GuestContext"] = None
        self.exec_state: Optional["ExecState"] = None
        #: Per-process environment (LD_PRELOAD lives here).
        self.env: Dict[str, str] = {}

        # Debugging / tracing.
        self.debug = DebugRegisters()
        self.tracer: Optional["Task"] = None
        self.tracees: Set[int] = set()
        #: Set while stopped; holds the signal that caused the stop.
        self.stop_signal: Optional[int] = None
        #: Stop events not yet consumed by a wait() from parent/tracer.
        self.stop_pending_report = False

        # Signals.
        self.pending_signals: List[Tuple[int, Optional[int]]] = []

        # Blocking bookkeeping.
        self.wait_channel: Optional[str] = None
        #: Result to deliver to the task's in-flight syscall when it resumes.
        self.syscall_result: object = None

        # --- accounting (billing view; filled by the active scheme) -------
        self.acct_utime_ns = 0
        self.acct_stime_ns = 0
        self.acct_ticks = 0
        #: Accumulated usage of reaped children (RUSAGE_CHILDREN).
        self.acct_cutime_ns = 0
        self.acct_cstime_ns = 0

        # --- rusage-style counters ----------------------------------------
        self.minor_faults = 0
        self.major_faults = 0
        self.voluntary_switches = 0
        self.involuntary_switches = 0
        self.debug_exceptions = 0
        self.signals_received = 0

        # --- ground-truth oracle -------------------------------------------
        #: Exact ns by (mode-is-user, provenance) — the simulator's omniscient
        #: attribution, unavailable on real hardware.
        self.oracle_ns: Dict[Tuple[bool, Provenance], int] = {}

        # --- scheduler fields ------------------------------------------------
        #: CFS virtual runtime.
        self.vruntime = 0
        #: ns executed since this task was last picked (CFS slice check).
        self.ran_since_pick = 0
        #: O(1)/RR remaining timeslice.
        self.timeslice_ns = 0
        #: Absolute time this task was last dispatched onto the CPU.
        self.last_dispatch_ns = 0
        #: Monotone counter for FIFO tie-breaks inside schedulers.
        self.enqueue_seq = 0

        # --- SMP placement ---------------------------------------------------
        #: Index of the CPU whose run queue owns this task.
        self.cpu = 0
        #: Number of times the task changed CPUs (wake balancing, the load
        #: balancer, or sys_migrate).
        self.migrations = 0
        #: Allowed CPU set (None = any).  sys_migrate pins to the target;
        #: the load balancer never moves a task off its allowed set.
        self.cpus_allowed: Optional[Set[int]] = None

    # ---- convenience -------------------------------------------------------

    @property
    def alive(self) -> bool:
        # Identity comparisons, not tuple membership.  The kernel's switch,
        # wake, signal and exit paths compare states themselves rather
        # than pay for a property call.
        state = self.state
        return state is not _ZOMBIE and state is not _DEAD

    @property
    def runnable(self) -> bool:
        state = self.state
        return state is _RUNNING or state is _READY

    @property
    def static_prio(self) -> int:
        """Linux static priority: 120 + nice (100..139)."""
        return 120 + self.nice

    def oracle_charge(self, user_mode: bool, provenance: Provenance, ns: int) -> None:
        key = (user_mode, provenance)
        self.oracle_ns[key] = self.oracle_ns.get(key, 0) + ns

    def oracle_total(self, *provenances: Provenance) -> int:
        """Total oracle ns attributed to the given provenances (any mode)."""
        wanted = set(provenances) if provenances else None
        total = 0
        for (_, prov), ns in self.oracle_ns.items():
            if wanted is None or prov in wanted:
                total += ns
        return total

    def __repr__(self) -> str:
        return (f"Task(pid={self.pid}, name={self.name!r}, "
                f"state={self.state.value}, nice={self.nice})")
