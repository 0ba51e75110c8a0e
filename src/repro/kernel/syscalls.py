"""The system-call table.

Each handler is a **cost** plus a **body**.  The cost is a cycle count, or
a function of the call's arguments that returns one and may raise (argument
validation that must fail before anything is charged).  The body is a plain
function that runs at the simulated instant the cost completes and returns
the call's result.  The engine wraps every call in entry/exit cost phases
and charges all of it as stime to the calling task, under the provenance
of the code that made the call (see :class:`repro.kernel.engine.SyscallFrame`).

The few calls that block or charge in more than one phase (``waitpid``
with nothing ready, ``nanosleep``, ``ptrace(CONT)``, ``execve``) return a
*continuation*: a generator yielding ``Compute``, ``Block`` or
``ReplaceImage`` whose return value is the result.

Errors modelled after errno are raised as :class:`KernelError` subclasses;
the engine converts them to negative return values, like the real ABI.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

from ..errors import (
    InvalidArgument,
    NoChildProcesses,
    NoSuchProcess,
    PermissionDenied,
)
from ..hw.cpu import Watchpoint
from ..programs.base import GuestFunction
from ..programs.ops import Compute
from .engine import Block, ReplaceImage
from .process import Task, TaskState
from .signals import SIGSTOP

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import CostModel
    from .kernel import Kernel

_STOPPED = TaskState.STOPPED
_ZOMBIE = TaskState.ZOMBIE
_DEAD = TaskState.DEAD

#: A handler's cost: cycles, or ``cost(kernel, task, *args) -> cycles``.
Cost = Union[int, Callable[..., int]]


class SyscallHandler:
    """One system call: its cost and its body."""

    __slots__ = ("cost", "body")

    def __init__(self, cost: Cost, body: Callable) -> None:
        self.cost = cost
        self.body = body


class SyscallTable:
    """name → handler registry, plus per-name invocation counts."""

    def __init__(self, kernel: "Kernel") -> None:
        self.handlers: Dict[str, SyscallHandler] = {}
        #: Calls whose handler started, by name (ENOSYS calls excluded).
        self.invocations: Dict[str, int] = {}
        for name, (cost, body) in _default_handlers(kernel.costs).items():
            self.register(name, cost, body)

    def register(self, name: str, cost: Cost, body: Callable) -> None:
        self.handlers[name] = SyscallHandler(cost, body)

    def names(self):
        return sorted(self.handlers)


# ---------------------------------------------------------------------------
# Process lifecycle
# ---------------------------------------------------------------------------

def sys_exit(kernel: "Kernel", task: Task, code: int = 0):
    kernel.do_exit(task, code)
    return 0


def sys_fork(kernel: "Kernel", task: Task,
             child_fn: Optional[GuestFunction] = None, child_args: Tuple = ()):
    """fork(): the child runs ``child_fn`` (see DESIGN.md on the generator
    model of fork); with no ``child_fn`` the child exits immediately."""
    return kernel.do_fork(task, child_fn, child_args).pid


def sys_clone_thread(kernel: "Kernel", task: Task, fn: GuestFunction,
                     args: Tuple = ()):
    """clone(CLONE_VM|CLONE_THREAD): spawn a thread sharing the mm."""
    return kernel.do_clone_thread(task, fn, args).pid


def sys_execve(kernel: "Kernel", task: Task, program):
    """A continuation from the start: the point of no return, where the
    engine replaces the whole frame stack."""
    yield ReplaceImage(program)
    return 0  # unreachable: the syscall frame is gone


def sys_waitpid(kernel: "Kernel", task: Task, pid: int = -1,
                nohang: bool = False):
    """Wait for a child to exit or a tracee to stop.

    Returns ``(pid, ("exited", code))``, ``(pid, ("stopped", sig))``, or 0
    when ``nohang`` is set and nothing is ready (WNOHANG).
    """
    report = _wait_report(kernel, task, pid)
    if report is not None:
        return report
    if nohang:
        return 0
    return _wait_blocked(kernel, task, pid)


def _wait_blocked(kernel: "Kernel", task: Task, pid: int):
    while True:
        yield Block(f"wait:{task.pid}")
        report = _wait_report(kernel, task, pid)
        if report is not None:
            return report


def _wait_report(kernel: "Kernel", task: Task, pid: int):
    """Reap or report the first waitable child, or None if none is ready
    yet; raises ECHILD when nothing could ever be.

    A zombie child is reaped first; otherwise a stop not yet reported to
    this tracer is reported, children before tracees.  One pass over each
    list, with no candidate list built: waitpid polls this on every wake.
    """
    stopped = None
    waitable = False
    for child in task.children:
        if pid != -1 and child.pid != pid:
            continue
        state = child.state
        if state is _ZOMBIE:
            code = child.exit_code
            kernel.reap(task, child)
            return (child.pid, ("exited", code))
        if state is not _DEAD:
            waitable = True
            if (stopped is None and state is _STOPPED
                    and child.stop_pending_report and child.tracer is task):
                stopped = child
    if stopped is None:
        for tracee_pid in task.tracees:
            if pid != -1 and tracee_pid != pid:
                continue
            tracee = kernel.tasks.get(tracee_pid)
            if tracee is None or tracee.state is _DEAD:
                continue
            waitable = True
            if (tracee.state is _STOPPED and tracee.stop_pending_report
                    and tracee.tracer is task):
                stopped = tracee
                break
    if stopped is not None:
        stopped.stop_pending_report = False
        return (stopped.pid, ("stopped", stopped.stop_signal))
    if not waitable:
        raise NoChildProcesses("nothing to wait for")
    return None


def sys_getpid(kernel: "Kernel", task: Task):
    return task.tgid


def sys_gettid(kernel: "Kernel", task: Task):
    return task.pid


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

def _nanosleep_cost(kernel: "Kernel", task: Task, duration_ns: int) -> int:
    if duration_ns < 0:
        raise InvalidArgument("negative sleep")
    return 500


def sys_nanosleep(kernel: "Kernel", task: Task, duration_ns: int):
    """A continuation: the engine starts it at the instant the call's cost
    completes, which arms the wake-up and parks the caller."""
    deadline = kernel.clock._now + duration_ns
    channel = f"sleep:{task.pid}:{deadline}"
    kernel.events.schedule(deadline, partial(kernel.wake_channel, channel),
                           name="sleep-wake")
    yield Block(channel)
    return 0


def sys_sched_yield(kernel: "Kernel", task: Task):
    kernel.request_resched()
    return 0


def sys_getcpu(kernel: "Kernel", task: Task):
    """getcpu(2): which CPU the caller is executing on right now.  The
    cross-CPU tick-dodging attacker pairs this with ``clock_gettime`` to
    predict the *local* tick grid (per-CPU ticks are staggered)."""
    return kernel.cpu_index


def _migrate_cost(kernel: "Kernel", task: Task, cpu: int) -> int:
    if not 0 <= cpu < kernel.nproc:
        raise InvalidArgument(f"cpu {cpu} out of range")
    return 1_000


def sys_migrate(kernel: "Kernel", task: Task, cpu: int):
    """sched_setaffinity(2) collapsed to its attack-relevant core: pin
    the calling task to ``cpu`` and move it there at the next slice
    barrier.  A uniprocessor accepts only cpu 0 (a no-op), mirroring a
    full-mask setaffinity call."""
    return kernel.migrate_current(cpu)


def _setpriority_cost(kernel: "Kernel", task: Task, nice: int,
                     pid: Optional[int] = None) -> int:
    if not -20 <= nice <= 19:
        raise InvalidArgument(f"nice {nice} out of range")
    return 800


def sys_setpriority(kernel: "Kernel", task: Task, nice: int,
                    pid: Optional[int] = None):
    """setpriority(PRIO_PROCESS): raising priority requires root."""
    target = task if pid is None else kernel.task_by_pid(pid)
    if target is None:
        raise NoSuchProcess(f"pid {pid}")
    if nice < target.nice and task.uid != 0:
        raise PermissionDenied("lowering nice requires root")
    if task.uid != 0 and target.uid != task.uid:
        raise PermissionDenied("cannot renice another user's process")
    target.nice = nice
    kernel.scheduler.on_nice_change(target)
    return 0


def sys_getpriority(kernel: "Kernel", task: Task, pid: Optional[int] = None):
    target = task if pid is None else kernel.task_by_pid(pid)
    if target is None:
        raise NoSuchProcess(f"pid {pid}")
    return target.nice


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------

def sys_kill(kernel: "Kernel", task: Task, pid: int, sig: int):
    target = kernel.task_by_pid(pid)
    if target is None or not target.alive:
        raise NoSuchProcess(f"pid {pid}")
    if task.uid != 0 and task.uid != target.uid:
        raise PermissionDenied("kill: mismatched uid")
    kernel.post_signal(target, sig, sender_pid=task.pid)
    return 0


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def sys_brk(kernel: "Kernel", task: Task, increment_bytes: int):
    return task.mm.brk(increment_bytes)


def sys_mmap(kernel: "Kernel", task: Task, npages: int, name: str = "mmap"):
    return task.mm.mmap(npages, name)


def sys_munmap(kernel: "Kernel", task: Task, start: int):
    region = task.mm.munmap(start)
    kernel.mm.release_region_frames(task.mm, region.start, region.npages)
    return 0


def sys_getrusage(kernel: "Kernel", task: Task):
    """RUSAGE_SELF for the whole thread group, like getrusage(2)."""
    return kernel.rusage(task)


def sys_rdtsc(kernel: "Kernel", task: Task):
    """Not a real syscall (rdtsc is unprivileged); kept here for symmetry."""
    return kernel.cpu.read_tsc()


def sys_clock_gettime(kernel: "Kernel", task: Task):
    """CLOCK_MONOTONIC: this kernel's own nanosecond clock.  On bare metal
    it tracks wall time; under a hypervisor it advances only while the vCPU
    runs (or idles), which is exactly the gap the steal-time estimator in
    :mod:`repro.metering.steal` measures."""
    return kernel.clock.now


# ---------------------------------------------------------------------------
# ptrace
# ---------------------------------------------------------------------------

def _ptrace_target(kernel: "Kernel", task: Task, pid: int,
                   must_be_traced: bool = True,
                   must_be_stopped: bool = True) -> Task:
    target = kernel.task_by_pid(pid)
    if target is None or not target.alive:
        raise NoSuchProcess(f"pid {pid}")
    if must_be_traced and target.tracer is not task:
        raise PermissionDenied(f"pid {pid} is not traced by caller")
    if must_be_stopped and target.state is not TaskState.STOPPED:
        raise InvalidArgument(f"pid {pid} is not stopped")
    return target


def sys_ptrace(kernel: "Kernel", task: Task, request: str, pid: int,
               *args):
    """ptrace(): ATTACH / CONT / DETACH / POKEUSER_DR / SINGLESTEP-ish.

    Permission model after the paper's §V-C remark: tracing is gated by
    an LSM-style policy — root always may; an ordinary user may trace only
    its own processes when the kernel's policy allows it.
    """
    if request == "attach":
        target = kernel.task_by_pid(pid)
        if target is None or not target.alive:
            raise NoSuchProcess(f"pid {pid}")
        if target is task:
            raise InvalidArgument("cannot attach to self")
        if target.tracer is not None:
            raise PermissionDenied(f"pid {pid} already traced")
        if task.uid != 0:
            if not kernel.policy_allow_user_ptrace:
                raise PermissionDenied("ptrace denied by security policy")
            if task.uid != target.uid:
                raise PermissionDenied("ptrace: uid mismatch")
        target.tracer = task
        task.tracees.add(target.pid)
        kernel.post_signal(target, SIGSTOP, sender_pid=task.pid)
        return 0

    if request == "detach":
        target = _ptrace_target(kernel, task, pid, must_be_stopped=False)
        target.tracer = None
        task.tracees.discard(target.pid)
        if target.state is TaskState.STOPPED:
            kernel.resume_stopped(target)
        return 0

    if request == "cont":
        return _ptrace_cont(kernel, _ptrace_target(kernel, task, pid))

    if request == "pokeuser_dr":
        target = _ptrace_target(kernel, task, pid)
        slot, watchpoint = args
        if watchpoint is not None and not isinstance(watchpoint, Watchpoint):
            raise InvalidArgument("expected a Watchpoint or None")
        target.debug.set_slot(slot, watchpoint)
        return 0

    if request == "peekuser_dr":
        target = _ptrace_target(kernel, task, pid)
        (slot,) = args
        return target.debug.get_slot(slot)

    raise InvalidArgument(f"unknown ptrace request {request!r}")


def _ptrace_cont(kernel: "Kernel", target: Task):
    # Second phase: the tracer's half of the stop/resume round trip.
    yield Compute(kernel.costs.ptrace_stop_cycles)
    kernel.resume_stopped(target)
    return 0


# ---------------------------------------------------------------------------
# Dynamic loading support (called by the libc dlopen/dlclose wrappers)
# ---------------------------------------------------------------------------

def sys_dl_load(kernel: "Kernel", task: Task, name: str):
    lib = kernel.libraries.lookup(name)
    link_map = task.guest_ctx.shared["_link_map"]
    link_map.append(lib)
    return lib


def sys_dl_unload(kernel: "Kernel", task: Task, lib):
    link_map = task.guest_ctx.shared["_link_map"]
    link_map.remove(lib)
    return 0


# ---------------------------------------------------------------------------
# Introspection (procfs-flavoured)
# ---------------------------------------------------------------------------

def sys_proc_threads(kernel: "Kernel", task: Task, pid: int):
    """List the alive thread ids of ``pid``'s thread group (like reading
    /proc/<pid>/task)."""
    target = kernel.task_by_pid(pid)
    if target is None or not target.alive:
        raise NoSuchProcess(f"pid {pid}")
    tgid = target.tgid
    return sorted([t.pid for t in kernel.tasks.values()
                   if t.tgid == tgid and t.alive])


def sys_proc_stat(kernel: "Kernel", task: Task, pid: Optional[int] = None):
    """Read another task's accounting view (like /proc/<pid>/stat)."""
    target = task if pid is None else kernel.task_by_pid(pid)
    if target is None:
        raise NoSuchProcess(f"pid {pid}")
    usage = kernel.accounting.usage(target)
    return {
        "pid": target.pid,
        "name": target.name,
        "state": target.state.value,
        "nice": target.nice,
        "utime_ns": usage.utime_ns,
        "stime_ns": usage.stime_ns,
        "minflt": target.minor_faults,
        "majflt": target.major_faults,
    }


def _default_handlers(costs: "CostModel") -> Dict[str, Tuple[Cost, Callable]]:
    return {
        "exit": (costs.exit_cycles, sys_exit),
        "fork": (costs.fork_cycles, sys_fork),
        "clone_thread": (costs.fork_cycles, sys_clone_thread),
        "execve": (costs.execve_cycles, sys_execve),
        "waitpid": (costs.wait_cycles, sys_waitpid),
        "getpid": (100, sys_getpid),
        "gettid": (100, sys_gettid),
        "nanosleep": (_nanosleep_cost, sys_nanosleep),
        "sched_yield": (300, sys_sched_yield),
        "getcpu": (150, sys_getcpu),
        "migrate": (_migrate_cost, sys_migrate),
        "setpriority": (_setpriority_cost, sys_setpriority),
        "getpriority": (300, sys_getpriority),
        "kill": (costs.signal_deliver_cycles // 2, sys_kill),
        "brk": (1_500, sys_brk),
        "mmap": (2_500, sys_mmap),
        "munmap": (2_000, sys_munmap),
        "getrusage": (1_000, sys_getrusage),
        "rdtsc": (30, sys_rdtsc),
        "clock_gettime": (120, sys_clock_gettime),
        "ptrace": (costs.ptrace_request_cycles, sys_ptrace),
        "_dl_load": (3_000, sys_dl_load),
        "_dl_unload": (1_500, sys_dl_unload),
        "proc_stat": (1_200, sys_proc_stat),
        "proc_threads": (1_500, sys_proc_threads),
    }
