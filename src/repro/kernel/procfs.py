"""procfs-style introspection of a running machine.

Read-only views mirroring the /proc files an operator (or a suspicious
customer with shell access) would consult: per-task stat lines, meminfo,
interrupt counts and a ``top``-like snapshot.  Everything here reads
kernel state directly — it is host-side tooling, not guest-visible (guests
use the ``proc_stat``/``proc_threads`` syscalls).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from .process import TaskState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel

#: /proc/<pid>/stat state letters, mapped from simulator states.
_STATE_LETTERS = {
    TaskState.RUNNING: "R",
    TaskState.READY: "R",
    TaskState.WAITING: "S",
    TaskState.STOPPED: "T",
    TaskState.ZOMBIE: "Z",
    TaskState.DEAD: "X",
}


def stat(kernel: "Kernel", pid: int) -> Dict[str, object]:
    """The /proc/<pid>/stat analogue for one task.

    When the fault layer installed a :class:`~repro.faults.StaleProcfs`
    (``kernel.procfs_fault``), reads within the staleness window return the
    cached snapshot — the "observer sees old numbers" failure mode.
    """
    fault = kernel.procfs_fault
    if fault is not None:
        return fault.cached(("stat", pid), kernel.clock.now,
                            lambda: _stat_fresh(kernel, pid))
    return _stat_fresh(kernel, pid)


def _stat_fresh(kernel: "Kernel", pid: int) -> Dict[str, object]:
    task = kernel.task_by_pid(pid)
    if task is None:
        raise KeyError(f"no such pid {pid}")
    usage = kernel.accounting.usage(task)
    return {
        "pid": task.pid,
        "tgid": task.tgid,
        "comm": task.name,
        "state": _STATE_LETTERS[task.state],
        "ppid": task.parent.pid if task.parent else 0,
        "nice": task.nice,
        "utime_ns": usage.utime_ns,
        "stime_ns": usage.stime_ns,
        "cutime_ns": task.acct_cutime_ns,
        "cstime_ns": task.acct_cstime_ns,
        "minflt": task.minor_faults,
        "majflt": task.major_faults,
        "nvcsw": task.voluntary_switches,
        "nivcsw": task.involuntary_switches,
        "rss_pages": task.mm.rss if task.mm else 0,
        "uid": task.uid,
    }


def stat_all(kernel: "Kernel", include_dead: bool = False) -> List[Dict[str, object]]:
    rows = []
    for pid in sorted(kernel.tasks):
        task = kernel.tasks[pid]
        if not include_dead and task.state is TaskState.DEAD:
            continue
        rows.append(stat(kernel, pid))
    return rows


def meminfo(kernel: "Kernel") -> Dict[str, int]:
    """The /proc/meminfo analogue (values in pages)."""
    phys = kernel.mm.phys
    return {
        "mem_total": phys.total_frames,
        "mem_free": phys.free_frames,
        "mem_used": phys.used_frames,
        "kernel_reserved": phys.kernel_reserved,
        "swap_total": kernel.mm.swap_capacity,
        "swap_used": kernel.mm.swap_used,
        "swap_ins": kernel.mm.swap_ins,
        "swap_outs": kernel.mm.swap_outs,
        "oom_kills": kernel.mm.oom_kills,
    }


def interrupts(kernel: "Kernel") -> Dict[int, int]:
    """The /proc/interrupts analogue: per-line delivery counts."""
    return dict(kernel.pic.counts)


def uptime(kernel: "Kernel") -> Dict[str, float]:
    """Uptime and tick distribution (subject to StaleProcfs, like stat)."""
    fault = kernel.procfs_fault
    if fault is not None:
        return fault.cached(("uptime",), kernel.clock.now,
                            lambda: _uptime_fresh(kernel))
    return _uptime_fresh(kernel)


def _uptime_fresh(kernel: "Kernel") -> Dict[str, float]:
    tk = kernel.timekeeper
    return {
        "uptime_s": kernel.clock.now / 1e9,
        "jiffies": tk.jiffies,
        "user_ticks": tk.ticks_user,
        "kernel_ticks": tk.ticks_kernel,
        "idle_ticks": tk.ticks_idle,
        "steal_s": tk.steal_ns / 1e9,
    }


def cpu_stat(kernel: "Kernel") -> Dict[str, Dict[str, int]]:
    """The /proc/stat cpu-line analogue: the aggregate ``cpu`` row plus
    one ``cpuN`` row per CPU, each holding user/system/idle tick counts.
    Like the real file, a uniprocessor still shows ``cpu0`` (equal to the
    aggregate, since CPU 0 takes every tick).  Subject to StaleProcfs,
    like stat/uptime."""
    fault = kernel.procfs_fault
    if fault is not None:
        return fault.cached(("cpu_stat",), kernel.clock.now,
                            lambda: _cpu_stat_fresh(kernel))
    return _cpu_stat_fresh(kernel)


def _cpu_stat_fresh(kernel: "Kernel") -> Dict[str, Dict[str, int]]:
    tk = kernel.timekeeper
    rows = {"cpu": {"user": tk.ticks_user, "system": tk.ticks_kernel,
                    "idle": tk.ticks_idle}}
    for c in range(kernel.nproc):
        rows[f"cpu{c}"] = {"user": tk.cpu_ticks_user[c],
                           "system": tk.cpu_ticks_kernel[c],
                           "idle": tk.cpu_ticks_idle[c]}
    return rows


def top(kernel: "Kernel", limit: Optional[int] = None) -> str:
    """A ``top``-style snapshot, sorted by total CPU time."""
    rows = stat_all(kernel)
    rows.sort(key=lambda r: r["utime_ns"] + r["stime_ns"], reverse=True)
    if limit is not None:
        rows = rows[:limit]
    mem = meminfo(kernel)
    steal = kernel.timekeeper.steal_ns
    steal_note = f"  steal: {steal / 1e9:.3f}s" if steal else ""
    lines = [
        f"up {kernel.clock.now / 1e9:9.3f}s  "
        f"tasks: {len(kernel.alive_tasks())} alive  "
        f"mem: {mem['mem_used']}/{mem['mem_total']}p used  "
        f"swap: {mem['swap_used']}p{steal_note}",
        f"{'PID':>5} {'S':>1} {'NI':>3} {'UTIME':>9} {'STIME':>9} "
        f"{'RSS':>6} {'MAJFL':>6} COMMAND",
    ]
    for row in rows:
        lines.append(
            f"{row['pid']:>5} {row['state']:>1} {row['nice']:>3} "
            f"{row['utime_ns'] / 1e9:>8.3f}s {row['stime_ns'] / 1e9:>8.3f}s "
            f"{row['rss_pages']:>6} {row['majflt']:>6} {row['comm']}")
    return "\n".join(lines)
