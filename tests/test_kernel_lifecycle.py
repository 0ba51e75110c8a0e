"""Process lifecycle tests: fork, wait, exit, threads, OOM, reparenting."""

import gc

import pytest

from repro import Machine, default_config
from repro.config import MemoryConfig
from repro.kernel import procfs
from repro.kernel.process import TaskState
from repro.kernel.signals import SIGCONT, SIGKILL, SIGSTOP
from repro.programs.base import GuestFunction
from repro.programs.attackers import make_fork_attacker
from repro.programs.ops import Compute, Mem, Provenance, Syscall
from repro.programs.stdlib import install_standard_libraries

from .guest_helpers import run_all, spawn_fn


@pytest.fixture
def m():
    return Machine(default_config())


class TestForkWait:
    def test_fork_returns_child_pid(self, m):
        seen = {}

        def child(ctx):
            yield Compute(100)
            return 5

        def body(ctx):
            pid = yield Syscall(
                "fork", (GuestFunction("c", child, Provenance.USER),))
            seen["child_pid"] = pid
            result = yield Syscall("waitpid", (pid,))
            seen["wait"] = result

        task = spawn_fn(m, body)
        run_all(m, [task])
        pid = seen["child_pid"]
        assert pid > task.pid
        assert seen["wait"] == (pid, ("exited", 5))

    def test_fork_without_body_exits_zero(self, m):
        seen = {}

        def body(ctx):
            pid = yield Syscall("fork", (None,))
            seen["wait"] = yield Syscall("waitpid", (pid,))

        task = spawn_fn(m, body)
        run_all(m, [task])
        assert seen["wait"][1] == ("exited", 0)

    def test_wait_with_no_children_echild(self, m):
        seen = {}

        def body(ctx):
            seen["r"] = yield Syscall("waitpid", ())

        task = spawn_fn(m, body)
        run_all(m, [task])
        assert seen["r"] == -10  # ECHILD

    def test_wait_any_child(self, m):
        seen = {"reaped": []}

        def body(ctx):
            for _ in range(3):
                yield Syscall("fork", (None,))
            for _ in range(3):
                result = yield Syscall("waitpid", ())
                seen["reaped"].append(result[0])

        task = spawn_fn(m, body)
        run_all(m, [task])
        assert len(set(seen["reaped"])) == 3

    def test_wait_nohang_returns_zero(self, m):
        seen = {}

        def slow_child(ctx):
            yield Syscall("nanosleep", (10_000_000,))

        def body(ctx):
            yield Syscall(
                "fork", (GuestFunction("c", slow_child, Provenance.USER),))
            seen["nohang"] = yield Syscall("waitpid", (-1, True))
            seen["hang"] = yield Syscall("waitpid", (-1,))

        task = spawn_fn(m, body)
        run_all(m, [task])
        assert seen["nohang"] == 0
        assert seen["hang"][1][0] == "exited"

    def test_zombie_until_reaped(self, m):
        child_pids = {}

        def body(ctx):
            pid = yield Syscall("fork", (None,))
            child_pids["pid"] = pid
            # Sleep without reaping: the child must stay a zombie.
            yield Syscall("nanosleep", (20_000_000,))
            child = m.kernel.task_by_pid(pid)
            child_pids["state_before_reap"] = child.state
            yield Syscall("waitpid", (pid,))
            child_pids["state_after_reap"] = child.state

        task = spawn_fn(m, body)
        run_all(m, [task])
        assert child_pids["state_before_reap"] is TaskState.ZOMBIE
        assert child_pids["state_after_reap"] is TaskState.DEAD

    def test_children_rusage_accumulates(self, m):
        seen = {}

        def busy_child(ctx):
            yield Compute(50_000_000)  # ~20 ms: several ticks

        def body(ctx):
            pid = yield Syscall(
                "fork", (GuestFunction("c", busy_child, Provenance.USER),))
            seen["pid"] = pid
            yield Syscall("waitpid", (pid,))

        task = spawn_fn(m, body)
        run_all(m, [task])
        assert task.acct_cutime_ns > 0
        # Reaping released the child's execution state, not its books.
        child = m.kernel.task_by_pid(seen["pid"])
        assert child.exec_state is None
        assert task.acct_cutime_ns == child.acct_utime_ns


class TestExitOnlyChild:
    """A child forked with no ``child_fn`` only exits: it owns a PCB, its
    execution state and its exit(0) frame, but no address space or guest
    view, and signals, waitpid, procfs and the OOM killer treat it as any
    other child."""

    def test_fork_without_body_builds_no_address_space(self, m):
        mm = m.kernel.mm
        seen = {}

        def body(ctx):
            before = (mm._next_asid, dict(mm._spaces))
            pid = yield Syscall("fork", (None,))
            child = m.kernel.task_by_pid(pid)
            seen["after"] = (mm._next_asid, dict(mm._spaces))
            seen["before"] = before
            seen["child"] = (child.mm, child.guest_ctx,
                             len(child.exec_state.frames))
            yield Syscall("waitpid", (pid,))

        run_all(m, [spawn_fn(m, body)])
        assert seen["after"] == seen["before"]
        assert seen["child"] == (None, None, 1)

    def test_fork_with_body_still_builds_one(self, m):
        mm = m.kernel.mm
        seen = {}

        def child(ctx):
            yield Compute(100)

        def body(ctx):
            asid = mm._next_asid
            pid = yield Syscall(
                "fork", (GuestFunction("c", child, Provenance.USER),))
            task = m.kernel.task_by_pid(pid)
            seen["asids"] = mm._next_asid - asid
            seen["views"] = (task.mm is not None, task.guest_ctx is not None)
            yield Syscall("waitpid", (pid,))

        run_all(m, [spawn_fn(m, body)])
        assert seen == {"asids": 1, "views": (True, True)}

    @pytest.mark.parametrize("signals, states, nohang, exit", [
        ((), [], 0, (0, None)),
        ((SIGKILL,), ["zombie"], ("exited", 128 + SIGKILL),
         (128 + SIGKILL, SIGKILL)),
        # A stopped child reports nothing to a parent that does not
        # trace it; SIGCONT lets it exit.
        ((SIGSTOP,), ["stopped"], 0, (0, None)),
        # SIGCONT wakes the child with preemption: it runs its exit(0)
        # before the kill call returns.
        ((SIGSTOP, SIGCONT), ["stopped", "zombie"], ("exited", 0),
         (0, None)),
    ])
    def test_signals_waitpid_and_procfs(self, m, signals, states, nohang,
                                        exit):
        """Signals sent to a READY exit-only child, then a WNOHANG waitpid
        and, if that found nothing, SIGCONT and a blocking one."""
        seen = {}

        def body(ctx):
            pid = yield Syscall("fork", (None,))
            child = m.kernel.task_by_pid(pid)
            seen["ready"] = child.state is TaskState.READY
            seen["stat"] = procfs.stat(m.kernel, pid)
            seen["states"] = []
            for sig in signals:
                rc = yield Syscall("kill", (pid, sig))
                seen["states"].append((rc, child.state.value))
            seen["nohang"] = yield Syscall("waitpid", (pid, True))
            if not seen["nohang"]:
                if child.state is TaskState.STOPPED:
                    yield Syscall("kill", (pid, SIGCONT))
                seen["wait"] = yield Syscall("waitpid", (pid,))
            seen["exit"] = (child.exit_code, child.exit_signal)
            seen["pid"] = pid

        run_all(m, [spawn_fn(m, body)])
        pid = seen["pid"]
        assert seen["ready"]
        assert seen["stat"]["rss_pages"] == 0
        assert seen["stat"]["state"] == "R"
        assert seen["states"] == [(0, state) for state in states]
        if nohang:
            assert seen["nohang"] == (pid, nohang)
        else:
            assert seen["nohang"] == 0
            assert seen["wait"] == (pid, ("exited", 0))
        assert seen["exit"] == exit

    def test_oom_killer_picks_the_resident_task(self):
        cfg = default_config(memory=MemoryConfig(
            ram_bytes=4 * 1024 * 1024, swap_bytes=1 * 1024 * 1024))
        m = Machine(cfg)
        seen = {}

        def hog(ctx):
            addr = yield Syscall("mmap", (8,))
            for page in range(8):
                yield Mem(addr + page * 4096, write=True)
            yield Syscall("nanosleep", (10**9,))

        def body(ctx):
            yield Syscall("nanosleep", (5_000_000,))
            pid = yield Syscall("fork", (None,))
            child = m.kernel.task_by_pid(pid)
            seen["child_ready"] = child.state is TaskState.READY
            seen["killed"] = m.kernel.oom_kill(m.kernel.task_by_pid(1))
            seen["wait"] = yield Syscall("waitpid", (pid,))
            seen["pid"] = pid

        hog_task = spawn_fn(m, hog, name="hog")
        parent = spawn_fn(m, body, name="parent")
        run_all(m, [hog_task, parent])
        assert seen["child_ready"] and seen["killed"]
        assert hog_task.exit_signal == SIGKILL
        assert parent.exit_signal is None
        assert seen["wait"] == (seen["pid"], ("exited", 0))


class TestThreads:
    def test_clone_shares_address_space(self, m):
        seen = {}

        def worker(ctx):
            yield Compute(100)
            return 0

        def body(ctx):
            tid = yield Syscall(
                "clone_thread",
                (GuestFunction("w", worker, Provenance.USER), ()))
            thread = m.kernel.task_by_pid(tid)
            seen["same_mm"] = thread.mm is m.kernel.task_by_pid(1).mm
            seen["tgid"] = thread.tgid
            yield Syscall("waitpid", (tid,))

        task = spawn_fn(m, body)
        run_all(m, [task])
        assert seen["same_mm"]
        assert seen["tgid"] == task.tgid

    def test_thread_group_listing(self, m):
        seen = {}

        def worker(ctx):
            yield Syscall("nanosleep", (5_000_000,))

        def body(ctx):
            tids = []
            for _ in range(3):
                tid = yield Syscall(
                    "clone_thread",
                    (GuestFunction("w", worker, Provenance.USER), ()))
                tids.append(tid)
            seen["listed"] = yield Syscall("proc_threads", (1,))
            for tid in tids:
                yield Syscall("waitpid", (tid,))

        task = spawn_fn(m, body)
        run_all(m, [task])
        assert len(seen["listed"]) == 4  # main + 3 workers

    def test_rusage_aggregates_thread_group(self, m):
        def worker(ctx):
            yield Compute(50_000_000)

        seen = {}

        def body(ctx):
            tid = yield Syscall(
                "clone_thread",
                (GuestFunction("w", worker, Provenance.USER), ()))
            yield Syscall("waitpid", (tid,))
            seen["rusage"] = yield Syscall("getrusage")

        task = spawn_fn(m, body)
        run_all(m, [task])
        assert seen["rusage"]["utime_ns"] > 0


class TestOom:
    def test_hog_is_killed_when_swap_exhausts(self):
        cfg = default_config(memory=MemoryConfig(
            ram_bytes=2 * 1024 * 1024, swap_bytes=1 * 1024 * 1024))
        m = Machine(cfg)

        def hog(ctx):
            addr = yield Syscall("mmap", (2048,))  # 8 MiB >> RAM + swap
            for page in range(2048):
                yield Mem(addr + page * 4096, write=True)

        task = spawn_fn(m, hog)
        run_all(m, [task])
        assert task.exit_signal == SIGKILL
        assert m.kernel.mm.oom_kills >= 1

    def test_oom_picks_biggest_not_requester(self):
        cfg = default_config(memory=MemoryConfig(
            ram_bytes=4 * 1024 * 1024, swap_bytes=1 * 1024 * 1024))
        m = Machine(cfg)

        def hog(ctx):
            addr = yield Syscall("mmap", (4096,))
            for page in range(4096):
                yield Mem(addr + page * 4096, write=True)
                yield Compute(1_000)

        def small(ctx):
            addr = yield Syscall("mmap", (4,))
            for _ in range(2_000):
                yield Mem(addr, write=True)
                yield Compute(50_000)

        hog_task = spawn_fn(m, hog, name="hog")
        small_task = spawn_fn(m, small, name="small")
        run_all(m, [small_task], max_s=120)
        assert small_task.exit_signal is None
        assert hog_task.exit_signal == SIGKILL


class TestExitCleanup:
    def test_children_reparented(self, m):
        grandchild_pid = {}

        def child(ctx):
            pid = yield Syscall("fork", (None,))
            grandchild_pid["pid"] = pid
            # Exit without reaping the grandchild.
            return 0

        def body(ctx):
            pid = yield Syscall(
                "fork", (GuestFunction("c", child, Provenance.USER),))
            yield Syscall("waitpid", (pid,))

        task = spawn_fn(m, body)
        run_all(m, [task])
        orphan = m.kernel.task_by_pid(grandchild_pid["pid"])
        assert orphan.parent is None

    def test_exit_frees_memory(self, m):
        def body(ctx):
            addr = yield Syscall("mmap", (8,))
            for i in range(8):
                yield Mem(addr + i * 4096, write=True)

        free_before = m.kernel.mm.phys.free_frames
        task = spawn_fn(m, body)
        run_all(m, [task])
        assert m.kernel.mm.phys.free_frames == free_before
        assert task.mm is None

    def test_kill_terminates_target(self, m):
        def victim(ctx):
            yield Compute(10**12)  # would run a very long time

        def killer(ctx):
            yield Syscall("nanosleep", (5_000_000,))
            yield Syscall("kill", (1, SIGKILL))

        victim_task = spawn_fn(m, victim, name="victim")
        killer_task = spawn_fn(m, killer, name="killer", uid=0)
        run_all(m, [victim_task, killer_task])
        assert victim_task.exit_signal == SIGKILL

    def test_kill_requires_matching_uid(self, m):
        seen = {}

        def victim(ctx):
            yield Syscall("nanosleep", (50_000_000,))

        def killer(ctx):
            yield Syscall("nanosleep", (1_000_000,))
            seen["r"] = yield Syscall("kill", (1, SIGKILL))

        victim_task = spawn_fn(m, victim, name="victim", uid=1000)
        killer_task = spawn_fn(m, killer, name="killer", uid=2000)
        run_all(m, [victim_task, killer_task])
        assert seen["r"] == -1  # EPERM
        assert victim_task.exit_signal is None


def _run_fork_program(forks):
    machine = Machine(default_config())
    install_standard_libraries(machine.kernel.libraries)
    task = machine.new_shell().run_command(make_fork_attacker(forks=forks))
    machine.run_until_exit([task], max_ns=300 * 10**9)
    return machine, task


class TestReapedTasksKeepOnlyTheirBooks:
    """A reaped child stays in ``kernel.tasks`` for procfs, the invariant
    walks and the group sums, but frees what only a runnable task uses."""

    RELEASED = ("exec_state", "guest_ctx", "env", "debug", "children",
                "tracees", "pending_signals", "cpus_allowed")

    def test_fork_churn_retains_few_objects_per_reaped_child(self):
        _run_fork_program(10)  # warm-up: first-use imports and caches
        machine, parent = _run_fork_program(100)
        gc.collect()
        small = len(gc.get_objects())
        del machine, parent
        machine, parent = _run_fork_program(300)
        gc.collect()
        large = len(gc.get_objects())
        # 20 per child when reaped tasks kept their execution state.
        assert (large - small) / 200 <= 5

        children = [t for t in machine.kernel.tasks.values()
                    if t.parent is parent]
        assert len(children) == 300
        for child in children:
            assert child.state is TaskState.DEAD
            for name in self.RELEASED:
                assert getattr(child, name) is None, name
        child = children[0]
        row = procfs.stat(machine.kernel, child.pid)
        assert row["pid"] == child.pid and row["state"] == "X"
        assert row["ppid"] == parent.pid
        assert row in procfs.stat_all(machine.kernel, include_dead=True)
        assert row not in procfs.stat_all(machine.kernel)
        # RUSAGE_CHILDREN still reads each child's books at reap time.
        usage = machine.kernel.accounting.usage
        assert parent.acct_cutime_ns == sum(usage(c).utime_ns
                                            for c in children)
        assert parent.acct_cstime_ns == sum(usage(c).stime_ns
                                            for c in children)
        assert parent.acct_cutime_ns + parent.acct_cstime_ns > 0
