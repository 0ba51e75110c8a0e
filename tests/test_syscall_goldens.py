"""Byte-level goldens for the system-call path.

Each scenario drives a syscall edge case with every trace category
stored and pins four sha256 digests:

* ``result`` — the experiment result document, or for hand-built
  scenarios the per-task usage/oracle ledger plus every value the guests
  saw returned;
* ``trace`` — the full trace log, ``time_ns`` included;
* ``invocations`` — :attr:`SyscallTable.invocations`;
* ``counters`` — :attr:`TraceLog.counters`.

Syscall phases (entry, cost, body, exit) are charged at exact simulated
nanoseconds; a timer tick that lands inside one of them splits it and may
preempt the caller.  These digests hold any change to the syscall
machinery to the same nanoseconds, charges, signals and trace records.
If one fails after an intentional accounting change, regenerate it
deliberately (each scenario function is the recipe) and say so in the
changelog.
"""

import hashlib
import json

import pytest

from repro import Machine, default_config
from repro.analysis.experiment import run_experiment
from repro.analysis.figures import paper_workload_params
from repro.attacks import SchedulingAttack, ThrashingAttack
from repro.kernel.signals import SIGCHLD, SIGCONT, SIGSTOP, SIGTERM
from repro.programs.base import GuestFunction, Program
from repro.programs.ops import Compute, Invoke, Provenance, Syscall
from repro.programs.stdlib import install_standard_libraries
from repro.programs.workloads import make_paper_program
from repro.virt import Hypervisor

from .guest_helpers import spawn_fn

SCALE = 0.02


def _sha(obj) -> str:
    doc = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                     default=repr)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _fingerprint(machine, result_doc):
    records = [{"t": r.time_ns, "c": r.category, "m": str(r.message),
                "pid": r.pid, "data": [[k, repr(v)] for k, v in r.data]}
               for r in machine.trace_log.records()]
    return {
        "result": _sha(result_doc),
        "trace": _sha(records),
        "invocations": _sha(machine.kernel.syscalls.invocations),
        "counters": _sha(machine.trace_log.counters),
    }


def _ledger(machine, seen):
    """Per-task usage and oracle ledger plus the guests' observations."""
    kernel = machine.kernel
    tasks = []
    for pid in sorted(kernel.tasks):
        task = kernel.tasks[pid]
        usage = kernel.accounting.usage(task)
        tasks.append({
            "pid": pid, "name": task.name, "state": task.state.value,
            "exit_code": task.exit_code, "exit_signal": task.exit_signal,
            "utime_ns": usage.utime_ns, "stime_ns": usage.stime_ns,
            "oracle": sorted([str(k), v] for k, v in task.oracle_ns.items()),
            "signals": task.signals_received,
            "voluntary": task.voluntary_switches,
            "involuntary": task.involuntary_switches,
        })
    return {"now": machine.clock.now, "cycles": machine.cpu.read_tsc(),
            "switches": kernel.context_switches, "tasks": tasks,
            "seen": seen}


def _run_paper(program, attack, cfg):
    params = paper_workload_params(SCALE)
    box = {}
    result = run_experiment(
        make_paper_program(program, **params[program]), attack=attack,
        cfg=cfg, trace=("*",),
        machine_hook=lambda m: box.__setitem__("m", m))
    return _fingerprint(box["m"], result.to_dict())


def _spawn(machine, body, seen, key, **kw):
    def wrapper(ctx):
        seen[key] = yield from body(ctx)
        return 0

    return spawn_fn(machine, wrapper, name=key, **kw)


def scenario_fork_churn():
    """(a) Fork churn at HZ=10000: a 100 µs tick lands inside entry, cost
    and exit phases, splitting them and preempting the caller."""
    return _run_paper("W", SchedulingAttack(nice=-20, forks=300),
                      default_config(hz=10_000))


def scenario_syscall_storm():
    """(a) Two tasks issuing cheap calls between uneven computes at
    HZ=10000, so ticks also land inside the 300-cycle entry and exit
    phases; ``sched_yield`` leaves its exit phase behind a resched."""
    m = Machine(default_config(hz=10_000), trace=("*",))
    seen = {}
    calls = ("getpid", "gettid", "clock_gettime", "getcpu", "rdtsc",
             "getpriority")

    def storm(ctx, salt):
        total = 0
        for i in range(2_500):
            name = "sched_yield" if i % 50 == 49 else calls[i % len(calls)]
            got = yield Syscall(name)
            total += got if isinstance(got, int) else 0
            yield Compute(137 + (i * 7_919 + salt) % 900)
        return total

    tasks = [_spawn(m, lambda ctx, s=s: storm(ctx, s), seen, f"storm{s}")
             for s in (1, 2)]
    m.run_until_exit(tasks, max_ns=10**10)
    return _fingerprint(m, _ledger(m, seen))


def scenario_thrashing():
    """(b) The thrashing tracer loop: ptrace attach/pokeuser/cont,
    waitpid with WNOHANG and nanosleep, against a watched victim."""
    from repro.analysis.figures import watched_variable

    return _run_paper("O", ThrashingAttack(watch_symbol=watched_variable("O")),
                      default_config(hz=1_000))


def scenario_error_paths():
    """(c) EINVAL before the cost is charged, EPERM and ESRCH after it,
    and ENOSYS for a name the table does not know."""
    m = Machine(default_config(hz=1_000), trace=("*",))
    seen = {}

    def body(ctx):
        out = []
        out.append((yield Syscall("nanosleep", (-1,))))
        out.append((yield Syscall("migrate", (99,))))
        out.append((yield Syscall("setpriority", (-5,))))
        out.append((yield Syscall("kill", (9_999, SIGTERM))))
        out.append((yield Syscall("no_such_call", (1, 2))))
        out.append((yield Syscall("getpriority", (9_999,))))
        out.append((yield Syscall("ptrace", ("bogus", 1))))
        out.append((yield Syscall("nanosleep", (300_000,))))
        out.append((yield Syscall("getpid")))
        return out

    task = _spawn(m, body, seen, "errors", uid=1000)
    m.run_until_exit([task], max_ns=10**10)
    return _fingerprint(m, _ledger(m, seen))


def scenario_signals():
    """(d) kill() to self lands at the syscall's return boundary; SIGCHLD
    from exiting children arrives while the parent is preempted mid-call;
    a sibling stops and continues a task that is inside a call."""
    m = Machine(default_config(hz=10_000), trace=("*",))
    seen = {}

    def child(ctx, cycles):
        yield Compute(cycles)
        return 3

    child_fn = GuestFunction("child", child, Provenance.USER)

    def parent(ctx):
        out = []
        me = yield Syscall("getpid")
        out.append((yield Syscall("kill", (me, SIGCHLD))))
        for i in range(40):
            out.append((yield Syscall("fork", (child_fn, (20_000 + i,)))))
            out.append((yield Syscall("getrusage")))
            out.append((yield Syscall("proc_stat")))
            yield Compute(30_000)
        while True:
            got = yield Syscall("waitpid", (-1,))
            out.append(got)
            if isinstance(got, int):
                break
        return out

    def controller(ctx, target):
        out = []
        for _ in range(6):
            yield Compute(90_000)
            out.append((yield Syscall("kill", (target, SIGSTOP))))
            yield Compute(40_000)
            out.append((yield Syscall("kill", (target, SIGCONT))))
        return out

    def suicide(ctx):
        me = yield Syscall("getpid")
        yield Compute(10_000)
        yield Syscall("kill", (me, SIGTERM))
        return (yield Syscall("getpid"))  # never returns

    p = _spawn(m, parent, seen, "parent")
    c = _spawn(m, lambda ctx: controller(ctx, p.pid), seen, "controller")
    s = _spawn(m, suicide, seen, "suicide")
    m.run_until_exit([p, c, s], max_ns=10**10)
    return _fingerprint(m, _ledger(m, seen))


def scenario_exit_execve():
    """(e) exit() and execve() issued from inside nested guest calls."""
    m = Machine(default_config(hz=1_000), trace=("*",))
    install_standard_libraries(m.kernel.libraries)
    seen = {}

    def final_main(ctx):
        seen["final"] = yield Syscall("gettid")
        yield Compute(5_000)
        yield Syscall("exit", (5,))

    final = Program("final", final_main, needed_libs=("libc",))

    def inner(ctx):
        yield Compute(2_000)
        seen["brk"] = yield Syscall("brk", (8192,))
        yield Syscall("execve", (final,))
        seen["unreachable"] = True

    inner_fn = GuestFunction("inner", inner, Provenance.USER)

    def first_main(ctx):
        yield Compute(1_000)
        yield Invoke(inner_fn, ())

    first = Program("first", first_main, needed_libs=("libc",))

    def deep_exit(ctx):
        yield Compute(7_000)
        yield Syscall("exit", (9,))
        seen["after_exit"] = True

    deep_fn = GuestFunction("deep", deep_exit, Provenance.USER)

    def exiter(ctx):
        yield Syscall("getpid")
        yield Invoke(deep_fn, ())
        seen["after_invoke"] = True

    shell = m.new_shell()
    a = shell.run_command(first)
    b = spawn_fn(m, exiter, name="exiter")
    m.run_until_exit([a, b], max_ns=10**10)
    return _fingerprint(m, _ledger(m, seen))


def scenario_fork_churn_smp():
    """(f) Fork churn on two CPUs."""
    return _run_paper("W", SchedulingAttack(nice=-20, forks=300),
                      default_config(hz=1_000, nproc=2))


def scenario_paravirt():
    """(g) A VM guest calling pv_host_time/pv_steal beside a busy VM."""
    hv = Hypervisor()
    seen = {"host": [], "steal": []}

    def prober(ctx):
        for _ in range(25):
            seen["host"].append((yield Syscall("pv_host_time")))
            yield Compute(700_000)
            seen["steal"].append((yield Syscall("pv_steal")))
        return 0

    def burner(ctx):
        yield Compute(60_000_000)
        return 0

    tasks = []
    for name, main in (("probe", prober), ("busy", burner)):
        vm = hv.create_vm(name)
        vm.machine.trace_log.enable("*")
        install_standard_libraries(vm.machine.kernel.libraries)
        tasks.append((vm, vm.machine.new_shell().run_command(
            Program(name, main, needed_libs=("libc",)))))
    hv.run_until_exit([t for _, t in tasks], max_ns=10**10)
    vm = tasks[0][0]
    doc = _ledger(vm.machine, seen)
    doc["vms"] = [[v.name, v.ran_ns, v.billed_total_ns] for v, _ in tasks]
    return _fingerprint(vm.machine, doc)


SCENARIOS = {
    "fork_churn": scenario_fork_churn,
    "syscall_storm": scenario_syscall_storm,
    "thrashing": scenario_thrashing,
    "error_paths": scenario_error_paths,
    "signals": scenario_signals,
    "exit_execve": scenario_exit_execve,
    "fork_churn_smp": scenario_fork_churn_smp,
    "paravirt": scenario_paravirt,
}

GOLDENS = {
    "error_paths": {
        "result":
            "2c038649e3df01fcfff583c902a8f537eae86f75cdfbd204bd4146f0ce81760e",
        "trace":
            "d80c484979c211a5ca346a9c2107505f6024e35d7d4fd67c650dea53a069a441",
        "invocations":
            "980e0e57f264485f8e1a74d4e74ba35ffb53fa0bd083a7ab14846d1f004cc0d5",
        "counters":
            "0aa12feb9eabee2237a46066ac720dd86d47d5055b0f24e529ddffda6ed461e3",
    },
    "exit_execve": {
        "result":
            "9bc447fcb72b08a382d5867de2da4e355cea6ff15c1f910f189abc8415ba9b30",
        "trace":
            "26876a038701ebfa79a2cdfb02e95b3e3e13857e62967c28d9166e9673c8c886",
        "invocations":
            "c2f4495f0fde419b5bf54e3e3ffa0f9383543016fbf60a17abbb6e4cba93b8c7",
        "counters":
            "639b702313de9085b1d7e624b09014784024995dfbb6ae7b331be17dcd0360fc",
    },
    "fork_churn": {
        "result":
            "fb9a66145aa16d7bab19d1016b042d7bd6d3c5d3c936e84f388f4f1dc18d7bef",
        "trace":
            "2bab5a1e07c1aa803f0cbd8f028cb7831545fa1e48b8abfa28ad05163a63ce17",
        "invocations":
            "218f0e610c907133c7e12b7631f2e2215764488c63d13796f6f66d3684fd6763",
        "counters":
            "7d40f0c7899c760ec6b5990c1d23198bd27ebd834fc700bd7e42a117d2f49a1b",
    },
    "fork_churn_smp": {
        "result":
            "59a8361c885213b8957d896edefe82ed37bdd933158d6bcee4b6dd5063457634",
        "trace":
            "74dcaf1303319d98ca06ead7069ca78e7002c65b8273f82bae7d276c587855bb",
        "invocations":
            "218f0e610c907133c7e12b7631f2e2215764488c63d13796f6f66d3684fd6763",
        "counters":
            "7d40f0c7899c760ec6b5990c1d23198bd27ebd834fc700bd7e42a117d2f49a1b",
    },
    "paravirt": {
        "result":
            "e81e3929b9715761dcca28fb84a34f77911eb9cf87599eaf80fa6884b3006bb0",
        "trace":
            "a8b22bbfb5224f9f84dc2eb34abc3b89b5e87b616c8a3aeaf07710be47f8971f",
        "invocations":
            "c5bfce6f573c2549f23035a1d9cb0f1fea6f2503bf8a9ce4ca0809a7ef9b5a04",
        "counters":
            "216af39e2f150bc1f9430ec9a9aba9c6c14616537002cde2483b892dcde69273",
    },
    "signals": {
        "result":
            "605fe95b59652129e2794084905dbed89a4976832fb591abab3b9cbecbfdfdfc",
        "trace":
            "e7e8ed9f113fae81a0ec1fbf8fa78ddcd619871d540dd57f3139a153db9d0d78",
        "invocations":
            "d3020cfb6fe5fd929f74f4dc1dd05c9aa2391b05cb06ad72bde371ebbaabdc5d",
        "counters":
            "f800505897db18712603e44a05a6c822efe15a958cee6c28e209d908bfebf4c6",
    },
    "syscall_storm": {
        "result":
            "ee86f45c4082b7823f7bfa5c6695a309edca70826c23af51aae0f09c09976749",
        "trace":
            "677d5b90cf59dc496f64b5221cf06c663ca347ef2c2e07387d68135f8032cd50",
        "invocations":
            "02691ccd1679da82b96b995ea4aa38b809016374bb3ea0b9e9a7dda138e22a35",
        "counters":
            "3a2c78e1962b48f5a46930c593bccbd9d7f4ec153ec2a241bb32145698e8bf30",
    },
    "thrashing": {
        "result":
            "3513c831c6656729ccb6401a03779bb54a2088f40ec81238b347c93afc802aff",
        "trace":
            "faca257151e442bde0fdddeb8e050767fc317c29b7dc093809eb7a566ce4f5bf",
        "invocations":
            "d57c7955d47a481b4adac908ebb10df94016c69ba359d7b050a37a672dddb983",
        "counters":
            "755fb4b816cbe3e3e6139cc95ec68bfcef5d310677a996863b229faec0564f32",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_syscall_scenario_bit_identical(name):
    assert SCENARIOS[name]() == GOLDENS[name]
