"""Cost-model calibration: measure the simulator's primitive costs.

Runs micro-experiments that isolate one kernel primitive each (null
syscall, fork+wait+exit cycle, context-switch pair, minor fault, lib call,
watchpoint round-trip) and reports the simulated cost per operation under
TSC accounting — so the values in :class:`~repro.config.CostModel` can be
checked against the literature for the modelled era, and so changes to the
engine that accidentally shift costs are caught by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..config import MachineConfig, default_config
from ..errors import SimulationError
from ..hw.machine import Machine
from ..programs.base import GuestFunction
from ..programs.ops import CallLib, Compute, Mem, Provenance, Syscall
from ..programs.stdlib import install_standard_libraries


@dataclass
class Calibration:
    """Measured per-operation costs, in microseconds of simulated time."""

    null_syscall_us: float
    fork_wait_exit_us: float
    minor_fault_us: float
    lib_call_us: float
    thrash_roundtrip_us: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "null_syscall_us": self.null_syscall_us,
            "fork_wait_exit_us": self.fork_wait_exit_us,
            "minor_fault_us": self.minor_fault_us,
            "lib_call_us": self.lib_call_us,
            "thrash_roundtrip_us": self.thrash_roundtrip_us,
        }

    def render(self) -> str:
        lines = ["simulated primitive costs (TSC-measured):"]
        for name, value in self.as_dict().items():
            lines.append(f"  {name:>20}: {value:8.3f} us")
        return "\n".join(lines)


def _tsc_machine(cfg: Optional[MachineConfig]) -> Machine:
    base = cfg or default_config()
    machine = Machine(base.with_(accounting="tsc"))
    install_standard_libraries(machine.kernel.libraries)
    return machine


def _measure(cfg: Optional[MachineConfig], body_factory, count: int,
             needed_libs=()) -> float:
    """Total billed us of a task running ``body_factory`` / ``count``."""
    from ..kernel.loader.linker import LinkMap

    machine = _tsc_machine(cfg)
    fn = GuestFunction("calib", body_factory, Provenance.USER)
    task = machine.kernel.spawn(fn, name="calib")
    if needed_libs:
        task.guest_ctx.shared["_link_map"] = LinkMap(
            [machine.kernel.libraries.lookup(name) for name in needed_libs])
    machine.run_until_exit([task], max_ns=120 * 10**9)
    if task.exit_code != 0:
        raise RuntimeError(
            f"calibration body failed with exit code {task.exit_code}")
    usage = machine.kernel.accounting.usage(task)
    return usage.total_ns / count / 1e3


def calibrate(cfg: Optional[MachineConfig] = None,
              iterations: int = 200) -> Calibration:
    """Measure the primitive costs on (a TSC-accounting copy of) ``cfg``."""

    def null_syscalls(ctx):
        for _ in range(iterations):
            yield Syscall("getpid")

    def fork_cycles(ctx):
        for _ in range(iterations):
            pid = yield Syscall("fork", (None,))
            yield Syscall("waitpid", (pid,))

    def minor_faults(ctx):
        addr = yield Syscall("mmap", (iterations,))
        for page in range(iterations):
            yield Mem(addr + page * 4096, write=True)

    def lib_calls(ctx):
        for _ in range(iterations):
            yield CallLib("sqrt", (2.0,))

    # Thrashing round-trip: victim-side cost per watchpoint hit, derived
    # from a real traced run.  The cost is divided by the hits, not by
    # ``iterations``, so the victim only has to outlive the launch phase
    # the tracer waits through before it arms the watchpoint: below about
    # 80 loop iterations it ends before the first hit, so it runs at
    # least 100.
    from ..analysis.experiment import run_experiment
    from ..attacks.thrashing import ThrashingAttack
    from ..programs.workloads import make_ourprogram

    tsc_cfg = (cfg or default_config()).with_(accounting="tsc")
    victim_iterations = max(iterations, 100)
    baseline = run_experiment(make_ourprogram(iterations=victim_iterations),
                              cfg=tsc_cfg)
    thrashed = run_experiment(make_ourprogram(iterations=victim_iterations),
                              ThrashingAttack("i"), cfg=tsc_cfg)
    hits = thrashed.stats["debug_exceptions"]
    if hits == 0:
        raise SimulationError(
            "thrashing calibration saw no watchpoint hits: the victim "
            "ended before the tracer armed its watchpoint")
    thrash_us = (thrashed.usage.total_ns - baseline.usage.total_ns) / hits / 1e3

    # The fork measurement includes the child's cost as seen by the parent
    # account only; add the reaped children via cutime (measured machine).
    machine = _tsc_machine(cfg)
    fn = GuestFunction("calib-fork", fork_cycles, Provenance.USER)
    task = machine.kernel.spawn(fn, name="calib-fork")
    machine.run_until_exit([task], max_ns=120 * 10**9)
    usage = machine.kernel.accounting.usage(task)
    fork_us = (usage.total_ns + task.acct_cutime_ns
               + task.acct_cstime_ns) / iterations / 1e3

    # Subtract the fixed task-lifecycle overhead (spawn/exit) so the
    # per-operation figures isolate the primitive itself.
    def empty(ctx):
        yield Compute(0)

    overhead_us = _measure(cfg, empty, iterations)

    def net(raw_us: float) -> float:
        return max(raw_us - overhead_us, 0.0)

    return Calibration(
        null_syscall_us=net(_measure(cfg, null_syscalls, iterations)),
        fork_wait_exit_us=fork_us,
        minor_fault_us=net(_measure(cfg, minor_faults, iterations)),
        lib_call_us=net(_measure(cfg, lib_calls, iterations,
                                 needed_libs=("libm",))),
        thrash_roundtrip_us=max(thrash_us, 0.0),
    )
