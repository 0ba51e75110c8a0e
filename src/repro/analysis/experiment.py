"""Run one victim program on one machine, with or without an attack.

``run_experiment`` is the workhorse behind every figure: boot a fresh
machine, tamper per the attack, launch the victim through the shell the way
the paper does, run to completion, and collect *both* views of the truth —
the kernel's billing view (what the user is charged) and the oracle's
provenance-exact view (what actually happened).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Optional, Tuple

from ..attacks.base import Attack, NoAttack
from ..config import MachineConfig, default_config, default_invariants
from ..hw.machine import Machine
from ..kernel.accounting import CpuUsage
from ..kernel.process import Task
from ..programs.base import Program
from ..programs.stdlib import install_standard_libraries

#: Generous per-run ceiling; a run that hits it is a harness bug.
DEFAULT_MAX_NS = 3_000 * 1_000_000_000


@dataclass
class ExperimentResult:
    """Everything measured from one victim run."""

    program: str
    attack: str
    #: Billing view: thread-group utime/stime as getrusage reports them.
    usage: CpuUsage
    #: Attacker's own billed usage (self + reaped children), if any.
    attacker_usage: Optional[CpuUsage]
    #: Wall-clock (simulated) time at victim exit.
    wall_ns: int
    #: Final getrusage dict the victim logged at exit (None if it was
    #: killed before reaching it).
    rusage: Optional[Dict[str, object]]
    #: Ground truth: seconds by provenance, summed over the thread group.
    oracle_seconds: Dict[str, float]
    #: Assorted counters.
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def utime_s(self) -> float:
        return self.usage.utime_seconds

    @property
    def stime_s(self) -> float:
        return self.usage.stime_seconds

    @property
    def total_s(self) -> float:
        return self.usage.total_seconds

    @property
    def wall_s(self) -> float:
        return self.wall_ns / 1e9

    def oracle_own_s(self) -> float:
        """Ground-truth seconds of legitimate work (user + lib + kernel
        service for them) — what an honest bill would charge."""
        legit = (self.oracle_seconds.get("user", 0.0)
                 + self.oracle_seconds.get("lib", 0.0)
                 + self.oracle_seconds.get("system", 0.0))
        return legit

    def oracle_injected_s(self) -> float:
        return self.oracle_seconds.get("injected", 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form, exact (all times stay integral ns) — what the
        runner's result cache persists as JSON."""
        return {
            "program": self.program,
            "attack": self.attack,
            "usage": {"utime_ns": self.usage.utime_ns,
                      "stime_ns": self.usage.stime_ns},
            "attacker_usage": (
                None if self.attacker_usage is None else
                {"utime_ns": self.attacker_usage.utime_ns,
                 "stime_ns": self.attacker_usage.stime_ns}),
            "wall_ns": self.wall_ns,
            "rusage": self.rusage,
            "oracle_seconds": dict(self.oracle_seconds),
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict`; raises ``KeyError``/``TypeError`` on
        malformed documents (the cache treats that as a miss)."""
        attacker = doc["attacker_usage"]
        return cls(
            program=doc["program"],
            attack=doc["attack"],
            usage=CpuUsage(**doc["usage"]),
            attacker_usage=None if attacker is None else CpuUsage(**attacker),
            wall_ns=doc["wall_ns"],
            rusage=doc["rusage"],
            oracle_seconds=dict(doc["oracle_seconds"]),
            stats=dict(doc["stats"]),
        )


def _group_usage(machine: Machine, task: Task) -> CpuUsage:
    usage = CpuUsage()
    for member in machine.kernel.thread_group(task):
        usage = usage + machine.kernel.accounting.usage(member)
    return usage


def _group_oracle_seconds(machine: Machine, task: Task) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for member in machine.kernel.thread_group(task):
        for (_user, prov), ns in member.oracle_ns.items():
            totals[prov.value] = totals.get(prov.value, 0.0) + ns / 1e9
    return totals


def _guest_shared(task: Task, key: str) -> Optional[Dict[str, Any]]:
    """The dict a task's program left under ``key`` in its shared guest
    context (None if it left none, e.g. it was killed first)."""
    if task.guest_ctx is None:
        return None
    found = task.guest_ctx.shared.get(key)
    return found if isinstance(found, dict) else None


def open_shell(machine: Machine, extra_libraries=()):
    """Install the standard and ``extra_libraries``, open a shell."""
    install_standard_libraries(machine.kernel.libraries)
    for library in extra_libraries:
        machine.kernel.libraries.install(library, replace=True)
    return machine.new_shell()


def run_experiment(program: Program,
                   attack: Optional[Attack] = None,
                   cfg: Optional[MachineConfig] = None,
                   run_attacker_to_completion: Optional[bool] = None,
                   max_ns: int = DEFAULT_MAX_NS,
                   extra_libraries=(),
                   trace=(),
                   check_invariants: Optional[bool] = None,
                   machine_hook=None,
                   faults=None,
                   timesync=None,
                   vm=None) -> ExperimentResult:
    """Execute ``program`` under ``attack`` on a fresh machine.

    ``extra_libraries`` installs additional shared objects (e.g. a plugin
    the program dlopens) before the attack's ``install`` hook runs, so
    attacks may tamper with them.

    ``check_invariants`` enables the runtime invariant checker for this
    run; None defers to the process-wide default (see
    :func:`repro.verify.set_default_invariants`).  ``machine_hook``, when
    given, is called with the booted :class:`Machine` before any library
    or attack installation — the fuzzer uses it to inject deliberate
    accounting corruption.  ``faults`` (a :class:`~repro.faults.FaultPlan`
    or mapping) injects deterministic hardware misbehaviour; fault and
    watchdog counters land in ``stats`` when a plan is active.
    ``timesync`` (a :class:`~repro.timesync.TimeSyncSpec` or mapping)
    attaches the simulated network time plane; ``timesync_*`` counters —
    including the cross-host billing skew — land in ``stats`` when the
    spec is active.

    ``vm`` (a mapping, ``{}`` for defaults) runs the program as the
    victim VM's workload on a :class:`~repro.virt.experiment.VmHost`,
    with ``cfg`` as the guest config; ``hypervisor_config`` there lists
    what a VM run refuses.

    The machine is closed (:meth:`Machine.close`) when the run ends, so it
    is freed as soon as this returns.  A machine handed to
    ``machine_hook`` is left open: the hook's caller may keep it, step it
    further, and close it when done.
    """
    attack = attack or NoAttack()
    if check_invariants is None:
        check_invariants = default_invariants()
    cfg = cfg or default_config()
    if vm is None:
        host = Machine(cfg, trace=trace, invariants=bool(check_invariants),
                       faults=faults, timesync=timesync)
        if machine_hook is not None:
            machine_hook(host)
        shell = open_shell(host, extra_libraries)
        section = partial(_machine_section, host)
    else:
        from ..virt.experiment import VmHost

        host = VmHost(vm, cfg, bool(check_invariants), faults,
                      extra_libraries, trace=trace, timesync=timesync,
                      machine_hook=machine_hook,
                      run_attacker_to_completion=run_attacker_to_completion)
        shell, section = host.shell, host.section
    try:
        return _run_on(host, shell, program, attack,
                       run_attacker_to_completion, max_ns, section)
    finally:
        if machine_hook is None:
            host.close()


def _run_on(host, shell, program: Program, attack: Attack,
            run_attacker_to_completion: Optional[bool], max_ns: int,
            section) -> ExperimentResult:
    """The body of :func:`run_experiment` on a booted host; ``section``
    is the host's result section (bill, oracle seconds and stats)."""
    attack.install(host, shell)
    attack.pre_launch(host, shell)
    victim = shell.run_command(program)
    attack.engage(host, victim)

    host.run_until_exit([victim], max_ns=max_ns)
    victim_wall_ns = host.clock.now

    # The scheduling experiments report the attacker's own CPU time at its
    # exit (Fig. 7/8 plot both bars), so optionally let it finish.
    if run_attacker_to_completion is None:
        run_attacker_to_completion = attack.wait_for_attacker
    if run_attacker_to_completion and attack.attacker_tasks:
        live = [t for t in attack.attacker_tasks if t.alive]
        if live:
            host.run_until_exit(live, max_ns=max_ns)
    attack.cleanup(host)

    attacker_usage = attack.billed_usage(host)
    usage, oracle_seconds, stats = section(victim, attack)
    return ExperimentResult(
        program=program.name,
        attack=attack.name,
        usage=usage,
        attacker_usage=attacker_usage,
        wall_ns=victim_wall_ns,
        rusage=_guest_shared(victim, "rusage"),
        oracle_seconds=oracle_seconds,
        stats=stats,
    )


def _machine_section(machine: Machine, victim: Task, attack: Attack
                     ) -> Tuple[CpuUsage, Dict[str, float], Dict[str, int]]:
    """A bare machine's result section."""
    if machine.watchdog is not None:
        # Close the trailing trust interval before the final sweep so the
        # uncertainty totals in stats cover the whole run.
        machine.watchdog.finalize(machine.clock.now)
    if machine.timesync is not None:
        # Settle the disciplined clock and run the timesync-conservation
        # cross-check before the full sweep.
        machine.timesync.finalize(machine.clock.now)
    machine.check_invariants()

    group = machine.kernel.thread_group(victim)
    stats = {
        "minor_faults": sum(t.minor_faults for t in group),
        "major_faults": sum(t.major_faults for t in group),
        "voluntary_switches": sum(t.voluntary_switches for t in group),
        "involuntary_switches": sum(t.involuntary_switches for t in group),
        "debug_exceptions": sum(t.debug_exceptions for t in group),
        "signals_received": sum(t.signals_received for t in group),
        "context_switches_total": machine.kernel.context_switches,
        "ticks": machine.kernel.timekeeper.jiffies,
        "swap_ins": machine.kernel.mm.swap_ins,
        "swap_outs": machine.kernel.mm.swap_outs,
        "oom_kills": machine.kernel.mm.oom_kills,
        "nic_packets": machine.nic.packets_received,
        "exit_code": victim.exit_code,
    }
    if machine.fault_plan is not None:
        stats.update(machine.fault_stats())
        if machine.invariant_checker is not None:
            stats["tolerated_violations"] = \
                len(machine.invariant_checker.tolerated_violations)
    if machine.timesync is not None:
        # Timesync counters exist only on timesync-active runs, same
        # discipline as fault stats.
        stats.update(machine.timesync.stats())
    if machine.cfg.nproc > 1:
        # SMP counters only exist on SMP runs so uniprocessor results
        # (and their cached digests) stay byte-identical to pre-SMP ones.
        stats["nproc"] = machine.cfg.nproc
        stats["migrations_total"] = sum(
            t.migrations for t in machine.kernel.tasks.values())
        stats["balance_moves"] = machine.kernel.balance_moves
        if attack.attacker_tasks:
            stats["attacker_oracle_ns"] = sum(
                sum(t.oracle_ns.values()) for t in attack.attacker_tasks)

    return (_group_usage(machine, victim),
            _group_oracle_seconds(machine, victim), stats)
