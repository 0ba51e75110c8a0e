"""Run one VM-level metering scenario end to end.

The standard scenario is the VM analogue of the paper's §IV-B1: a *victim*
VM runs one of the evaluation workloads (plus the steal-time estimator
daemon), optionally co-resident with an *attacker* VM running the
tick-dodging guest.  The result is packaged as a plain
:class:`~repro.analysis.experiment.ExperimentResult` — ``usage`` is what
the hypervisor's tick-sampled metering bills the victim VM (the provider's
view), ``oracle_seconds`` carries the exact vCPU ledger alongside the
guest-side provenance oracle, and ``stats`` records the steal estimate so
figures and sweeps flow through the existing runner/cache machinery
unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from ..analysis.experiment import (
    DEFAULT_MAX_NS,
    ExperimentResult,
    _group_oracle_seconds,
    _group_usage,
    _guest_shared,
)
from ..config import MachineConfig, default_config, default_invariants
from ..errors import SimulationError
from ..kernel.accounting import CpuUsage
from ..programs.stdlib import install_standard_libraries
from .guests import make_steal_estimator, make_vm_sched_attacker
from .hypervisor import Hypervisor, HypervisorConfig

#: Scenario knobs an :class:`~repro.runner.ExperimentSpec`'s ``vm`` mapping
#: may carry (everything else is rejected, so typos fail loudly).
VM_PARAM_KEYS = frozenset({
    "tick_ns", "slice_ns", "credits_per_tick", "refill_every_ticks",
    "credit_cap_ticks", "boost",
    "victim_weight", "attacker_weight", "margin_ns",
    "estimator_interval_ns",
})

#: Spec names accepted for the VM scheduling attack.
VM_ATTACK_NAMES = ("vm-sched", "sched")


def _hypervisor_config(params: Mapping[str, Any]) -> HypervisorConfig:
    kwargs = {key: params[key] for key in
              ("tick_ns", "slice_ns", "credits_per_tick",
               "refill_every_ticks", "credit_cap_ticks", "boost")
              if key in params}
    return HypervisorConfig(**kwargs)


def run_vm_experiment(program: str = "W",
                      program_kwargs: Optional[Mapping[str, Any]] = None,
                      attack: Optional[str] = None,
                      attack_kwargs: Optional[Mapping[str, Any]] = None,
                      vm: Optional[Mapping[str, Any]] = None,
                      cfg: Optional[MachineConfig] = None,
                      max_ns: int = DEFAULT_MAX_NS,
                      check_invariants: Optional[bool] = None,
                      faults=None) -> ExperimentResult:
    """Execute one VM scenario on a fresh hypervisor.

    ``program``/``program_kwargs`` name the victim workload by registry key
    (same registry as process-level specs).  ``attack`` is ``None``/"none"
    for the solo control run or ``"vm-sched"``/``"sched"`` for the
    tick-dodging co-resident, with ``attack_kwargs`` holding
    ``burn_fraction`` (default 0.75).  ``vm`` carries the hypervisor and
    scenario knobs (:data:`VM_PARAM_KEYS`); ``cfg`` is the *guest* machine
    config.  ``max_ns`` bounds **host** time.  ``faults`` (FaultPlan or
    mapping) applies its hypervisor-level fault — the lying steal clock;
    guest machines stay fault-free (see :class:`Hypervisor`).  The
    hypervisor and its guests are closed when the run ends
    (:meth:`Hypervisor.close`), so they are freed as soon as this returns.
    """
    from ..runner.specs import PROGRAM_FACTORIES, SpecError

    params = dict(vm or {})
    unknown = set(params) - VM_PARAM_KEYS
    if unknown:
        raise SpecError(f"unknown vm parameter(s) {sorted(unknown)}; "
                        f"have {sorted(VM_PARAM_KEYS)}")
    if attack in (None, "none"):
        attack = None
    elif attack not in VM_ATTACK_NAMES:
        raise SpecError(f"unknown vm attack {attack!r}; "
                        f"have {sorted(VM_ATTACK_NAMES)} or 'none'")

    if check_invariants is None:
        check_invariants = default_invariants()

    try:
        factory = PROGRAM_FACTORIES[program]
    except KeyError:
        raise SpecError(f"unknown program {program!r}; "
                        f"have {sorted(PROGRAM_FACTORIES)}") from None
    victim_program = factory(**dict(program_kwargs or {}))

    hv = Hypervisor(_hypervisor_config(params),
                    invariants=bool(check_invariants), faults=faults)
    try:
        return _run_scenario(hv, victim_program, attack,
                             dict(attack_kwargs or {}), params,
                             cfg or default_config(), max_ns)
    finally:
        hv.close()


def _run_scenario(hv: Hypervisor, victim_program, attack: Optional[str],
                  akw: Dict[str, Any], params: Mapping[str, Any],
                  guest_cfg: MachineConfig, max_ns: int) -> ExperimentResult:
    """The body of :func:`run_vm_experiment` on a booted hypervisor."""
    from ..runner.specs import SpecError

    hv_cfg = hv.cfg
    victim_vm = hv.create_vm("victim", cfg=guest_cfg,
                             weight=params.get("victim_weight", 256))
    install_standard_libraries(victim_vm.machine.kernel.libraries)
    victim_shell = victim_vm.machine.new_shell()
    estimator_task = victim_shell.run_command(
        make_steal_estimator(params.get("estimator_interval_ns", 2_000_000)))
    victim_task = victim_shell.run_command(victim_program)

    attacker_vm = None
    attack_name = "none"
    if attack is not None:
        attack_name = "vm-sched"
        burn_fraction = akw.pop("burn_fraction", 0.75)
        margin_ns = akw.pop("margin_ns", params.get("margin_ns",
                                                    hv_cfg.tick_ns // 20))
        if akw:
            raise SpecError(f"unknown vm attack kwarg(s) {sorted(akw)}")
        attacker_vm = hv.create_vm(
            "attacker", cfg=guest_cfg,
            weight=params.get("attacker_weight", 256))
        install_standard_libraries(attacker_vm.machine.kernel.libraries)
        attacker_shell = attacker_vm.machine.new_shell()
        attacker_shell.run_command(make_vm_sched_attacker(
            tick_ns=hv_cfg.tick_ns, burn_fraction=burn_fraction,
            margin_ns=margin_ns, cpu_freq_hz=guest_cfg.cpu_freq_hz))

    hv.run_until_exit([victim_task], max_ns=max_ns)
    wall_ns = hv.clock.now
    hv.check_invariants()
    for vm in hv.vms:
        vm.machine.check_invariants()

    # Guest-internal view of the victim job (what the customer's own OS
    # would report) vs the hypervisor's billed view (what the provider
    # meters) — the §III-B divergence, one level up.
    guest = victim_vm.machine
    guest_usage = _group_usage(guest, victim_task)
    oracle_seconds = _group_oracle_seconds(guest, victim_task)
    oracle_seconds["vm_ran"] = victim_vm.ran_ns / 1e9
    oracle_seconds["vm_idle"] = victim_vm.idle_ns / 1e9
    oracle_seconds["vm_steal"] = victim_vm.steal_ns / 1e9
    estimator_shared = _guest_shared(estimator_task, "steal_estimator") or {}

    host_wall = wall_ns - victim_vm.attach_host_ns
    conservation_gap = host_wall - (victim_vm.ran_ns + victim_vm.idle_ns
                                    + victim_vm.steal_ns)
    stats: Dict[str, int] = {
        "exit_code": victim_task.exit_code,
        "hv_ticks": hv.ticks,
        "hv_idle_ticks": hv.idle_ticks,
        "vcpu_switches": hv.vcpu_switches,
        "victim_ran_ns": victim_vm.ran_ns,
        "victim_idle_ns": victim_vm.idle_ns,
        "victim_steal_ns": victim_vm.steal_ns,
        "victim_sampled_ticks": victim_vm.sampled_ticks,
        "victim_preemptions": victim_vm.preemptions,
        "victim_guest_utime_ns": guest_usage.utime_ns,
        "victim_guest_stime_ns": guest_usage.stime_ns,
        "victim_guest_jiffies": guest.kernel.timekeeper.jiffies,
        "victim_guest_steal_ns": guest.kernel.timekeeper.steal_ns,
        "conservation_gap_ns": conservation_gap,
        "est_steal_ns": int(estimator_shared.get("est_steal_ns", 0)),
        "reported_steal_ns": int(estimator_shared.get("reported_steal_ns",
                                                      0)),
        "steal_samples": int(estimator_shared.get("samples", 0)),
    }
    if hv.fault_plan is not None:
        stats["fault_steal_lie_ns"] = hv.steal_lie_ns
        checker = hv.invariant_checker
        if checker is not None:
            stats["tolerated_violations"] = len(checker.tolerated_violations)
    attacker_usage = None
    if attacker_vm is not None:
        attacker_usage = CpuUsage(attacker_vm.billed_utime_ns,
                                  attacker_vm.billed_stime_ns)
        attack_shared: Dict[str, int] = {}
        for task in attacker_vm.machine.kernel.tasks.values():
            found = _guest_shared(task, "vm_sched_attack")
            if found is not None:
                attack_shared = found
                break
        stats.update({
            "attacker_ran_ns": attacker_vm.ran_ns,
            "attacker_steal_ns": attacker_vm.steal_ns,
            "attacker_sampled_ticks": attacker_vm.sampled_ticks,
            "attacker_burned_ns": int(attack_shared.get("burned_ns", 0)),
            "attacker_iterations": int(attack_shared.get("iterations", 0)),
            "attacker_overshoots": int(attack_shared.get("overshoots", 0)),
        })

    if conservation_gap != 0:
        # check_invariants() already raised when enabled; this is the
        # unconditional backstop for runs without the checker.
        raise SimulationError(
            f"vCPU ledger conservation broken: ran+idle+steal misses host "
            f"wall by {conservation_gap}ns")

    return ExperimentResult(
        program=victim_program.name,
        attack=attack_name,
        usage=CpuUsage(victim_vm.billed_utime_ns, victim_vm.billed_stime_ns),
        attacker_usage=attacker_usage,
        wall_ns=wall_ns,
        rusage=_guest_shared(victim_task, "rusage"),
        oracle_seconds=oracle_seconds,
        stats=stats,
    )
