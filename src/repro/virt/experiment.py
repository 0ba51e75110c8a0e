"""Host one VM-level metering run.

A VM run is the VM analogue of the paper's §IV-B1: a *victim* VM runs one
of the evaluation workloads (plus the steal-time estimator daemon),
optionally co-resident with an *attacker* VM running the tick-dodging
guest (:class:`VmSchedAttack`).  ``run_experiment(..., vm=...)`` boots a
:class:`VmHost` in place of a bare machine and drives it through the same
body; only the result section differs.  Its ``usage`` is the hypervisor's
tick-sampled bill for the victim VM (the provider's view), and its
``oracle_seconds`` and ``stats`` add the exact vCPU ledger and the steal
estimate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from ..analysis.experiment import (
    _group_oracle_seconds,
    _group_usage,
    _guest_shared,
    open_shell,
)
from ..attacks.base import Attack, AttackTraits
from ..config import MachineConfig
from ..errors import SimulationError
from ..kernel.accounting import CpuUsage
from ..runner.specs import SpecError
from ..timesync.spec import TimeSyncSpec
from .guests import make_steal_estimator, make_vm_sched_attacker
from .hypervisor import Hypervisor, HypervisorConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel.process import Task
    from .hypervisor import VirtualMachine

#: The ``vm`` knobs that are :class:`HypervisorConfig` fields.
_HOST_KEYS = ("tick_ns", "slice_ns", "credits_per_tick",
              "refill_every_ticks", "credit_cap_ticks", "boost")

#: Scenario knobs a ``vm`` mapping may carry (everything else is rejected,
#: so typos fail loudly).
VM_PARAM_KEYS = frozenset(_HOST_KEYS + (
    "victim_weight", "attacker_weight", "margin_ns", "estimator_interval_ns"))


def hypervisor_config(vm: Mapping[str, Any], guest_cfg: MachineConfig,
                      timesync=None, run_attacker_to_completion=None,
                      trace=(), machine_hook=None) -> HypervisorConfig:
    """The host config a ``vm`` mapping asks for.  Raises
    :class:`SpecError` for an unknown or invalid knob, and for what a VM
    run cannot honour: a guest with ``nproc > 1`` (a vCPU is one CPU), an
    active ``timesync``, a waited-for attacker (the attacker VM never
    exits), ``trace`` and ``machine_hook``."""
    unknown = set(vm) - VM_PARAM_KEYS
    if unknown:
        raise SpecError(f"unknown vm parameter(s) {sorted(unknown)}; "
                        f"have {sorted(VM_PARAM_KEYS)}")
    refused = [name for name, asked in (
        ("nproc > 1", guest_cfg.nproc != 1),
        ("timesync", TimeSyncSpec.normalize(timesync) is not None),
        ("run_attacker_to_completion", bool(run_attacker_to_completion)),
        ("trace", bool(trace)),
        ("machine_hook", machine_hook is not None)) if asked]
    if refused:
        raise SpecError(f"vm runs do not support {', '.join(refused)}")
    try:
        cfg = HypervisorConfig(**{key: vm[key] for key in _HOST_KEYS
                                  if key in vm})
        cfg.validate()
    except (SimulationError, TypeError) as exc:
        raise SpecError(f"bad vm config: {exc}") from None
    return cfg


class VmHost(Hypervisor):
    """The hypervisor of one VM run, booted with the victim VM (whose
    ``shell`` launches the workload) and its steal estimator."""

    def __init__(self, vm: Mapping[str, Any], guest_cfg: MachineConfig,
                 invariants: bool, faults=None, extra_libraries=(),
                 **run_args: Any) -> None:
        cfg = hypervisor_config(vm, guest_cfg, **run_args)
        estimator = make_steal_estimator(
            vm.get("estimator_interval_ns", 2_000_000))
        super().__init__(cfg, invariants=invariants, faults=faults)
        self.params = vm
        self.guest_cfg = guest_cfg
        self.victim_vm = self.create_vm("victim", cfg=guest_cfg,
                                        weight=vm.get("victim_weight", 256))
        self.shell = open_shell(self.victim_vm.machine, extra_libraries)
        self.estimator = self.shell.run_command(estimator)

    def section(self, victim: "Task", attack: Attack
                ) -> Tuple[CpuUsage, Dict[str, float], Dict[str, int]]:
        """The VM result section: the victim VM's hypervisor bill."""
        victim_vm = self.victim_vm
        self.check_invariants()  # the sweep runs every guest's own too

        # Guest-internal view of the victim job (what the customer's own
        # OS would report) vs the hypervisor's billed view (what the
        # provider meters) — the §III-B divergence, one level up.
        guest = victim_vm.machine
        guest_usage = _group_usage(guest, victim)
        oracle_seconds = _group_oracle_seconds(guest, victim)
        oracle_seconds["vm_ran"] = victim_vm.ran_ns / 1e9
        oracle_seconds["vm_idle"] = victim_vm.idle_ns / 1e9
        oracle_seconds["vm_steal"] = victim_vm.steal_ns / 1e9
        estimator_shared = _guest_shared(self.estimator,
                                         "steal_estimator") or {}

        host_wall = self.clock.now - victim_vm.attach_host_ns
        conservation_gap = host_wall - (victim_vm.ran_ns + victim_vm.idle_ns
                                        + victim_vm.steal_ns)
        stats: Dict[str, int] = {
            "exit_code": victim.exit_code,
            "hv_ticks": self.ticks,
            "hv_idle_ticks": self.idle_ticks,
            "vcpu_switches": self.vcpu_switches,
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
            "reported_steal_ns": int(estimator_shared.get(
                "reported_steal_ns", 0)),
            "steal_samples": int(estimator_shared.get("samples", 0)),
        }
        if self.fault_plan is not None:
            stats["fault_steal_lie_ns"] = self.steal_lie_ns
            checker = self.invariant_checker
            if checker is not None:
                stats["tolerated_violations"] = len(
                    checker.tolerated_violations)
        if isinstance(attack, VmSchedAttack):
            shared = _guest_shared(attack.task, "vm_sched_attack") or {}
            stats.update({
                "attacker_ran_ns": attack.vm.ran_ns,
                "attacker_steal_ns": attack.vm.steal_ns,
                "attacker_sampled_ticks": attack.vm.sampled_ticks,
                "attacker_burned_ns": int(shared.get("burned_ns", 0)),
                "attacker_iterations": int(shared.get("iterations", 0)),
                "attacker_overshoots": int(shared.get("overshoots", 0)),
            })

        if conservation_gap != 0:
            # check_invariants() already raised when enabled; this is the
            # unconditional backstop for runs without the checker.
            raise SimulationError(
                f"vCPU ledger conservation broken: ran+idle+steal misses "
                f"host wall by {conservation_gap}ns")
        return (CpuUsage(victim_vm.billed_utime_ns,
                         victim_vm.billed_stime_ns),
                oracle_seconds, stats)


class VmSchedAttack(Attack):
    """The VM-level §IV-B1 analogue: ``engage`` boots a co-resident VM
    (weighted by the ``vm`` mapping's ``attacker_weight``) whose guest
    burns ``burn_fraction`` of each hypervisor tick and sleeps across its
    edge, ``margin_ns`` clear of it (None: the mapping's ``margin_ns``,
    else a twentieth of a tick)."""

    traits = AttackTraits(
        name="vm-sched",
        paper_section="IV-B1 (VM level)",
        inflates="utime",
        vulnerability="whole-tick sampling in the hypervisor's vCPU billing",
        strength="tunable",
        side_effects="co-resident VMs accrue steal time",
        requires_root=False,
    )

    def __init__(self, burn_fraction: float = 0.75,
                 margin_ns: Optional[int] = None) -> None:
        super().__init__()
        if not 0.0 <= burn_fraction <= 1.0:
            raise ValueError(f"burn_fraction must be in [0, 1], "
                             f"got {burn_fraction}")
        self.burn_fraction = burn_fraction
        self.margin_ns = margin_ns
        self.vm: Optional["VirtualMachine"] = None
        self.task: Optional["Task"] = None

    def engage(self, host: VmHost, victim: "Task") -> None:
        super().engage(host, victim)
        tick_ns = host.cfg.tick_ns
        margin_ns = self.margin_ns
        if margin_ns is None:
            margin_ns = host.params.get("margin_ns", tick_ns // 20)
        self.vm = host.create_vm(
            "attacker", cfg=host.guest_cfg,
            weight=host.params.get("attacker_weight", 256))
        self.task = open_shell(self.vm.machine).run_command(
            make_vm_sched_attacker(
                tick_ns=tick_ns, burn_fraction=self.burn_fraction,
                margin_ns=margin_ns,
                cpu_freq_hz=host.guest_cfg.cpu_freq_hz))

    def billed_usage(self, host: VmHost) -> CpuUsage:
        """The ticks the hypervisor billed the attacker VM."""
        return CpuUsage(self.vm.billed_utime_ns, self.vm.billed_stime_ns)


#: VM-level attack registry key → class, for specs with a ``vm`` mapping.
VM_ATTACK_CLASSES = {"vm-sched": VmSchedAttack, "sched": VmSchedAttack}
