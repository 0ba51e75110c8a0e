"""Virtualization layer: hypervisor, credit scheduler, VM-level metering.

The process-level story one layer down: a credit-style (Xen-like)
hypervisor time-slices N full guest machines onto the simulated physical
core, bills vCPUs by sampling its own accounting tick, and injects steal
time into each guest's clock and timekeeper.  The same tick-sampling
shortcut the paper's §IV-B1 attack abuses inside the kernel is abused here
*between* VMs (after Zhou et al., arXiv:1103.0759), and the guest-side
steal-time estimator (after Verdú et al., arXiv:1810.01139) is the
tenant's defense.

Entry points: build a :class:`Hypervisor`, :meth:`~Hypervisor.create_vm`
guests, run; or pass ``vm=...`` to ``run_experiment`` (or an
``ExperimentSpec``, or run ``repro vm``) for the packaged scenario, with
:class:`VmSchedAttack` as the tick-dodging co-resident.
"""

from .credit import (
    PRI_BOOST,
    PRI_OVER,
    PRI_UNDER,
    PRIORITY_NAMES,
    CreditScheduler,
)
from .experiment import VM_PARAM_KEYS, VmSchedAttack
from .guests import make_steal_estimator, make_vm_sched_attacker
from .hypervisor import (
    Hypervisor,
    HypervisorConfig,
    VcpuState,
    VirtualMachine,
)

__all__ = [
    "PRI_BOOST",
    "PRI_OVER",
    "PRI_UNDER",
    "PRIORITY_NAMES",
    "CreditScheduler",
    "VM_PARAM_KEYS",
    "VmSchedAttack",
    "make_steal_estimator",
    "make_vm_sched_attacker",
    "Hypervisor",
    "HypervisorConfig",
    "VcpuState",
    "VirtualMachine",
]
