"""Uptime vs metered billing divergence under co-located contention
(paper §III-B: turnaround time is not a trustworthy usage metric), in
both hosting models of :class:`repro.cloud.CloudProvider`.

Shared-kernel model: co-located load stretches a victim's wall-clock
uptime (and hence an EC2-style uptime bill) while honest CPU metering is
unmoved — the two tariffs *diverge* under contention.  Virtualization
model: the same divergence at the hypervisor level, and additionally the
tick-dodging guest shifts its own burned cycles onto the victim's
metered bill, so under attack *both* tariffs overcharge.
"""

import pytest

from repro.cloud import CloudProvider, VmInstance
from repro.config import default_config
from repro.errors import SimulationError
from repro.programs.workloads import make_busyloop, make_ourprogram

TICK = 10_000_000  # default hypervisor accounting tick


def _shared_run(contended: bool):
    provider = CloudProvider(default_config())
    victim = provider.launch_instance("i-victim", "alice")
    victim.run(make_ourprogram(iterations=1_500))
    if contended:
        noisy = provider.launch_instance("i-noisy", "bob")
        noisy.run(make_busyloop(total_cycles=2_000_000_000))
    victim.wait_all(max_ns=3 * 10**11)
    provider.terminate_instance("i-victim")
    return victim


class TestSharedKernelDivergence:
    """§III-B in the shared-kernel model: the uptime and CPU tariffs
    agree for a solo tenant and diverge as soon as a neighbour shows up."""

    def test_tariffs_diverge_under_contention(self):
        clean = _shared_run(contended=False)
        contended = _shared_run(contended=True)
        # Uptime bill inflates with mere co-location ...
        uptime_ratio = contended.uptime_ns / clean.uptime_ns
        assert uptime_ratio > 1.5
        # ... while the metered-CPU bill stays put.
        cpu_ratio = (contended.metered_usage().total_ns
                     / clean.metered_usage().total_ns)
        assert cpu_ratio == pytest.approx(1.0, abs=0.1)
        assert uptime_ratio > 1.3 * cpu_ratio

    def test_metered_usage_is_cpu_usage_in_shared_model(self):
        clean = _shared_run(contended=False)
        contended = _shared_run(contended=True)
        for inst in (clean, contended):
            assert inst.cpu_usage().total_ns == inst.metered_usage().total_ns


def _virt_provider():
    provider = CloudProvider(default_config(), virtualization=True)
    assert provider.virtualization
    return provider


def _virt_run(attack_fraction=None):
    from repro.virt.guests import make_vm_sched_attacker

    provider = _virt_provider()
    victim = provider.launch_instance("vm-victim", "alice")
    victim.run(make_ourprogram(iterations=1_500))
    if attack_fraction is not None:
        evil = provider.launch_instance("vm-evil", "mallory")
        evil.run(make_vm_sched_attacker(
            tick_ns=TICK, burn_fraction=attack_fraction,
            margin_ns=TICK // 20,
            cpu_freq_hz=provider._guest_cfg.cpu_freq_hz))
    victim.wait_all(max_ns=3 * 10**11)
    provider.terminate_instance("vm-victim")
    return provider, victim


class TestVirtualizedDivergence:
    def test_vm_instances_are_vm_instances(self):
        provider = _virt_provider()
        inst = provider.launch_instance("vm-1", "alice")
        assert isinstance(inst, VmInstance)
        assert provider.machine is None

    def test_multi_cpu_guest_config_rejected(self):
        provider = CloudProvider(default_config(nproc=2),
                                 virtualization=True)
        with pytest.raises(SimulationError, match="a vCPU is one CPU"):
            provider.launch_instance("vm-smp", "alice")
        assert provider.instances == {}

    def test_solo_vm_tariffs_agree(self):
        _, victim = _virt_run()
        # Solo busy guest: metered bill tracks uptime to tick precision.
        assert victim.steal_ns == 0
        assert (abs(victim.metered_usage().total_ns - victim.uptime_ns)
                <= 3 * TICK)

    def test_sched_attack_inflates_victims_metered_bill(self):
        _, clean = _virt_run()
        provider, attacked = _virt_run(attack_fraction=0.75)
        # The victim's *metered* bill inflates even though its work
        # didn't change ...
        assert (attacked.metered_usage().total_ns
                >= 2 * clean.metered_usage().total_ns)
        # ... its wall-clock stretches (steal time) ...
        assert attacked.uptime_ns > 1.2 * clean.uptime_ns
        assert attacked.steal_ns > 0
        # ... and the attacker's own metered bill stays near zero while
        # it genuinely burned CPU.
        evil = provider.instances["vm-evil"]
        assert evil.metered_usage().total_ns <= 2 * TICK
        assert evil.vm.ran_ns > 5 * TICK

    def test_uptime_billing_off_host_clock(self):
        provider, victim = _virt_run(attack_fraction=0.75)
        hv = provider.hypervisor
        # Uptime is host wall time, so it already includes steal: the
        # guest's own (frozen-under-steal) clock would under-report it.
        assert victim.uptime_ns == (victim.terminated_ns
                                    - victim.launched_ns)
        guest_clock_delta = (victim.vm.guest_clock_ns
                             - victim.vm.attach_guest_ns)
        assert victim.uptime_ns > guest_clock_delta
        assert hv.clock.now >= victim.terminated_ns

    def test_invoices_use_hypervisor_metering(self):
        provider, _ = _virt_run(attack_fraction=0.75)
        invoice = provider.invoice_cpu("vm-victim")
        victim = provider.instances["vm-victim"]
        assert invoice.usage.total_ns == victim.billed_usage().total_ns
        assert victim.billed_usage().total_ns % TICK == 0
        assert "vm-victim" in provider.summary()
