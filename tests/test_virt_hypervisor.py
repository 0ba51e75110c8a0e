"""Unit tests for the virtualization layer: credit scheduler, vCPU time
model, steal injection, paravirtual interface, and the virt invariant
checker."""

import pytest

from repro.config import default_config
from repro.errors import SimulationError
from repro.kernel import procfs
from repro.programs.attackers import make_busyloop
from repro.programs.base import Program
from repro.programs.ops import Compute, Syscall
from repro.programs.stdlib import install_standard_libraries
from repro.programs.workloads import make_ourprogram
from repro.verify import InvariantViolation, VirtInvariantChecker
from repro.virt import (
    PRI_BOOST,
    PRI_OVER,
    PRI_UNDER,
    CreditScheduler,
    Hypervisor,
    HypervisorConfig,
    VcpuState,
)

TICK = 10_000_000  # default hypervisor accounting tick


def boot(hv, name, program, weight=256):
    vm = hv.create_vm(name, weight=weight)
    install_standard_libraries(vm.machine.kernel.libraries)
    task = vm.machine.new_shell().run_command(program)
    return vm, task


def busy(cycles=10**13):
    return make_busyloop(total_cycles=cycles)


class TestCreditScheduler:
    def _vm(self, hv, name, weight=256):
        return hv.create_vm(name, weight=weight)

    def test_register_starts_under_with_credits(self):
        hv = Hypervisor()
        vm = self._vm(hv, "a")
        assert vm.priority == PRI_UNDER
        assert vm.credits == 300  # credits_per_tick * refill_every_ticks

    def test_charge_tick_debits_only_the_sampled_vcpu(self):
        hv = Hypervisor()
        a, b = self._vm(hv, "a"), self._vm(hv, "b")
        before_b = b.credits
        # Refill fires every 3rd tick; a lone tick is a pure debit.
        hv.scheduler.charge_tick(a, [a, b])
        assert a.credits == 200
        assert b.credits == before_b

    def test_sampled_vcpu_loses_boost(self):
        hv = Hypervisor()
        a = self._vm(hv, "a")
        a.priority = PRI_BOOST
        hv.scheduler.charge_tick(a, [a])
        assert a.priority == PRI_UNDER

    def test_overdraw_goes_over_then_refill_restores(self):
        sched = CreditScheduler(credits_per_tick=100, refill_every_ticks=3)
        hv = Hypervisor()
        a = self._vm(hv, "a")
        a.credits = 50
        sched.register(a)
        a.credits = 50
        sched.charge_tick(a, [a])  # tick 1: 50 - 100 = -50
        assert a.priority == PRI_OVER
        sched.charge_tick(None, [a])  # tick 2
        sched.charge_tick(None, [a])  # tick 3: refill of 300 (sole vm)
        assert a.credits > 0
        assert a.priority == PRI_UNDER

    def test_refill_splits_by_weight(self):
        sched = CreditScheduler(credits_per_tick=100, refill_every_ticks=3)
        hv = Hypervisor()
        light = self._vm(hv, "light", weight=256)
        heavy = self._vm(hv, "heavy", weight=768)
        light.credits = heavy.credits = 0
        sched._refill([light, heavy])
        assert light.credits == 75   # 300 * 256 / 1024
        assert heavy.credits == 225  # 300 * 768 / 1024

    def test_pick_next_priority_then_fifo(self):
        sched = CreditScheduler()
        hv = Hypervisor()
        a, b, c = (self._vm(hv, n) for n in "abc")
        for vm in (a, b, c):
            sched.register(vm)
        c.priority = PRI_BOOST
        assert sched.pick_next([a, b, c]) is c
        c.priority = PRI_OVER
        assert sched.pick_next([a, b, c]) is a  # earliest UNDER seq
        sched.requeue(a)
        assert sched.pick_next([a, b, c]) is b

    def test_wake_boosts_unless_overdrawn(self):
        sched = CreditScheduler()
        hv = Hypervisor()
        a = self._vm(hv, "a")
        sched.register(a)
        sched.on_wake(a)
        assert a.priority == PRI_BOOST
        a.credits = -10
        a.priority = PRI_OVER
        sched.on_wake(a)
        assert a.priority == PRI_OVER

    def test_boost_disabled(self):
        sched = CreditScheduler(boost=False)
        hv = Hypervisor()
        a = self._vm(hv, "a")
        sched.register(a)
        sched.on_wake(a)
        assert a.priority == PRI_UNDER


class TestVcpuTimeModel:
    def test_solo_vm_has_no_steal_and_exact_ledger(self):
        hv = Hypervisor()
        vm, task = boot(hv, "solo", make_ourprogram(iterations=300))
        hv.run_until_exit([task], max_ns=10**10)
        led = hv.ledger(vm)
        assert led["steal_ns"] == 0
        assert (led["ran_ns"] + led["idle_ns"] + led["steal_ns"]
                == led["host_wall_ns"])
        # Guest clock saw every nanosecond the host did.
        assert vm.guest_clock_ns - vm.attach_guest_ns == (
            vm.ran_ns + vm.idle_ns)

    def test_two_busy_vms_conserve_and_split_the_core(self):
        hv = Hypervisor()
        a, _ = boot(hv, "a", busy())
        b, _ = boot(hv, "b", busy())
        hv.run_for(500_000_000)
        hv.sync_ledgers()
        for vm in (a, b):
            assert (vm.ran_ns + vm.idle_ns + vm.steal_ns
                    == hv.clock.now - vm.attach_host_ns)
            assert vm.steal_ns > 0  # each waited while the other ran
        # The physical core is never idle with two busy guests.
        assert a.ran_ns + b.ran_ns + hv.host_idle_ns == hv.clock.now
        # Equal weights → roughly equal shares.
        assert 0.7 <= a.ran_ns / b.ran_ns <= 1.4

    def test_steal_injected_into_guest_timekeeper_and_procfs(self):
        hv = Hypervisor()
        a, _ = boot(hv, "a", busy())
        b, _ = boot(hv, "b", busy())
        hv.run_for(300_000_000)
        hv.sync_ledgers()
        kernel = a.machine.kernel
        assert kernel.timekeeper.steal_ns == a.steal_ns
        assert procfs.uptime(kernel)["steal_s"] == pytest.approx(
            a.steal_ns / 1e9)
        assert "steal:" in procfs.top(kernel)

    def test_blocked_guest_idles_without_burning_host_cpu(self):
        hv = Hypervisor()

        def sleeper(ctx):
            yield Compute(1_000_000)
            yield Syscall("nanosleep", (200_000_000,))
            yield Compute(1_000_000)

        vm, task = boot(hv, "s", Program("sleeper", sleeper))
        hv.run_until_exit([task], max_ns=10**10)
        assert vm.idle_ns > 150_000_000
        assert hv.host_idle_ns > 150_000_000  # core really idled
        assert (vm.ran_ns + vm.idle_ns + vm.steal_ns
                == hv.clock.now - vm.attach_host_ns)

    def test_billing_is_tick_quantised(self):
        hv = Hypervisor()
        vm, task = boot(hv, "solo", make_ourprogram(iterations=300))
        hv.run_until_exit([task], max_ns=10**10)
        assert vm.billed_total_ns == vm.sampled_ticks * TICK
        # Solo busy guest: bill within one tick of actual run time.
        assert abs(vm.billed_total_ns - vm.ran_ns) <= 2 * TICK


class TestRunSlice:
    """``VirtualMachine.run_slice``: the guest runs for a budget of host
    time and hands the core back when the budget is spent or it halts."""

    def _busy_guest(self, hv, tasks=1):
        vm = hv.create_vm("busy")
        install_standard_libraries(vm.machine.kernel.libraries)
        shell = vm.machine.new_shell()
        for _ in range(tasks):
            shell.run_command(busy())
        return vm

    def test_busy_guest_consumes_exactly_its_budget(self):
        vm = self._busy_guest(Hypervisor(), tasks=2)
        clock = vm.machine.clock
        for _ in range(40):
            start = clock.now
            assert vm.run_slice(333_333) == (333_333, False)
            assert clock.now - start == 333_333

    def test_work_due_at_the_slice_start_may_overshoot(self):
        # A slice that opens on a guest tick runs the tick handler, and the
        # context switch it asks for, to completion even past a budget
        # shorter than that work.
        vm = self._busy_guest(Hypervisor(), tasks=2)
        machine = vm.machine
        kernel = machine.kernel
        tick = machine.cfg.tick_ns
        costs = machine.cfg.costs
        switch_ns = machine.cpu.cycles_to_ns(
            costs.context_switch_cycles + costs.schedule_pick_cycles)
        for k in range(1, 20):
            vm.run_slice(k * tick - machine.clock.now)
            switches = kernel.context_switches
            start = machine.clock.now
            consumed, idled = vm.run_slice(100)
            assert idled is False
            assert consumed == machine.clock.now - start
            assert 100 < consumed < 100 + 10_000
            if kernel.context_switches > switches:
                assert consumed > switch_ns
                return
        pytest.fail("no slice opening on a tick switched guest tasks")

    def test_halted_guest_returns_idled_without_advancing(self):
        def sleeper(ctx):
            yield Compute(1_000_000)
            yield Syscall("nanosleep", (200_000_000,))

        vm, _ = boot(Hypervisor(), "s", Program("sleeper", sleeper))
        clock = vm.machine.clock
        consumed, idled = vm.run_slice(50_000_000)
        assert idled is True
        assert 0 < consumed < 50_000_000
        halted_at = clock.now
        assert vm.run_slice(50_000_000) == (0, True)
        assert clock.now == halted_at

    def test_guest_event_inside_the_slice_fires_and_slice_continues(self):
        vm = self._busy_guest(Hypervisor())
        tick = vm.machine.cfg.tick_ns
        timekeeper = vm.machine.kernel.timekeeper
        jiffies = timekeeper.jiffies
        budget = 3 * tick + tick // 2
        assert vm.run_slice(budget) == (budget, False)
        assert timekeeper.jiffies - jiffies == 3


class TestParavirtInterface:
    def test_pv_calls_see_host_time_and_steal(self):
        hv = Hypervisor()
        out = {}

        def prober(ctx):
            out["host0"] = yield Syscall("pv_host_time")
            out["guest0"] = yield Syscall("clock_gettime")
            yield Compute(50_000_000)
            out["host1"] = yield Syscall("pv_host_time")
            out["guest1"] = yield Syscall("clock_gettime")
            out["steal"] = yield Syscall("pv_steal")

        vm, task = boot(hv, "p", Program("prober", prober))
        hv.run_until_exit([task], max_ns=10**10)
        assert out["host1"] > out["host0"]
        assert out["guest1"] > out["guest0"]
        # Solo guest: host and guest clocks advance in lockstep.
        assert out["host1"] - out["host0"] == pytest.approx(
            out["guest1"] - out["guest0"], abs=1_000_000)
        assert out["steal"] == 0

    def test_pv_interface_is_per_vm(self):
        hv = Hypervisor()
        a = hv.create_vm("a")
        b = hv.create_vm("b")
        assert "pv_host_time" in a.machine.kernel.syscalls.names()
        assert "pv_steal" in b.machine.kernel.syscalls.names()


class TestHypervisorLifecycle:
    def test_duplicate_vm_name_rejected(self):
        hv = Hypervisor()
        hv.create_vm("a")
        with pytest.raises(SimulationError):
            hv.create_vm("a")

    def test_vm_lookup(self):
        hv = Hypervisor()
        vm = hv.create_vm("a")
        assert hv.vm("a") is vm
        with pytest.raises(KeyError):
            hv.vm("nope")

    def test_multi_cpu_guest_rejected(self):
        # A vCPU is one CPU: an nproc=2 guest would run on its CPU 0 alone.
        hv = Hypervisor()
        with pytest.raises(SimulationError, match="a vCPU is one CPU"):
            hv.create_vm("smp", cfg=default_config(nproc=2))
        assert hv.vms == []

    def test_invalid_config_rejected(self):
        with pytest.raises(SimulationError):
            Hypervisor(HypervisorConfig(tick_ns=0))

    def test_run_until_deadline_raises(self):
        hv = Hypervisor()
        boot(hv, "a", busy())
        with pytest.raises(SimulationError):
            hv.run_until(lambda: False, max_ns=50_000_000)

    def test_all_parked_run_for_fast_forwards(self):
        hv = Hypervisor()
        vm, task = boot(hv, "a", make_ourprogram(iterations=50))
        hv.run_until_exit([task], max_ns=10**10)
        # Guest timer keeps firing, so the vCPU wakes periodically but
        # finds nothing to run; host time still reaches the target.
        start = hv.clock.now
        hv.run_for(100_000_000)
        # run_for may overshoot to the next tick/wake boundary, never stop
        # short.
        assert start + 100_000_000 <= hv.clock.now <= (
            start + 100_000_000 + 2 * TICK)

    def test_summary_renders(self):
        hv = Hypervisor()
        vm, task = boot(hv, "render", make_ourprogram(iterations=50))
        hv.run_until_exit([task], max_ns=10**10)
        text = hv.summary()
        assert "render" in text and "billed" in text


class TestVirtInvariantChecker:
    def _run(self, checker=True):
        hv = Hypervisor(invariants=checker)
        a, _ = boot(hv, "a", busy(cycles=10**9))
        b, _ = boot(hv, "b", busy(cycles=10**9))
        hv.run_for(200_000_000)
        return hv, a

    def test_clean_run_passes(self):
        hv, _ = self._run()
        hv.check_invariants()
        assert hv.invariant_checker.full_checks > 0

    def test_guests_get_their_own_checkers(self):
        hv, a = self._run()
        assert a.machine.invariant_checker is not None

    def test_billing_tamper_detected(self):
        hv, a = self._run()
        a.billed_utime_ns += TICK
        with pytest.raises(InvariantViolation) as exc:
            hv.check_invariants()
        assert exc.value.category == "vm-billing-conservation"

    def test_ledger_tamper_detected(self):
        hv, a = self._run()
        a.steal_ns += 1
        with pytest.raises(InvariantViolation) as exc:
            hv.check_invariants()
        assert exc.value.category in ("vcpu-conservation", "steal-injection")

    def test_collect_mode_records_instead_of_raising(self):
        hv = Hypervisor(invariants="collect")
        a, _ = boot(hv, "a", busy(cycles=10**9))
        hv.run_for(100_000_000)
        a.ran_ns += 5
        hv.check_invariants()
        cats = {v.category for v in hv.invariant_checker.violations}
        assert "vcpu-conservation" in cats

    def test_prebuilt_checker_accepted(self):
        checker = VirtInvariantChecker(mode="collect")
        hv = Hypervisor(invariants=checker)
        assert hv.invariant_checker is checker
        assert checker.hypervisor is hv

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            VirtInvariantChecker(mode="bogus")
