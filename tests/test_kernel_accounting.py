"""Unit tests for the accounting schemes — the paper's central mechanism."""

import copy

import pytest

from repro.config import default_config
from repro.errors import ConfigError
from repro.hw.cpu import CPUMode
from repro.kernel.accounting import (
    AccountingScheme,
    ChargeKind,
    CpuUsage,
    TickAccounting,
    TscAccounting,
    make_accounting,
)
from repro.kernel.process import Task

TICK = 4_000_000


@pytest.fixture
def task():
    return Task(1, "victim")


class TestCpuUsage:
    def test_zero_default(self):
        usage = CpuUsage()
        assert usage.total_ns == 0
        assert usage.total_seconds == 0.0

    def test_addition(self):
        total = CpuUsage(1, 2) + CpuUsage(10, 20)
        assert (total.utime_ns, total.stime_ns) == (11, 22)

    def test_second_properties(self):
        usage = CpuUsage(1_500_000_000, 500_000_000)
        assert usage.utime_seconds == pytest.approx(1.5)
        assert usage.stime_seconds == pytest.approx(0.5)
        assert usage.total_seconds == pytest.approx(2.0)


class TestTickAccounting:
    def test_tick_charges_whole_jiffy_user(self, task):
        acct = TickAccounting(TICK)
        acct.on_tick(task, CPUMode.USER)
        usage = acct.usage(task)
        assert usage.utime_ns == TICK
        assert usage.stime_ns == 0

    def test_tick_charges_whole_jiffy_kernel(self, task):
        acct = TickAccounting(TICK)
        acct.on_tick(task, CPUMode.KERNEL)
        assert acct.usage(task).stime_ns == TICK

    def test_charge_is_ignored(self, task):
        """The vulnerability: exact charges carry no billing weight."""
        acct = TickAccounting(TICK)
        acct.charge(task, CPUMode.USER, 10**9, ChargeKind.USER)
        assert acct.usage(task).total_ns == 0

    def test_idle_tick_counted(self):
        acct = TickAccounting(TICK)
        acct.on_tick(None, CPUMode.KERNEL)
        assert acct.idle_ticks == 1

    def test_partial_jiffy_billed_in_full(self, task):
        """A task that ran 1 ns before the tick is billed the whole jiffy
        — the exact flaw the scheduling attack exploits."""
        acct = TickAccounting(TICK)
        acct.charge(task, CPUMode.USER, 1, ChargeKind.USER)
        acct.on_tick(task, CPUMode.USER)
        assert acct.usage(task).utime_ns == TICK

    def test_process_aware_irq_deduction(self, task):
        acct = TickAccounting(TICK, process_aware_irq=True)
        acct.charge(task, CPUMode.KERNEL, 1_000_000, ChargeKind.IRQ)
        acct.on_tick(task, CPUMode.USER)
        assert acct.usage(task).utime_ns == TICK - 1_000_000
        assert acct.system_ns == 1_000_000

    def test_irq_deduction_capped_at_jiffy(self, task):
        acct = TickAccounting(TICK, process_aware_irq=True)
        acct.charge(task, CPUMode.KERNEL, 10 * TICK, ChargeKind.IRQ)
        acct.on_tick(task, CPUMode.USER)
        assert acct.usage(task).utime_ns == 0
        assert acct.system_ns == TICK

    def test_irq_window_resets_each_tick(self, task):
        acct = TickAccounting(TICK, process_aware_irq=True)
        acct.charge(task, CPUMode.KERNEL, 1_000, ChargeKind.IRQ)
        acct.on_tick(task, CPUMode.USER)
        acct.on_tick(task, CPUMode.USER)
        assert acct.usage(task).utime_ns == 2 * TICK - 1_000


class TestTscAccounting:
    def test_exact_charges(self, task):
        acct = TscAccounting(TICK)
        acct.charge(task, CPUMode.USER, 123, ChargeKind.USER)
        acct.charge(task, CPUMode.KERNEL, 456, ChargeKind.SYSCALL)
        usage = acct.usage(task)
        assert usage.utime_ns == 123
        assert usage.stime_ns == 456

    def test_ticks_carry_no_weight(self, task):
        acct = TscAccounting(TICK)
        acct.on_tick(task, CPUMode.USER)
        assert acct.usage(task).total_ns == 0

    def test_process_aware_diverts_irq(self, task):
        acct = TscAccounting(TICK, process_aware_irq=True)
        acct.charge(task, CPUMode.KERNEL, 999, ChargeKind.IRQ)
        assert acct.usage(task).total_ns == 0
        assert acct.system_ns == 999

    def test_without_process_aware_irq_charged(self, task):
        acct = TscAccounting(TICK)
        acct.charge(task, CPUMode.KERNEL, 999, ChargeKind.IRQ)
        assert acct.usage(task).stime_ns == 999

    def test_idle_charge_dropped(self):
        acct = TscAccounting(TICK)
        acct.charge(None, CPUMode.KERNEL, 999, ChargeKind.IRQ)
        assert acct.system_ns == 0  # not process-aware: just idle time


def _all_schemes(cls=AccountingScheme):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_schemes(sub)


class TestChargesWork:
    """``charges_work = False`` lets the kernel skip a scheme's ``charge``
    for everything but interrupt slices; that is only sound while the
    scheme's ``charge`` really ignores those slices."""

    @pytest.mark.parametrize("process_aware", [False, True])
    def test_schemes_that_skip_work_ignore_non_irq_charges(
            self, task, process_aware):
        skipping = [cls for cls in _all_schemes() if not cls.charges_work]
        assert TickAccounting in skipping
        slots = Task.__slots__
        for cls in skipping:
            acct = cls(TICK, process_aware)
            before = copy.deepcopy(vars(acct))
            task_before = [getattr(task, name, None) for name in slots]
            for kind in ChargeKind:
                if kind is ChargeKind.IRQ:
                    continue
                for mode in CPUMode:
                    acct.charge(task, mode, 1_000_000, kind)
                    acct.charge(None, mode, 1_000_000, kind)
            assert vars(acct) == before, cls.__name__
            assert [getattr(task, name, None) for name in slots] \
                == task_before, cls.__name__


class TestFactory:
    def test_tick_scheme(self):
        cfg = default_config(accounting="tick")
        assert isinstance(make_accounting(cfg), TickAccounting)

    def test_tsc_scheme(self):
        cfg = default_config(accounting="tsc")
        assert isinstance(make_accounting(cfg), TscAccounting)

    def test_process_aware_flag_propagates(self):
        cfg = default_config(accounting="tsc",
                             process_aware_irq_accounting=True)
        assert make_accounting(cfg).process_aware_irq

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            default_config(accounting="magic")

    def test_tick_ns_matches_hz(self):
        cfg = default_config(hz=250)
        assert cfg.tick_ns == 4_000_000
        assert make_accounting(cfg).tick_ns == 4_000_000
