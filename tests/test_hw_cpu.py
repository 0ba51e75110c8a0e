"""Unit tests for the CPU model: conversions, TSC, debug registers."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.hw.cpu import CPU, CPUMode, DebugRegisters, Watchpoint


@pytest.fixture
def cpu():
    return CPU(2_530_000_000)


class TestConversions:
    def test_zero_cycles_zero_ns(self, cpu):
        assert cpu.cycles_to_ns(0) == 0

    def test_one_cycle_at_least_one_ns(self, cpu):
        assert cpu.cycles_to_ns(1) == 1

    def test_one_second_of_cycles(self, cpu):
        assert cpu.cycles_to_ns(2_530_000_000) == 1_000_000_000

    def test_ceiling_semantics(self, cpu):
        # 2.53 cycles/ns: 3 cycles should round up to 2 ns.
        assert cpu.cycles_to_ns(3) == 2

    def test_ns_to_cycles_floor(self, cpu):
        assert cpu.ns_to_cycles(1) == 2  # 2.53 -> floor 2
        assert cpu.ns_to_cycles(1_000_000_000) == 2_530_000_000

    def test_roundtrip_never_gains_time(self, cpu):
        for cycles in (1, 7, 1000, 123_456_789):
            ns = cpu.cycles_to_ns(cycles)
            assert cpu.ns_to_cycles(ns) >= cycles

    def test_negative_rejected(self, cpu):
        with pytest.raises(SimulationError):
            cpu.cycles_to_ns(-1)
        with pytest.raises(SimulationError):
            cpu.ns_to_cycles(-1)

    def test_bad_frequency(self):
        with pytest.raises(ConfigError):
            CPU(0)


class TestTsc:
    def test_tsc_starts_at_zero(self, cpu):
        assert cpu.read_tsc() == 0

    def test_retire_advances_tsc(self, cpu):
        cpu.retire_cycles(100)
        cpu.retire_cycles(50)
        assert cpu.read_tsc() == 150

    def test_negative_retire_rejected(self, cpu):
        with pytest.raises(SimulationError):
            cpu.retire_cycles(-1)

    def test_boots_in_kernel_mode(self, cpu):
        assert cpu.mode is CPUMode.KERNEL


class TestWatchpoint:
    def test_matches_within_range(self):
        wp = Watchpoint(0x1000, 4)
        assert wp.matches(0x1000, write=False)
        assert wp.matches(0x1003, write=True)
        assert not wp.matches(0x1004, write=True)
        assert not wp.matches(0xFFF, write=True)

    def test_write_only(self):
        wp = Watchpoint(0x1000, 4, write_only=True)
        assert not wp.matches(0x1000, write=False)
        assert wp.matches(0x1000, write=True)

    def test_invalid_length(self):
        with pytest.raises(ConfigError):
            Watchpoint(0x1000, 3)

    @pytest.mark.parametrize("length", [1, 2, 4, 8])
    def test_valid_lengths(self, length):
        assert Watchpoint(0, length).length == length


class TestDebugRegisters:
    def test_four_slots(self):
        regs = DebugRegisters()
        assert DebugRegisters.SLOTS == 4
        for i in range(4):
            assert regs.get_slot(i) is None

    def test_set_and_hit(self):
        regs = DebugRegisters()
        regs.set_slot(0, Watchpoint(0x2000, 8))
        assert regs.armed
        assert regs.hit(0x2004, write=False) == 0
        assert regs.hit(0x3000, write=False) is None

    def test_first_matching_slot_wins(self):
        regs = DebugRegisters()
        regs.set_slot(1, Watchpoint(0x2000, 8))
        regs.set_slot(3, Watchpoint(0x2000, 8))
        assert regs.hit(0x2000, write=True) == 1

    def test_clear_slot(self):
        regs = DebugRegisters()
        regs.set_slot(0, Watchpoint(0x2000, 8))
        regs.set_slot(0, None)
        assert not regs.armed

    def test_armed_follows_every_slot(self):
        regs = DebugRegisters()
        regs.set_slot(1, Watchpoint(0x2000, 8))
        regs.set_slot(3, Watchpoint(0x3000, 8))
        regs.set_slot(1, None)
        assert regs.armed  # slot 3 still holds a watchpoint
        assert regs.copy().armed
        regs.set_slot(3, None)
        assert not regs.armed
        assert not regs.copy().armed

    def test_out_of_range_slot(self):
        regs = DebugRegisters()
        with pytest.raises(ConfigError):
            regs.set_slot(4, None)
        with pytest.raises(ConfigError):
            regs.get_slot(-1)

    def test_copy_is_independent(self):
        regs = DebugRegisters()
        regs.set_slot(0, Watchpoint(0x2000, 8))
        clone = regs.copy()
        clone.set_slot(0, None)
        assert regs.armed
        assert not clone.armed

    def test_clear_all(self):
        regs = DebugRegisters()
        regs.set_slot(0, Watchpoint(0x1000, 4))
        regs.set_slot(2, Watchpoint(0x2000, 4))
        regs.clear()
        assert not regs.armed
