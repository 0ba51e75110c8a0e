"""Tests for procfs views, composite attacks and the cost calibration."""

import pytest

from repro import Machine, default_config
from repro.analysis.calibration import Calibration, calibrate
from repro.analysis.experiment import run_experiment
from repro.attacks import (
    CompositeAttack,
    InterruptFloodAttack,
    SchedulingAttack,
    ShellAttack,
)
from repro.kernel import procfs
from repro.programs.stdlib import install_standard_libraries
from repro.programs.workloads import make_ourprogram, make_whetstone


@pytest.fixture
def running_machine():
    m = Machine(default_config())
    install_standard_libraries(m.kernel.libraries)
    shell = m.new_shell()
    task = shell.run_command(make_ourprogram(iterations=3_000))
    m.run_for(50_000_000)  # let it get going (run length ~510 ms)
    return m, task


class TestProcfs:
    def test_stat_fields(self, running_machine):
        m, task = running_machine
        row = procfs.stat(m.kernel, task.pid)
        assert row["comm"] == "O"
        assert row["state"] in ("R", "S")
        assert row["utime_ns"] >= 0
        assert row["rss_pages"] >= 1

    def test_stat_unknown_pid(self, running_machine):
        m, _task = running_machine
        with pytest.raises(KeyError):
            procfs.stat(m.kernel, 9999)

    def test_stat_all_skips_dead(self, running_machine):
        m, task = running_machine
        m.run_until_exit([task], max_ns=10**11)
        rows = procfs.stat_all(m.kernel)
        # The zombie is still listed (Z) until reaped; DEAD tasks are not.
        states = {r["state"] for r in rows}
        assert "X" not in states

    def test_meminfo_consistent(self, running_machine):
        m, _task = running_machine
        info = procfs.meminfo(m.kernel)
        assert (info["mem_free"] + info["mem_used"]
                + info["kernel_reserved"] == info["mem_total"])

    def test_interrupts_counts_timer(self, running_machine):
        m, _task = running_machine
        counts = procfs.interrupts(m.kernel)
        assert counts.get(0, 0) >= 10  # timer line

    def test_uptime(self, running_machine):
        m, _task = running_machine
        info = procfs.uptime(m.kernel)
        assert info["uptime_s"] > 0
        assert (info["user_ticks"] + info["kernel_ticks"]
                + info["idle_ticks"] == info["jiffies"])

    def test_top_renders(self, running_machine):
        m, _task = running_machine
        text = procfs.top(m.kernel)
        assert "PID" in text and "O" in text

    def test_top_limit(self, running_machine):
        m, _task = running_machine
        text = procfs.top(m.kernel, limit=1)
        assert len(text.splitlines()) == 3  # header x2 + one row


class TestCompositeAttack:
    def test_effects_stack(self):
        single = run_experiment(make_ourprogram(iterations=500),
                                ShellAttack(253_000_000))
        combo = run_experiment(
            make_ourprogram(iterations=500),
            CompositeAttack([ShellAttack(253_000_000),
                             InterruptFloodAttack(rate_pps=25_000)]))
        assert combo.utime_s == pytest.approx(single.utime_s, abs=0.02)
        assert combo.stime_s > single.stime_s

    def test_name_joins(self):
        combo = CompositeAttack([ShellAttack(1), InterruptFloodAttack()])
        assert combo.name == "shell+irq-flood"

    def test_requires_root_propagates(self):
        assert CompositeAttack([SchedulingAttack()]).requires_root
        assert not CompositeAttack([ShellAttack(1)]).requires_root

    def test_wait_for_attacker_propagates(self):
        assert CompositeAttack([SchedulingAttack()]).wait_for_attacker
        assert not CompositeAttack([ShellAttack(1)]).wait_for_attacker

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeAttack([])

    def test_oracle_splits_multiple_thefts(self):
        combo = run_experiment(
            make_whetstone(loops=800),
            CompositeAttack([ShellAttack(253_000_000),
                             SchedulingAttack(nice=-20, forks=2_000)]))
        assert combo.oracle_seconds.get("injected", 0) > 0.09


class TestCalibration:
    @pytest.fixture(scope="class")
    def calib(self):
        return calibrate(iterations=100)

    def test_returns_dataclass(self, calib):
        assert isinstance(calib, Calibration)

    def test_era_plausible_values(self, calib):
        # 2008-class x86: null syscall hundreds of ns, fork+exit tens of
        # us, minor fault ~1-3 us, PLT call tens of ns.
        assert 0.1 <= calib.null_syscall_us <= 2.0
        assert 30.0 <= calib.fork_wait_exit_us <= 300.0
        assert 0.5 <= calib.minor_fault_us <= 10.0
        assert 0.01 <= calib.lib_call_us <= 0.5
        assert 2.0 <= calib.thrash_roundtrip_us <= 40.0

    def test_thrash_roundtrip_measured_below_100_iterations(self):
        # The thrashing victim outlives the tracer's launch phase however
        # few iterations the other primitives run: hits, not a 0.000 cost.
        assert calibrate(iterations=50).thrash_roundtrip_us > 0

    def test_render_and_dict(self, calib):
        text = calib.render()
        assert "fork_wait_exit_us" in text
        assert set(calib.as_dict()) == {
            "null_syscall_us", "fork_wait_exit_us", "minor_fault_us",
            "lib_call_us", "thrash_roundtrip_us"}
