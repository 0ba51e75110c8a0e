"""Tests for the runtime attacks (scheduling, thrashing, floods)."""

import pytest

from repro.analysis.experiment import run_experiment
from repro.analysis.figures import run_figure
from repro.attacks import (
    ExceptionFloodAttack,
    InterruptFloodAttack,
    SchedulingAttack,
    ThrashingAttack,
    comparison_matrix,
)
from repro.attacks.comparison import ALL_ATTACK_TRAITS
from repro.config import MemoryConfig, default_config
from repro.programs.workloads import make_ourprogram, make_whetstone


def small_w(loops=2_000):
    return make_whetstone(loops=loops)


class TestSchedulingAttack:
    def test_inflates_victim_at_high_priority(self):
        baseline = run_experiment(small_w())
        attacked = run_experiment(
            small_w(), SchedulingAttack(nice=-20, forks=6_000))
        assert attacked.total_s > baseline.total_s * 1.10

    def test_attacker_time_shrinks_below_solo(self):
        attacked = run_experiment(
            small_w(), SchedulingAttack(nice=-20, forks=6_000))
        solo = run_experiment(small_w(), SchedulingAttack(nice=None,
                                                          forks=6_000))
        assert (attacked.attacker_usage.total_seconds
                < solo.attacker_usage.total_seconds)

    def test_weak_at_default_priority(self):
        baseline = run_experiment(small_w())
        attacked = run_experiment(
            small_w(), SchedulingAttack(nice=None, forks=6_000))
        assert attacked.total_s <= baseline.total_s * 1.08

    def test_tsc_accounting_neutralises(self):
        cfg = default_config(accounting="tsc")
        baseline = run_experiment(small_w(), cfg=cfg)
        attacked = run_experiment(
            small_w(), SchedulingAttack(nice=-20, forks=6_000), cfg=cfg)
        assert attacked.total_s <= baseline.total_s * 1.03

    def test_requires_root_trait(self):
        assert SchedulingAttack.traits.requires_root


class TestThrashingAttack:
    def test_inflates_stime(self):
        program = make_ourprogram(iterations=800)
        baseline = run_experiment(program)
        attacked = run_experiment(
            make_ourprogram(iterations=800), ThrashingAttack("i"))
        assert attacked.stime_s > baseline.stime_s
        assert attacked.stats["debug_exceptions"] > 500

    def test_mismatched_uid_tracer_denied(self):
        # The victim runs as uid 1000; a non-root tracer under another uid
        # is refused by the ptrace permission model (paper §V-C).
        attack = ThrashingAttack("i", tracer_uid=2000)
        result = run_experiment(make_ourprogram(iterations=200), attack)
        assert result.stats["debug_exceptions"] == 0

    def test_same_uid_tracer_allowed_by_default_policy(self):
        attack = ThrashingAttack("i", tracer_uid=1000)
        result = run_experiment(make_ourprogram(iterations=200), attack)
        assert result.stats["debug_exceptions"] > 0

    def test_victim_completes_correctly(self):
        result = run_experiment(make_ourprogram(iterations=300),
                                ThrashingAttack("i"))
        assert result.stats["exit_code"] == 0

    def test_watchpoint_hits_scale_with_accesses(self):
        small = run_experiment(make_ourprogram(iterations=200),
                               ThrashingAttack("i"))
        large = run_experiment(make_ourprogram(iterations=600),
                               ThrashingAttack("i"))
        assert (large.stats["debug_exceptions"]
                > 2 * small.stats["debug_exceptions"])


class TestInterruptFlood:
    def test_inflates_stime_only(self):
        program = make_ourprogram(iterations=600)
        baseline = run_experiment(program)
        attacked = run_experiment(make_ourprogram(iterations=600),
                                  InterruptFloodAttack(rate_pps=25_000))
        assert attacked.stime_s > baseline.stime_s
        assert attacked.utime_s == pytest.approx(baseline.utime_s, abs=0.02)

    def test_effect_scales_with_rate(self):
        lo = run_experiment(make_ourprogram(iterations=600),
                            InterruptFloodAttack(rate_pps=5_000))
        hi = run_experiment(make_ourprogram(iterations=600),
                            InterruptFloodAttack(rate_pps=40_000))
        assert hi.stime_s >= lo.stime_s

    def test_packets_delivered(self):
        result = run_experiment(make_ourprogram(iterations=300),
                                InterruptFloodAttack(rate_pps=10_000))
        assert result.stats["nic_packets"] > 100

    def test_flood_stopped_on_cleanup(self):
        attack = InterruptFloodAttack(rate_pps=10_000)
        run_experiment(make_ourprogram(iterations=200), attack)
        assert not attack.flood.running

    def test_process_aware_accounting_neutralises(self):
        cfg = default_config(accounting="tsc",
                             process_aware_irq_accounting=True)
        baseline = run_experiment(make_ourprogram(iterations=400), cfg=cfg)
        attacked = run_experiment(make_ourprogram(iterations=400),
                                  InterruptFloodAttack(rate_pps=25_000),
                                  cfg=cfg)
        assert attacked.stime_s == pytest.approx(baseline.stime_s, abs=0.005)


class TestExceptionFlood:
    def _cfg(self):
        return default_config(memory=MemoryConfig(
            ram_bytes=16 * 1024 * 1024, swap_bytes=128 * 1024 * 1024))

    def test_causes_system_thrashing(self):
        result = run_experiment(make_ourprogram(iterations=400),
                                ExceptionFloodAttack(), cfg=self._cfg())
        assert result.stats["swap_outs"] > 100

    def test_inflates_victim_time(self):
        cfg = self._cfg()
        baseline = run_experiment(make_ourprogram(iterations=2_000), cfg=cfg)
        attacked = run_experiment(make_ourprogram(iterations=2_000),
                                  ExceptionFloodAttack(), cfg=cfg)
        # The inflation shows as extra ticks, mostly sampled as stime
        # (deferred disk-completion windows, fault handling, reclaim).
        assert attacked.total_s > baseline.total_s
        assert attacked.stime_s >= baseline.stime_s

    def test_hog_killed_on_cleanup(self):
        attack = ExceptionFloodAttack()
        run_experiment(make_ourprogram(iterations=200), attack,
                       cfg=self._cfg())
        assert not attack.hog_task.alive

    def test_victim_survives(self):
        result = run_experiment(make_ourprogram(iterations=300),
                                ExceptionFloodAttack(), cfg=self._cfg())
        assert result.stats["exit_code"] == 0

    def test_fig11_victims_take_no_major_fault(self):
        """What the attack's docs say of fig11 at the benchmark's scale:
        no victim page is swapped back in; the extra stime comes with IRQ
        time and extra system time in the oracle."""
        fig = run_figure("fig11", scale=0.4)
        for name, (normal, attacked) in fig.pairs.items():
            before = fig.results[f"{name}:normal"]
            after = fig.results[f"{name}:attacked"]
            assert before.rusage["majflt"] == after.rusage["majflt"] == 0
            assert after.stats["swap_outs"] > 200
            assert attacked.stime_s > normal.stime_s
            assert "irq" not in before.oracle_seconds
            assert after.oracle_seconds["irq"] > 0.001
            assert (after.oracle_seconds["system"]
                    > before.oracle_seconds["system"])


class TestComparisonMatrix:
    def test_all_seven_rows(self):
        assert len(ALL_ATTACK_TRAITS) == 7

    def test_matrix_renders(self):
        text = comparison_matrix()
        for name in ("shell", "library-ctor", "library-subst", "scheduling",
                     "thrashing", "irq-flood", "fault-flood"):
            assert name in text

    def test_root_requirements_match_paper(self):
        by_name = {t.name: t for t in ALL_ATTACK_TRAITS}
        # §V-C: thrashing (LSM-gated ptrace) and scheduling (renice) need
        # privilege; the launch attacks and floods do not.
        assert by_name["scheduling"].requires_root
        assert by_name["thrashing"].requires_root
        assert not by_name["shell"].requires_root
        assert not by_name["irq-flood"].requires_root

    def test_inflation_targets(self):
        by_name = {t.name: t for t in ALL_ATTACK_TRAITS}
        assert by_name["shell"].inflates == "utime"
        assert by_name["thrashing"].inflates == "stime"
        assert by_name["irq-flood"].inflates == "stime"
