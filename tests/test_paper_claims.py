"""Tests pinning specific sentences of the paper to simulator behaviour."""

import pytest

from repro import Machine, default_config
from repro.attacks import LibraryConstructorAttack, ShellAttack
from repro.config import SchedulerConfig
from repro.metering.attestation import (
    TrustedPlatformModule,
    compare_to_golden,
    measure_platform,
)
from repro.programs.stdlib import install_standard_libraries
from repro.programs.workloads import make_ourprogram, make_pi
from repro.runner import ExperimentSpec, run_spec

PAYLOAD = 253_000_000  # 0.1 s


@pytest.fixture
def m():
    machine = Machine(default_config())
    install_standard_libraries(machine.kernel.libraries)
    return machine


class TestShellAttackSideEffects:
    """§V-C: 'The shell attack increases the CPU time for all programs
    started from the same attacked shell.'"""

    def test_every_command_of_the_tampered_shell_pays(self, m):
        shell = m.new_shell()
        attack = ShellAttack(PAYLOAD)
        attack.install(m, shell)
        first = shell.run_command(make_ourprogram(iterations=200))
        second = shell.run_command(make_pi(chunks=20))
        m.run_until_exit([first, second], max_ns=10**11)
        from repro.programs.ops import Provenance

        for task in (first, second):
            injected = task.oracle_ns.get((True, Provenance.INJECTED), 0)
            assert injected == pytest.approx(100_000_000, abs=1_000)

    def test_other_shells_unaffected(self, m):
        """'These side effects can be mitigated by customizing the settings
        for the target user with a designated shell...'"""
        tampered = m.new_shell()
        clean = m.new_shell()
        ShellAttack(PAYLOAD).install(m, tampered)
        victim = tampered.run_command(make_ourprogram(iterations=200))
        bystander = clean.run_command(make_ourprogram(iterations=200))
        m.run_until_exit([victim, bystander], max_ns=10**11)
        from repro.programs.ops import Provenance

        assert victim.oracle_ns.get((True, Provenance.INJECTED), 0) > 0
        assert bystander.oracle_ns.get((True, Provenance.INJECTED), 0) == 0


class TestLibraryAttackSideEffects:
    """§V-C: 'The shared library attack inflates the time for all programs
    calling the library functions' — scoped by local env variables."""

    def test_preload_scoped_to_one_shell(self, m):
        tampered = m.new_shell()
        clean = m.new_shell()
        LibraryConstructorAttack(PAYLOAD).install(m, tampered)
        victim = tampered.run_command(make_ourprogram(iterations=200))
        bystander = clean.run_command(make_ourprogram(iterations=200))
        m.run_until_exit([victim, bystander], max_ns=10**11)
        from repro.programs.ops import Provenance

        assert victim.oracle_ns.get((True, Provenance.INJECTED), 0) > 0
        assert bystander.oracle_ns.get((True, Provenance.INJECTED), 0) == 0

    def test_all_programs_under_the_env_pay(self, m):
        shell = m.new_shell()
        LibraryConstructorAttack(PAYLOAD).install(m, shell)
        tasks = [shell.run_command(make_ourprogram(iterations=150)),
                 shell.run_command(make_pi(chunks=15))]
        m.run_until_exit(tasks, max_ns=10**11)
        from repro.programs.ops import Provenance

        for task in tasks:
            assert task.oracle_ns.get((True, Provenance.INJECTED), 0) > 0


class TestAttestationToctou:
    """§VI-B: 'all existing remote attestation schemes ... suffer from the
    gap between the time-of-measure and time-of-use.'"""

    def test_measure_then_tamper_goes_undetected(self, m):
        shell = m.new_shell()
        program = make_ourprogram(iterations=100)
        golden = measure_platform(m, shell, program)

        # t0: the provider attests a clean platform...
        tpm = TrustedPlatformModule(b"key")
        at_measure = measure_platform(m, shell, program)
        quote = tpm.quote(at_measure, nonce="n")
        assert compare_to_golden(at_measure, golden) == []

        # t1: ...then tampers, *after* the quote was taken.
        ShellAttack(PAYLOAD).install(m, shell)
        task = shell.run_command(program)
        m.run_until_exit([task], max_ns=10**11)
        from repro.programs.ops import Provenance

        stolen = task.oracle_ns.get((True, Provenance.INJECTED), 0)
        assert stolen > 0  # the theft happened
        # The stale quote still verifies clean: the TOCTOU gap.
        assert compare_to_golden(at_measure, golden) == []

    def test_remeasure_at_time_of_use_catches_it(self, m):
        shell = m.new_shell()
        program = make_ourprogram(iterations=100)
        golden = measure_platform(m, shell, program)
        ShellAttack(PAYLOAD).install(m, shell)
        at_use = measure_platform(m, shell, program)
        assert compare_to_golden(at_use, golden) != []


class TestTurnaroundVsCpuTime:
    """§III-B: 'turnaround time does not truly reflect the amount of
    resource consumed' — it moves with system load, CPU time does not."""

    def test_cpu_time_stable_under_load_but_turnaround_is_not(self, m):
        from repro.programs.workloads import make_busyloop

        solo = Machine(default_config())
        install_standard_libraries(solo.kernel.libraries)
        shell = solo.new_shell()
        task = shell.run_command(make_ourprogram(iterations=600))
        start = solo.clock.now
        solo.run_until_exit([task], max_ns=10**11)
        solo_turnaround = solo.clock.now - start
        solo_cpu = solo.kernel.accounting.usage(task).total_ns

        shell = m.new_shell()
        task = shell.run_command(make_ourprogram(iterations=600))
        shell.run_command(make_busyloop(total_cycles=2_000_000_000))
        start = m.clock.now
        m.run_until_exit([task], max_ns=10**11)
        loaded_turnaround = m.clock.now - start
        loaded_cpu = m.kernel.accounting.usage(task).total_ns

        assert loaded_turnaround > 1.5 * solo_turnaround
        assert loaded_cpu == pytest.approx(solo_cpu, rel=0.05)


class TestAccountingResolutionClaim:
    """§III-A: 'the resolution of CPU time accounting is the timer
    interrupt interval' — bills are exact multiples of the jiffy."""

    @pytest.mark.parametrize("hz", [100, 250, 1000])
    def test_bill_quantised_to_jiffies(self, hz):
        machine = Machine(default_config(hz=hz))
        install_standard_libraries(machine.kernel.libraries)
        shell = machine.new_shell()
        task = shell.run_command(make_ourprogram(iterations=300))
        machine.run_until_exit([task], max_ns=10**11)
        usage = machine.kernel.accounting.usage(task)
        tick = machine.cfg.tick_ns
        assert usage.utime_ns % tick == 0
        assert usage.stime_ns % tick == 0

    def test_sub_jiffy_job_bills_zero_or_one_tick(self):
        machine = Machine(default_config())
        install_standard_libraries(machine.kernel.libraries)
        shell = machine.new_shell()
        # ~1 ms of work on a 4 ms jiffy.
        task = shell.run_command(make_ourprogram(
            iterations=5, cycles_per_iter=500_000))
        machine.run_until_exit([task], max_ns=10**10)
        usage = machine.kernel.accounting.usage(task)
        assert usage.total_ns in (0, machine.cfg.tick_ns)


def _inflation(program, program_kwargs, attack, attack_kwargs, cfg=None):
    """Victim's attacked bill over its clean bill, same machine config."""
    def billed_s(name, kwargs):
        return run_spec(ExperimentSpec(
            program=program, program_kwargs=program_kwargs,
            attack=name, attack_kwargs=kwargs, cfg=cfg)).total_s

    return billed_s(attack, attack_kwargs) / billed_s(None, {})


#: The scheduling attack on W at the figures' default 0.4 scale.  The
#: ablation shapes below need this size: much smaller runs lose them.
SCHED_W = ({"loops": 1_600}, "scheduling", {"nice": -20, "forks": 3_200})


class TestTickGranularityAblation:
    """§III-A / §VI-B: a tick is 'usually 1 to 10 milliseconds'.  Finer
    ticks shrink the per-jiffy headroom the fork chain hides in, but the
    bursts fire once per jiffy, so the scheduling attack's inflation is
    roughly HZ-invariant: sampling at any granularity is the flaw."""

    def test_scheduling_attack_inflates_alike_at_every_hz(self):
        inflation = [_inflation("W", *SCHED_W, cfg=default_config(hz=hz))
                     for hz in (100, 250, 1000)]
        assert min(inflation) > 1.08
        assert max(inflation) <= 1.10 * min(inflation)


class TestSchedulerAblation:
    """DESIGN §5: CFS's START_DEBIT + child_runs_first fork placement
    paces the chain into tick-aligned bursts; under O(1) (no
    interactivity bonus) and round-robin the attack collapses."""

    def test_scheduling_attack_rides_cfs_fork_placement(self):
        inflation = {
            kind: _inflation("W", *SCHED_W, cfg=default_config(
                scheduler=SchedulerConfig(kind=kind)))
            for kind in ("cfs", "o1", "rr")}
        assert inflation["cfs"] > 1.10
        assert inflation["cfs"] > inflation["o1"]
        assert inflation["cfs"] > inflation["rr"]


class TestAttackStrengthLadder:
    """§V-C: launch attacks inflate arbitrarily, thrashing is tunable and
    the interrupt flood is bounded; measured on the same O workload."""

    def test_shell_beats_thrashing_beats_irq_flood(self):
        o = {"iterations": 800}
        shell = _inflation("O", o, "shell", {"payload_cycles": 506_000_000})
        thrashing = _inflation("O", o, "thrashing", {"watch_symbol": "i"})
        irq_flood = _inflation("O", o, "irq-flood", {"rate_pps": 20_000})
        assert shell > thrashing > 1.0
        assert thrashing > irq_flood
