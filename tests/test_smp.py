"""SMP layer tests: migration accounting, per-CPU conservation, attacks.

Three families, mirroring the layer's trust argument:

* **Property tests** — billed time equals oracle ground truth under exact
  (TSC) accounting *no matter how often the task migrates*, while tick
  accounting at nproc > 1 is dodgeable by construction; the oracle is
  scheduler- and CPU-count-independent.
* **Mutation tests** — corruptions confined to exactly one CPU (a
  double-counted tick, a cross-CPU misattributed charge) must be caught
  by the per-CPU generalization of the invariant checker; the identical
  corruption wired to a CPU that doesn't exist on a uniprocessor passes,
  proving detection comes from the per-CPU books, not the global ones.
* **Surface tests** — getcpu/migrate syscalls, /proc/stat per-CPU rows,
  TimeKeeper's CPU-0-only jiffy counter and gated snapshot keys, and the
  clocksource watchdog staying on the timekeeping CPU.
"""

from __future__ import annotations

import json

import pytest

from repro import Machine, default_config
from repro.analysis.experiment import run_experiment
from repro.analysis.figures import paper_workload_params
from repro.attacks import IrqSteerAttack, SmpDodgeAttack
from repro.config import SchedulerConfig
from repro.errors import SimulationError
from repro.kernel.accounting import ChargeKind
from repro.kernel.procfs import cpu_stat
from repro.kernel.signals import SIGCONT, SIGKILL, SIGSTOP
from repro.kernel.timekeeping import TimeKeeper
from repro.programs.ops import Compute, Syscall
from repro.programs.workloads import make_paper_program
from repro.runner import ExperimentSpec, run_spec
from repro.verify import InvariantViolation

from .guest_helpers import run_all, spawn_fn

PARAMS = paper_workload_params(0.05)
SMALL = paper_workload_params(0.02)


def smp_machine(nproc=2, **kw):
    return Machine(default_config(nproc=nproc, **kw))


def _burn(cycles):
    def body(ctx):
        yield Compute(cycles)
        return 0
    return body


def run_body(machine, body):
    seen = {}

    def wrapper(ctx):
        seen["result"] = yield from body(ctx)
        return 0

    task = spawn_fn(machine, wrapper)
    run_all(machine, [task])
    return seen["result"], task


# ----------------------------------------------------------------------
# syscall surface
# ----------------------------------------------------------------------

class TestMigrateSyscalls:
    def test_getcpu_starts_on_cpu0(self):
        def body(ctx):
            return (yield Syscall("getcpu"))

        result, _ = run_body(smp_machine(), body)
        assert result == 0

    def test_migrate_moves_and_pins(self):
        def body(ctx):
            yield Syscall("migrate", (1,))
            yield Compute(1_000_000)
            return (yield Syscall("getcpu"))

        result, task = run_body(smp_machine(), body)
        assert result == 1
        assert task.cpu == 1
        assert task.cpus_allowed == {1}
        assert task.migrations == 1

    def test_migrate_to_own_cpu_is_a_noop(self):
        def body(ctx):
            yield Syscall("migrate", (0,))
            return (yield Syscall("getcpu"))

        result, task = run_body(smp_machine(), body)
        assert result == 0
        assert task.migrations == 0
        assert task.cpus_allowed == {0}  # still pins

    def test_migrate_out_of_range_is_einval(self):
        def body(ctx):
            return (yield Syscall("migrate", (7,)))

        result, _ = run_body(smp_machine(), body)
        assert result == -22

    def test_uniprocessor_migrate_is_harmless(self):
        def body(ctx):
            yield Syscall("migrate", (0,))
            return (yield Syscall("getcpu"))

        result, task = run_body(Machine(default_config()), body)
        assert result == 0
        assert task.migrations == 0


# ----------------------------------------------------------------------
# per-CPU queues: a READY task held off its CPU
# ----------------------------------------------------------------------

def _mover(ctx):
    """Pin to CPU 1 from CPU 0, then report where the work ran."""
    yield Syscall("migrate", (1,))
    yield Compute(1_000_000)
    return (yield Syscall("getcpu"))


class TestPerCpuQueues:
    """A task parked for migration sits in the in-flight list until the
    slice barrier; a task pinned elsewhere is queued on its own CPU.  A
    second task on CPU 0 signals it in both places, with every invariant
    checked."""

    def _run(self, signals):
        machine = Machine(default_config(nproc=2), invariants=True)
        kernel = machine.kernel
        seen = []

        def where():
            return ([t.pid for t, _src in kernel._pending_migrations],
                    [ctx.scheduler.queued_pids()
                     for ctx in kernel._cpu_contexts])

        def signaller(ctx, pid):
            seen.append(where())
            for sig in signals:
                yield Syscall("kill", (pid, sig))
                seen.append(where())
            return 0

        mover = spawn_fn(machine, _mover, name="mover")
        other = spawn_fn(machine, signaller, name="signaller",
                         args=(mover.pid,))
        run_all(machine, [mover, other])
        machine.check_invariants()
        return kernel, mover, seen

    def test_stop_in_flight_then_continue_queues_on_pinned_cpu(self):
        kernel, mover, seen = self._run((SIGSTOP, SIGCONT))
        pid = mover.pid
        in_flight, _queues = seen[0]
        assert in_flight == [pid]             # parked for the barrier
        assert seen[1] == ([], [[], []])      # stopped: held nowhere
        # SIGCONT from CPU 0 wakes it straight onto pinned CPU 1's queue.
        assert seen[2] == ([], [[], [pid]])
        assert mover.exit_code == 1           # getcpu ran on CPU 1
        assert mover.migrations == 1
        assert kernel.balance_moves == 0

    def test_kill_in_flight(self):
        _kernel, mover, seen = self._run((SIGKILL,))
        assert seen[0][0] == [mover.pid]
        assert seen[1] == ([], [[], []])
        assert mover.exit_code == 128 + SIGKILL
        assert mover.migrations == 1

    def test_kill_on_another_cpus_queue(self):
        _kernel, mover, seen = self._run((SIGSTOP, SIGCONT, SIGKILL))
        assert seen[2] == ([], [[], [mover.pid]])
        assert seen[3] == ([], [[], []])
        assert mover.exit_code == 128 + SIGKILL
        assert mover.migrations == 1


# ----------------------------------------------------------------------
# migration accounting properties
# ----------------------------------------------------------------------

def _dodge_result(nproc, accounting):
    cfg = default_config(accounting=accounting, nproc=nproc)
    return run_experiment(make_paper_program("O", **PARAMS["O"]),
                          attack=SmpDodgeAttack(), cfg=cfg,
                          check_invariants=True)


class TestMigrationAccounting:
    @pytest.mark.parametrize("nproc", [2, 4])
    def test_tsc_bill_equals_oracle_regardless_of_migrations(self, nproc):
        """Exact accounting is migration-proof: every charged nanosecond
        lands at the charging instant, on whatever CPU it happens on, so
        the attacker's bill equals its ground-truth work to the ns."""
        result = _dodge_result(nproc, "tsc")
        assert result.stats["migrations_total"] >= 10  # the dodge ran
        usage = result.attacker_usage
        billed = usage.utime_ns + usage.stime_ns
        assert billed == result.stats["attacker_oracle_ns"]

    def test_tick_accounting_is_dodgeable_only_on_smp(self):
        """The same attacker under sampled accounting: fully billed on one
        CPU (migration is a no-op, every tick is local), billed ~nothing
        as soon as there is a second CPU to hop to."""
        uni = _dodge_result(1, "tick")
        uni_billed = uni.attacker_usage.utime_ns + uni.attacker_usage.stime_ns
        smp = _dodge_result(2, "tick")
        smp_billed = smp.attacker_usage.utime_ns + smp.attacker_usage.stime_ns
        oracle_ns = smp.stats["attacker_oracle_ns"]
        assert oracle_ns > 0
        # Uniprocessor: billed at least 90% of its true work.
        assert uni_billed >= int(0.9 * oracle_ns)
        # SMP: less than 5% of the work ever gets billed.
        assert smp_billed <= int(0.05 * oracle_ns)
        # ...and the victim's own bill is untouched by the attacker's game.
        assert smp.usage.utime_ns == uni.usage.utime_ns

    @pytest.mark.parametrize("scheduler", ["cfs", "o1", "rr"])
    def test_oracle_is_scheduler_and_cpu_count_independent(self, scheduler):
        """Ground truth only counts cycles the program itself executed, so
        it cannot depend on interleaving: same program, any scheduler, any
        CPU count → identical oracle ledger."""
        baseline = run_experiment(make_paper_program("O", **SMALL["O"]),
                                  cfg=default_config())
        cfg = default_config(
            nproc=4, scheduler=SchedulerConfig(kind=scheduler))
        smp = run_experiment(make_paper_program("O", **SMALL["O"]), cfg=cfg,
                             check_invariants=True)
        assert smp.oracle_seconds == baseline.oracle_seconds

    def test_smp_runs_are_deterministic(self):
        """Two identical multi-CPU runs — balancer, migrations and all —
        must produce byte-identical result documents."""
        spec = ExperimentSpec(
            program="W", program_kwargs=SMALL["W"], attack="scheduling",
            attack_kwargs={"nice": -10, "forks": 100}, nproc=2,
            check_invariants=True)
        doc1 = json.dumps(run_spec(spec).to_dict(), sort_keys=True)
        doc2 = json.dumps(run_spec(spec).to_dict(), sort_keys=True)
        assert doc1 == doc2

    def test_load_balancer_spreads_forks(self):
        """The fork storm must not stay piled on its home CPU."""
        result = run_spec(ExperimentSpec(
            program="W", program_kwargs=SMALL["W"], attack="scheduling",
            attack_kwargs={"nice": -10, "forks": 100}, nproc=2,
            check_invariants=True))
        assert result.stats["nproc"] == 2
        assert result.stats["balance_moves"] > 0


# ----------------------------------------------------------------------
# mutation tests: per-CPU detection
# ----------------------------------------------------------------------

def _double_tick_on_cpu1(machine):
    """Kernel-side corruption confined to CPU 1: its timekeeper samples
    count double (the SMP cousin of the classic double-tick injector)."""
    tk = machine.kernel.timekeeper
    original = tk.tick

    def tick(running, user_mode, cpu=0):
        original(running, user_mode, cpu)
        if cpu == 1:
            original(running, user_mode, cpu)

    tk.tick = tick


class TestIrqSteer:
    def test_steered_flood_lands_in_victim_stime(self):
        """§IV-B3 on SMP: the attacker steers the NIC line at the victim's
        CPU and parks its own burner elsewhere, so the flood's handler
        time is billed to the victim as system time."""
        params = paper_workload_params(0.4)["W"]
        clean = run_spec(ExperimentSpec(program="W", program_kwargs=params,
                                        nproc=2))
        steered = run_spec(ExperimentSpec(program="W", program_kwargs=params,
                                          attack="irq-steer", nproc=2))
        assert clean.usage.stime_ns == 0
        assert steered.usage.stime_ns >= 20_000_000

    def test_target_beyond_nproc_fails_loudly(self):
        with pytest.raises(SimulationError, match="nproc=1"):
            run_experiment(make_paper_program("W", **SMALL["W"]),
                           attack=IrqSteerAttack(target_cpu=1),
                           cfg=default_config())


class TestPerCpuMutationDetection:
    def test_double_tick_on_one_cpu_detected(self):
        cfg = default_config(nproc=2)
        with pytest.raises(InvariantViolation) as excinfo:
            run_experiment(make_paper_program("O", **SMALL["O"]), cfg=cfg,
                           check_invariants=True,
                           machine_hook=_double_tick_on_cpu1)
        assert excinfo.value.category == "tick-conservation"

    def test_same_corruption_is_unreachable_on_uniprocessor(self):
        """Control: the corruption only fires for cpu==1, which a one-CPU
        machine never passes — detection above really is per-CPU."""
        run_experiment(make_paper_program("O", **SMALL["O"]),
                       cfg=default_config(), check_invariants=True,
                       machine_hook=_double_tick_on_cpu1)  # no violation

    def test_cross_cpu_misattributed_charge_detected(self):
        """A charge whose capacity was consumed on CPU 1 but whose
        attribution lands on CPU 0 balances globally (total in == total
        out) yet must trip the per-CPU conservation law on both CPUs."""
        machine = Machine(default_config(nproc=2), invariants=True)
        checker = machine.kernel.invariants
        task = spawn_fn(machine, _burn(50_000_000), name="burner")
        machine.run_for(2_000_000)
        kernel = machine.kernel
        kernel.set_active_cpu(1)
        machine.clock.advance(1_337)            # capacity drawn on cpu1...
        kernel.set_active_cpu(0)
        checker.on_charge(task, 1_337, True,    # ...but booked on cpu0
                          ChargeKind.USER)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_full()
        assert excinfo.value.category == "time-conservation"
        assert "cpu" in str(excinfo.value)

    def test_unattributed_advance_inside_smp_slice_detected(self):
        """Moving the clock with nobody charged is caught on SMP machines
        just as it is on uniprocessors."""
        state = {"armed": True}

        def hook(machine):
            accounting = machine.kernel.accounting
            original = accounting.on_tick

            def on_tick(task, mode, cpu=0):
                original(task, mode, cpu)
                if cpu == 1 and state["armed"]:
                    state["armed"] = False
                    machine.clock.advance(1_337)  # nobody claims this

            accounting.on_tick = on_tick

        with pytest.raises(InvariantViolation) as excinfo:
            run_experiment(make_paper_program("O", **SMALL["O"]),
                           cfg=default_config(nproc=2),
                           check_invariants=True, machine_hook=hook)
        assert excinfo.value.category == "time-conservation"
        assert "1337" in str(excinfo.value)


# ----------------------------------------------------------------------
# per-CPU tick conservation end to end
# ----------------------------------------------------------------------

class TestTickConservation:
    @pytest.mark.parametrize("nproc", [2, 4])
    def test_per_cpu_ticks_close_against_totals(self, nproc):
        box = {}
        run_experiment(make_paper_program("W", **SMALL["W"]),
                       cfg=default_config(nproc=nproc),
                       check_invariants=True,
                       machine_hook=lambda m: box.__setitem__("m", m))
        tk = box["m"].kernel.timekeeper
        assert tk.ticks_total == (tk.ticks_user + tk.ticks_kernel
                                  + tk.ticks_idle)
        for mode, per_cpu in (("user", tk.cpu_ticks_user),
                              ("kernel", tk.cpu_ticks_kernel),
                              ("idle", tk.cpu_ticks_idle)):
            assert sum(per_cpu) == getattr(tk, f"ticks_{mode}"), mode
        # The global jiffy counter belongs to CPU 0 alone.
        assert tk.jiffies == (tk.cpu_ticks_user[0] + tk.cpu_ticks_kernel[0]
                              + tk.cpu_ticks_idle[0])


# ----------------------------------------------------------------------
# surfaces: /proc/stat rows, TimeKeeper unit behavior, watchdog
# ----------------------------------------------------------------------

class TestProcfsCpuStat:
    def test_uniprocessor_shows_cpu0_mirror(self):
        machine = Machine(default_config())
        task = spawn_fn(machine, _burn(60_000_000))
        run_all(machine, [task])
        rows = cpu_stat(machine.kernel)
        assert set(rows) == {"cpu", "cpu0"}
        assert rows["cpu0"] == rows["cpu"]
        assert sum(rows["cpu"].values()) == machine.kernel.timekeeper.jiffies

    def test_smp_rows_sum_to_aggregate(self):
        box = {}
        run_experiment(make_paper_program("W", **SMALL["W"]),
                       cfg=default_config(nproc=4), check_invariants=True,
                       machine_hook=lambda m: box.__setitem__("m", m))
        kernel = box["m"].kernel
        rows = cpu_stat(kernel)
        assert set(rows) == {"cpu", "cpu0", "cpu1", "cpu2", "cpu3"}
        for column in ("user", "system", "idle"):
            assert sum(rows[f"cpu{c}"][column] for c in range(4)) \
                == rows["cpu"][column]


class TestTimeKeeperSmp:
    def test_only_cpu0_advances_jiffies(self):
        tk = TimeKeeper(tick_ns=4_000_000, nproc=2)
        tk.tick(running=True, user_mode=True, cpu=0)
        tk.tick(running=True, user_mode=False, cpu=1)
        tk.tick(running=False, user_mode=False, cpu=1)
        assert tk.jiffies == 1
        assert tk.ticks_total == 3
        assert tk.cpu_ticks_user == [1, 0]
        assert tk.cpu_ticks_kernel == [0, 1]
        assert tk.cpu_ticks_idle == [0, 1]
        assert tk.uptime_ns == 4_000_000  # wall time, not capacity time

    def test_snapshot_keys_gated_on_nproc(self):
        uni = TimeKeeper(tick_ns=4_000_000).snapshot()
        assert "ticks_total" not in uni and "cpu_ticks" not in uni
        smp = TimeKeeper(tick_ns=4_000_000, nproc=2).snapshot()
        assert smp["ticks_total"] == 0
        assert len(smp["cpu_ticks"]) == 2


class TestWatchdogSmp:
    def test_watchdog_rides_the_timekeeping_cpu(self):
        """With lost ticks injected on a 2-CPU machine the watchdog (which
        cross-checks the CPU-0-only jiffy counter) still closes checks,
        catch-up still repairs jiffies, and every invariant holds."""
        result = run_experiment(
            make_paper_program("O", **PARAMS["O"]),
            cfg=default_config(nproc=2), check_invariants=True,
            faults={"tick_loss_prob": 0.2, "watchdog": True})
        assert result.stats["watchdog_checks"] > 0
        assert result.stats["fault_jiffies_caught_up"] \
            == result.stats["fault_ticks_lost"]
