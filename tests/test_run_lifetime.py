"""A finished run frees itself: nothing waits for the cycle collector.

Every entry point that builds a machine and drops it closes the machine
when its run ends (:meth:`Machine.close`, :meth:`Hypervisor.close`).
Reference counting then frees the whole run the moment the entry point
returns.  The checks below run one point of each plane with the collector
disabled and require a full collection afterwards to find nothing.

Callers that keep a machine are left alone: a machine handed to
``machine_hook`` and a cloud provider's machine stay open and keep
running after a run.
"""

import gc

import pytest

from repro.analysis.experiment import run_experiment
from repro.analysis.figures import (
    SCHED_FORKS,
    make_paper_program,
    paper_workload_params,
)
from repro.cloud import CloudProvider
from repro.config import default_config
from repro.faults import sweep_plan
from repro.programs.workloads import make_ourprogram
from repro.runner import ExperimentSpec, run_spec
from repro.timesync import sweep_timesync
from repro.verify.fuzz import INJECT_KINDS, Scenario, run_scenario

SCALE = 0.05
W = paper_workload_params(SCALE)["W"]

POINTS = {
    # Fig. 7's strongest point: 800 reaped Fork children.
    "fig7-nice-20": ExperimentSpec(
        program="W", program_kwargs=W, attack="scheduling",
        attack_kwargs={"nice": -20, "forks": int(SCHED_FORKS * SCALE)}),
    "nproc-2": ExperimentSpec(program="W", program_kwargs=W, nproc=2),
    "vm": ExperimentSpec(program="W", program_kwargs=W, vm={},
                         attack="vm-sched"),
    "faults-watchdog": ExperimentSpec(
        program="W", program_kwargs=W,
        faults=sweep_plan(0.3, watchdog=True).to_dict()),
    "timesync": ExperimentSpec(
        program="W", program_kwargs=W,
        timesync=sweep_timesync(2_000_000, scale=SCALE).to_dict()),
    "check-invariants": ExperimentSpec(program="W", program_kwargs=W,
                                       check_invariants=True),
}


def _left_for_the_collector(run):
    """Objects a full collection frees after ``run()``, collector off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", list(POINTS))
def test_a_finished_run_leaves_no_cyclic_garbage(name):
    spec = POINTS[name]
    run_spec(spec)  # the first run of a plane may import its modules
    assert _left_for_the_collector(lambda: run_spec(spec)) == 0


@pytest.mark.parametrize("kind", INJECT_KINDS)
def test_a_corrupted_run_leaves_no_cyclic_garbage(kind):
    """The fuzzer's corruption leg: a checked point whose accounting is
    deliberately corrupted raises, and still frees itself."""
    scenario = Scenario(seed=1, program="O",
                        program_kwargs={"iterations": 50}, inject=kind)

    def run():
        report = run_scenario(scenario)
        assert report.ok, report.failures

    run()
    assert _left_for_the_collector(run) == 0


def test_closed_machine_keeps_its_readings():
    """What a result reads stays readable on a closed machine."""
    box = {}
    result = run_experiment(make_paper_program("O", iterations=40),
                            machine_hook=lambda m: box.__setitem__("m", m))
    machine = box["m"]
    jiffies = machine.kernel.timekeeper.jiffies
    now = machine.clock.now
    machine.close()
    machine.close()  # closing twice does nothing more
    assert machine.clock.now == now
    assert machine.kernel.timekeeper.jiffies == jiffies
    assert len(machine.events) == 0
    assert result.wall_ns <= now


class TestKeptMachines:
    def test_hooked_machine_stays_open_and_runs_on(self):
        box = {}
        run_experiment(make_paper_program("O", iterations=40),
                       check_invariants=True,
                       machine_hook=lambda m: box.__setitem__("m", m))
        machine = box["m"]
        jiffies = machine.kernel.timekeeper.jiffies
        machine.run_for(10 * machine.cfg.tick_ns)
        assert machine.kernel.timekeeper.jiffies == jiffies + 10
        task = machine.new_shell().run_command(
            make_ourprogram(iterations=40))
        machine.run_until_exit([task], max_ns=10**10)
        assert task.exit_code == 0
        machine.check_invariants()
        # Its caller closes it when done; then it frees itself too.
        machine.close()
        del machine, task
        assert _left_for_the_collector(box.clear) == 0

    @pytest.mark.parametrize("virtualization", [False, True])
    def test_cloud_instance_runs_job_after_job(self, virtualization):
        provider = CloudProvider(default_config(),
                                 virtualization=virtualization)
        inst = provider.launch_instance("i-1", "alice")
        for _ in range(2):
            task = inst.run(make_ourprogram(iterations=40))
            inst.wait_all(max_ns=10**11)
            assert task.exit_code == 0
        assert inst.metered_usage().total_ns > 0
