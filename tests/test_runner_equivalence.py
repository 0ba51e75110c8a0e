"""Serial-vs-parallel equivalence of the batch runner.

The whole point of the runner is that fan-out is free: a spec executed in a
worker process must reproduce the serial ``run_experiment`` result bit for
bit, because every point boots a fresh deterministic machine from (config,
seed).  These tests hold the parallel and cached paths to field-by-field
equality with the direct serial path across a grid of (program, attack,
scale) points.
"""

import pytest

from repro.analysis.experiment import ExperimentResult, run_experiment
from repro.analysis.figures import paper_workload_params
from repro.attacks import SchedulingAttack, ShellAttack, ThrashingAttack
from repro.config import default_config
from repro.programs.workloads import make_paper_program, watched_variable
from repro.runner import BatchRunner, ExperimentSpec, run_spec
from repro.virt import VmSchedAttack

#: The equivalence grid: enough diversity to cover user-time, system-time
#: and scheduling behaviour while staying fast.  The last two points run
#: under the hypervisor (``vm`` is their mapping; None is a bare machine).
GRID = [
    ("O", "none", {}, 0.04, None),
    ("O", "shell", {"payload_cycles": 40_000_000}, 0.04, None),
    ("P", "none", {}, 0.1, None),
    ("W", "thrashing", {}, 0.03, None),
    ("B", "none", {}, 0.02, None),
    ("W", "scheduling", {"nice": -20, "forks": 300}, 0.05, None),
    ("W", "none", {}, 0.05, {}),
    ("W", "vm-sched", {"burn_fraction": 0.5}, 0.05, {}),
]


def _grid_specs():
    specs = []
    for program, attack, attack_kwargs, scale, vm in GRID:
        if attack == "thrashing":
            attack_kwargs = dict(attack_kwargs,
                                 watch_symbol=watched_variable(program))
        specs.append(ExperimentSpec(
            program=program,
            program_kwargs=paper_workload_params(scale)[program],
            attack=None if attack == "none" else attack,
            attack_kwargs=attack_kwargs,
            vm=vm,
            label=f"{'vm:' if vm is not None else ''}"
                  f"{program}:{attack}@{scale}"))
    return specs


def _serial_reference(spec: ExperimentSpec) -> ExperimentResult:
    """The hand-built serial path the runner must match."""
    program = make_paper_program(spec.program, **dict(spec.program_kwargs))
    attacks = {"shell": ShellAttack, "scheduling": SchedulingAttack,
               "thrashing": ThrashingAttack, "vm-sched": VmSchedAttack}
    attack = None
    if spec.attack is not None:
        attack = attacks[spec.attack](**dict(spec.attack_kwargs))
    return run_experiment(program, attack=attack, cfg=spec.cfg, vm=spec.vm)


def assert_results_equal(expected: ExperimentResult,
                         actual: ExperimentResult, label: str) -> None:
    """Field-by-field equality on everything the figures consume."""
    assert actual.usage == expected.usage, label
    assert actual.oracle_seconds == expected.oracle_seconds, label
    assert actual.wall_ns == expected.wall_ns, label
    assert actual.stats == expected.stats, label
    assert actual.rusage == expected.rusage, label
    assert actual.attacker_usage == expected.attacker_usage, label
    assert actual.program == expected.program, label
    assert actual.attack == expected.attack, label


class TestRunSpecEquivalence:
    """run_spec (the worker entry) == run_experiment, in-process."""

    @pytest.mark.parametrize("index", range(len(GRID)),
                             ids=[f"{'vm-' if vm is not None else ''}{p}-{a}"
                                  for p, a, _, _, vm in GRID])
    def test_point(self, index):
        spec = _grid_specs()[index]
        assert_results_equal(_serial_reference(spec), run_spec(spec),
                             spec.name)


class TestParallelEquivalence:
    """The pooled runner reproduces the serial results across the grid."""

    def test_grid_parallel_matches_serial(self):
        specs = _grid_specs()
        serial = [_serial_reference(spec) for spec in specs]
        parallel = BatchRunner(jobs=2).run_results(specs)
        for spec, expected, actual in zip(specs, serial, parallel):
            assert_results_equal(expected, actual, spec.name)

    def test_parallel_is_repeatable(self):
        specs = _grid_specs()[:3]
        first = BatchRunner(jobs=2).run_results(specs)
        second = BatchRunner(jobs=3).run_results(specs)
        for spec, a, b in zip(specs, first, second):
            assert_results_equal(a, b, spec.name)

    def test_outcomes_preserve_input_order(self):
        specs = _grid_specs()
        outcomes = BatchRunner(jobs=2).run(specs)
        assert [o.spec.name for o in outcomes] == [s.name for s in specs]

    def test_cached_results_equal_live(self, tmp_path):
        from repro.runner import ResultCache

        grid = _grid_specs()
        specs = grid[:3] + grid[-2:]  # three bare points, both VM points
        cache = ResultCache(tmp_path / "cache")
        live = BatchRunner(jobs=2, cache=cache).run_results(specs)
        warm_runner = BatchRunner(jobs=1, cache=cache)
        warm = warm_runner.run_results(specs)
        assert warm_runner.telemetry.cached == len(specs)
        assert warm_runner.telemetry.live_runs == 0
        for spec, a, b in zip(specs, live, warm):
            assert_results_equal(a, b, spec.name)


class TestFigureEquivalence:
    """A full figure built through the pooled runner matches serial."""

    def test_fig4_parallel_matches_serial(self):
        from repro.analysis.figures import run_figure

        serial = run_figure("fig4", scale=0.05)
        pooled = run_figure("fig4", scale=0.05, runner=BatchRunner(jobs=2))
        assert pooled.passed == serial.passed
        assert sorted(pooled.results) == sorted(serial.results)
        for key, expected in serial.results.items():
            assert_results_equal(expected, pooled.results[key], key)

    def test_default_config_spec_matches_explicit(self):
        spec_implicit = ExperimentSpec(program="O",
                                       program_kwargs={"iterations": 60})
        spec_explicit = ExperimentSpec(program="O",
                                       program_kwargs={"iterations": 60},
                                       cfg=default_config())
        assert_results_equal(run_spec(spec_explicit), run_spec(spec_implicit),
                             "cfg=None must mean default_config()")
