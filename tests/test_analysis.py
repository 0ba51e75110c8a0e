"""Tests for the experiment harness, figure plumbing and reports."""

import pytest

from repro.analysis.experiment import run_experiment
from repro.analysis.figures import (
    Bar,
    Check,
    FIGURES,
    FigureResult,
    PAPER_REFERENCE,
    paper_workloads,
    run_figure,
    run_figures,
)
from repro.analysis.report import (
    bar_chart,
    checks_report,
    figure_report,
    series_chart,
)
from repro.attacks import ShellAttack
from repro.config import default_config
from repro.programs.workloads import make_ourprogram


class TestRunExperiment:
    def test_result_fields(self):
        result = run_experiment(make_ourprogram(iterations=200))
        assert result.program == "O"
        assert result.attack == "none"
        assert result.total_s > 0
        assert result.wall_s >= result.total_s * 0.99
        assert result.rusage is not None
        assert result.stats["exit_code"] == 0

    def test_oracle_seconds_sum_close_to_billed(self):
        result = run_experiment(make_ourprogram(iterations=400))
        oracle_total = sum(result.oracle_seconds.values())
        # Tick accounting samples; over a run the views agree within ticks.
        assert oracle_total == pytest.approx(result.total_s, abs=0.02)

    def test_attack_recorded(self):
        result = run_experiment(make_ourprogram(iterations=200),
                                ShellAttack(10_000_000))
        assert result.attack == "shell"

    def test_custom_cfg(self):
        cfg = default_config(hz=100)
        result = run_experiment(make_ourprogram(iterations=200), cfg=cfg)
        assert result.total_s >= 0

    def test_deterministic(self):
        a = run_experiment(make_ourprogram(iterations=300))
        b = run_experiment(make_ourprogram(iterations=300))
        assert a.usage.total_ns == b.usage.total_ns
        assert a.wall_ns == b.wall_ns
        assert a.oracle_seconds == b.oracle_seconds


class TestWorkloadPresets:
    def test_four_programs(self):
        workloads = paper_workloads()
        assert list(workloads) == ["O", "P", "W", "B"]

    def test_scale_shrinks(self):
        full = paper_workloads(1.0)["O"].argv[0]
        half = paper_workloads(0.5)["O"].argv[0]
        assert half == full // 2

    def test_scale_floor_one(self):
        tiny = paper_workloads(0.00001)
        assert tiny["O"].argv[0] >= 1


class TestFigureRegistry:
    def test_all_registered(self):
        assert sorted(FIGURES) == [
            "faultsweep", "fig10", "fig11", "fig4", "fig5", "fig6", "fig7",
            "fig8", "fig9", "fleet", "smp", "timesync", "vmsched"]

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_paper_reference_covers_all(self):
        assert set(PAPER_REFERENCE) == set(FIGURES)

    def test_faultsweep_checks_the_zero_intensity_spec_key(self):
        fig = run_figure("faultsweep", scale=0.05)
        check, = [c for c in fig.checks if c.name == (
            "zero intensity: watchdog on and off hash to one spec key")]
        assert check.passed, check.detail

    def test_fig4_small_scale_passes(self):
        fig = run_figure("fig4", scale=0.1)
        assert fig.passed, fig.failed_checks()
        assert set(fig.pairs) == {"O", "P", "W", "B"}


PAPER_FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                 "fig11")


class TestUnionRun:
    """``run_figures`` runs the union of the figures' grids, each distinct
    spec key once, and builds every figure from the shared results."""

    SCALE = 0.05

    @pytest.fixture(scope="class")
    def union(self):
        import repro.analysis.figures as figures
        from repro.runner.specs import spec_key

        calls = []
        real_run_spec = figures.run_spec
        figures.run_spec = (lambda spec: calls.append(spec_key(spec))
                            or real_run_spec(spec))
        try:
            together = run_figures(PAPER_FIGURES, scale=self.SCALE)
        finally:
            figures.run_spec = real_run_spec
        return together, calls

    def test_each_distinct_point_runs_once(self, union):
        from repro.runner.specs import spec_key

        grids = [FIGURES[fig_id].grid(fig_id, self.SCALE, None)
                 for fig_id in PAPER_FIGURES]
        distinct = {spec_key(spec) for grid in grids
                    for spec in grid.values()}
        assert len(distinct) < sum(len(grid) for grid in grids)
        _together, calls = union
        assert sorted(calls) == sorted(distinct)

    def test_each_figure_equals_its_run_alone(self, union):
        together, _calls = union
        for fig_id in PAPER_FIGURES:
            alone = FIGURES[fig_id](scale=self.SCALE)
            shared = together[fig_id]
            assert ({k: r.to_dict() for k, r in shared.results.items()}
                    == {k: r.to_dict() for k, r in alone.results.items()})
            assert list(shared.checks) == list(alone.checks), fig_id
            assert shared.meta == alone.meta, fig_id


class TestReportRendering:
    def _fake_pair_figure(self):
        fig = FigureResult(fig_id="figX", title="Demo")
        fig.pairs["O"] = (Bar("normal", 1.0, 0.1), Bar("attacked", 1.5, 0.2))
        fig.checks.append(Check("c1", True, "ok"))
        fig.checks.append(Check("c2", False, "bad"))
        return fig

    def _fake_series_figure(self):
        fig = FigureResult(fig_id="figY", title="Sweep")
        fig.series.append(("nice 0", Bar("W", 1.0, 0.0), Bar("Fork", 2.0, 0.0)))
        return fig

    def test_bar_chart(self):
        text = bar_chart(self._fake_pair_figure())
        assert "figX" in text and "normal" in text and "attacked" in text

    def test_series_chart(self):
        text = series_chart(self._fake_series_figure())
        assert "nice 0" in text and "Fork" in text

    def test_checks_report_marks_failures(self):
        text = checks_report(self._fake_pair_figure())
        assert "[PASS] c1" in text
        assert "[FAIL] c2" in text

    def test_figure_report_dispatches(self):
        assert "figX" in figure_report(self._fake_pair_figure())
        assert "figY" in figure_report(self._fake_series_figure())

    def test_passed_property(self):
        fig = self._fake_pair_figure()
        assert not fig.passed
        assert len(fig.failed_checks()) == 1

    def test_empty_figure_renders(self):
        fig = FigureResult(fig_id="figZ", title="Empty")
        assert "figZ" in figure_report(fig)
