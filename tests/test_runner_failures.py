"""Failure injection: a broken sweep point must not break the sweep.

A spec whose run exceeds ``max_ns`` (the simulator raises
``SimulationError``) or whose construction raises must turn into a
structured :class:`FailureRecord` carrying the exception text, honour the
configured retry count, and leave every other point of the sweep intact.
"""

import pytest

from repro.runner import (
    BatchRunner,
    ExperimentSpec,
    SpecError,
    SweepError,
)
from repro.runner.progress import CACHED, COMPLETED, FAILED, RETRIED


def _good(label="good"):
    return ExperimentSpec(program="O", program_kwargs={"iterations": 50},
                          label=label)


def _doomed(**overrides):
    """A run guaranteed to exceed its simulated-time budget."""
    base = dict(program="O", program_kwargs={"iterations": 2_000},
                max_ns=1_000, label="doomed")
    base.update(overrides)
    return ExperimentSpec(**base)


class TestStructuredFailure:
    def test_max_ns_exceeded_yields_failure_record(self):
        outcome, = BatchRunner().run([_doomed()])
        assert not outcome.ok
        failure = outcome.failure
        assert failure.error_type == "SimulationError"
        assert "deadline exceeded" in failure.message
        assert failure.label == "doomed"
        assert failure.attempts == 1
        assert failure.key == outcome.key

    def test_unknown_program_yields_failure_record(self):
        outcome, = BatchRunner().run(
            [ExperimentSpec(program="no-such-program")])
        assert not outcome.ok
        assert outcome.failure.error_type == "SpecError"
        assert "no-such-program" in outcome.failure.message

    def test_build_attack_raises_for_unknown_name(self):
        with pytest.raises(SpecError):
            ExperimentSpec(program="O", attack="no-such-attack") \
                .build_attack()

    def test_run_results_raises_sweep_error_with_text(self):
        with pytest.raises(SweepError) as excinfo:
            BatchRunner().run_results([_doomed()])
        assert "deadline exceeded" in str(excinfo.value)


class TestRetry:
    def test_retry_count_honoured(self):
        runner = BatchRunner(retries=2)
        outcome, = runner.run([_doomed()])
        assert not outcome.ok
        assert outcome.attempts == 3  # 1 initial + 2 retries
        assert outcome.failure.attempts == 3
        assert runner.telemetry.retries == 2
        kinds = [e.kind for e in runner.telemetry.events]
        assert kinds.count(RETRIED) == 2
        assert kinds.count(FAILED) == 1

    def test_no_retry_by_default(self):
        outcome, = BatchRunner().run([_doomed()])
        assert outcome.attempts == 1


class TestSweepSurvives:
    def _check(self, runner):
        outcomes = runner.run([_good(), _doomed(), _good(label="good-2")])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[0].result.usage == outcomes[2].result.usage
        assert runner.telemetry.completed == 2
        assert runner.telemetry.failed == 1

    def test_serial_sweep_completes_around_failure(self):
        self._check(BatchRunner(jobs=1))

    def test_parallel_sweep_completes_around_failure(self):
        self._check(BatchRunner(jobs=2))

    def test_failed_points_are_not_cached(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path / "cache")
        BatchRunner(cache=cache).run([_good(), _doomed()])
        assert len(cache) == 1  # only the good point was stored
        assert cache.get(_doomed()) is None


class TestTelemetry:
    def test_summary_counts_failures(self):
        runner = BatchRunner(retries=1)
        runner.run([_good(), _doomed()])
        summary = runner.telemetry.summary()
        assert "1 run" in summary
        assert "1 failed" in summary
        assert "1 retried" in summary

    def test_counts_every_run(self):
        runner = BatchRunner(retries=1)
        runner.run([_good()])
        runner.run([_doomed()])
        telemetry = runner.telemetry
        assert (telemetry.total, telemetry.completed, telemetry.failed,
                telemetry.retries) == (2, 1, 1, 1)
        assert "sweep: 2 points" in telemetry.summary()

    def test_fleet_figure_counts_every_point_it_sent(self):
        """The fleet figure runs three fleet sweeps, chunk by chunk,
        through one runner: its telemetry counts all of their points,
        not the last chunk's."""
        from repro.analysis.figures import run_figure

        finished = []
        runner = BatchRunner(progress=lambda event: finished.append(event)
                             if event.kind in (COMPLETED, CACHED, FAILED)
                             else None)
        run_figure("fleet", scale=0.05, runner=runner)
        assert runner.telemetry.total == len(finished) > 0
        assert runner.telemetry.completed == len(finished)
