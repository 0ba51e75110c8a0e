"""Tests for the ``python -m repro`` command-line interface."""

import hashlib

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig4"])
        assert args.fig_id == "fig4"
        assert args.scale == 0.4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_figure_choices_are_the_figures(self):
        """The parser lists the figure ids by hand, so that ``--help``
        imports no figure; the list must name every figure."""
        import argparse

        from repro.analysis.figures import FIGURES

        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        fig_id = next(action for action
                      in commands.choices["figure"]._actions
                      if action.dest == "fig_id")
        assert sorted(fig_id.choices) == sorted(FIGURES)

    def test_scale_flag(self):
        args = build_parser().parse_args(["figure", "fig5", "--scale", "0.2"])
        assert args.scale == 0.2

    def test_runner_flags(self):
        args = build_parser().parse_args(
            ["figures", "--jobs", "4", "--cache-dir", "/tmp/c",
             "--retries", "2", "--timeout-s", "30"])
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.retries == 2
        assert args.timeout_s == 30.0

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.programs == "O,P,W,B"
        assert args.attacks == "none,shell,scheduling"
        assert args.jobs == 1


class TestCommands:
    def test_comparison(self, capsys):
        assert main(["comparison"]) == 0
        out = capsys.readouterr().out
        assert "thrashing" in out
        assert "fine-grained metering" in out

    def test_figure_passes(self, capsys):
        assert main(["figure", "fig4", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Shell attack" in out
        assert "[FAIL]" not in out

    def test_faults_without_faults_runs_one_point(self, monkeypatch,
                                                  capsys):
        """At intensity 0 the clean, watchdog-on and watchdog-off legs are
        one spec identity, so the command runs one point."""
        import repro.analysis.figures as figures_mod

        calls = []
        real_run_spec = figures_mod.run_spec
        monkeypatch.setattr(figures_mod, "run_spec",
                            lambda spec: calls.append(spec)
                            or real_run_spec(spec))
        assert main(["faults", "--intensity", "0", "--scale", "0.05"]) == 0
        assert len(calls) == 1

    def test_timesync_below_scale_one(self, capsys):
        # The sync interval shrinks with the workload, so the servo still
        # sees exchange rounds and every check holds.
        assert main(["timesync", "--scale", "0.1"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_top(self, capsys):
        assert main(["top", "--seconds", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "PID" in out
        assert "Whetstone" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--iterations", "50"]) == 0
        out = capsys.readouterr().out
        assert "fork_wait_exit_us" in out

    def test_calibrate_few_iterations(self, capsys):
        # The thrashing victim must outlive the tracer's launch phase even
        # when the other primitives run only a handful of iterations.
        assert main(["calibrate", "--iterations", "5"]) == 0
        assert "thrash_roundtrip_us" in capsys.readouterr().out

    def test_gallery_small(self, capsys):
        assert main(["gallery", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "scheduling" in out
        assert "baseline" in out

    def test_sweep_grid(self, capsys):
        assert main(["sweep", "--programs", "O,P", "--attacks", "none,shell",
                     "--scale", "0.05", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "O:shell" in out
        assert "P:none" in out
        assert "4 points" in out
        assert "0 failed" in out

    def test_sweep_warm_cache_runs_nothing(self, capsys, tmp_path):
        argv = ["sweep", "--programs", "O", "--attacks", "none,shell",
                "--scale", "0.05", "--quiet",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "2 run, 0 cached" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 run, 2 cached" in warm

    def test_sweep_unknown_attack_rejected(self, capsys):
        assert main(["sweep", "--attacks", "nope", "--quiet"]) == 2

    def test_check_invariants_ends_with_the_command(self, capsys):
        """The flag holds for its own command: later runs in the same
        process are back on the default."""
        from repro.config import default_invariants

        assert main(["sweep", "--programs", "O", "--attacks", "none",
                     "--scale", "0.02", "--quiet",
                     "--check-invariants"]) == 0
        assert default_invariants() is False

    def test_figure_with_cache_dir(self, capsys, tmp_path):
        argv = ["figure", "fig4", "--scale", "0.05",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "8 points" in capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 run, 8 cached" in warm
        assert "[FAIL]" not in warm


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.db == "repro-usage.db"
        assert args.jobs == 2
        assert not args.selftest

    def test_serve_selftest_flags(self):
        args = build_parser().parse_args(
            ["serve", "--selftest", "--db", "x.db", "--scale", "0.2",
             "--json", "r.json", "--port", "0"])
        assert args.selftest
        assert args.db == "x.db"
        assert args.json == "r.json"


class TestExitCodes:
    """The CI contract: every self-checking command exits non-zero the
    moment an internal check fails — for the pass AND fail paths."""

    def test_serve_selftest_pass_is_zero(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "serve-report.json"
        assert main(["serve", "--selftest",
                     "--db", str(tmp_path / "usage.db"),
                     "--scale", "0.05",
                     "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_serve_selftest_fail_is_one(self, monkeypatch, capsys):
        import repro.serve as serve_pkg

        def failing_selftest(db, scale=0.1, jobs=2, quiet=False):
            return {"passed": False,
                    "checks": [{"name": "rigged", "passed": False,
                                "detail": "injected"}]}

        monkeypatch.setattr(serve_pkg, "run_selftest", failing_selftest)
        assert main(["serve", "--selftest", "--db", "unused.db"]) == 1
        assert "0/1 checks passed" in capsys.readouterr().out

    def test_fuzz_pass_is_zero(self, monkeypatch, capsys):
        import repro.verify.fuzz as fuzz_mod

        monkeypatch.setattr(
            fuzz_mod, "run_fuzz",
            lambda **kwargs: fuzz_mod.FuzzSummary(iterations=3))
        assert main(["fuzz", "--iterations", "3", "--quiet"]) == 0
        assert "0 failing" in capsys.readouterr().out

    def test_fuzz_fail_is_one(self, monkeypatch, capsys):
        import repro.verify.fuzz as fuzz_mod

        monkeypatch.setattr(
            fuzz_mod, "run_fuzz",
            lambda **kwargs: fuzz_mod.FuzzSummary(
                iterations=3, failures=["divergence"], saved=["f.json"]))
        assert main(["fuzz", "--iterations", "3", "--quiet"]) == 1
        assert "1 failing" in capsys.readouterr().out

    def test_faults_pass_is_zero(self, capsys):
        assert main(["faults", "--intensity", "0.2",
                     "--scale", "0.05"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_faults_fail_is_one(self, monkeypatch, capsys):
        # Sabotage the watchdog: the "wd-on" leg secretly runs with the
        # watchdog off, so "watchdog reduces metering error" must fail —
        # and the command must say so with its exit code.
        import dataclasses

        import repro.analysis.figures as figures_mod
        from repro.faults import sweep_plan

        real_run_spec = figures_mod.run_spec

        def sabotaged(spec):
            if spec.label.endswith("wd-on"):
                spec = dataclasses.replace(
                    spec,
                    faults=sweep_plan(0.2, watchdog=False).to_dict())
            return real_run_spec(spec)

        monkeypatch.setattr(figures_mod, "run_spec", sabotaged)
        assert main(["faults", "--intensity", "0.2",
                     "--scale", "0.05"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_domain_errors_exit_one_without_traceback(self, monkeypatch,
                                                      capsys):
        import repro.serve as serve_pkg
        from repro.errors import ReproError

        def exploding_selftest(db, scale=0.1, jobs=2, quiet=False):
            raise ReproError("store is on fire")

        monkeypatch.setattr(serve_pkg, "run_selftest", exploding_selftest)
        assert main(["serve", "--selftest", "--db", "unused.db"]) == 1
        err = capsys.readouterr().err
        assert "repro serve: store is on fire" in err


# (argv, sha256 of the --json report, sha256 of stdout minus the
# "wrote <path>" line). The reports and the printed scenario output are the
# contract of the vm/faults/timesync commands: a refactor of the command
# plumbing must keep both byte-identical, serially and through the runner.
REPORT_GOLDENS = [
    (["vm", "--attack", "sched", "--scale", "0.1"],
     "3067b13d7be15534dd39c92586ce1d9fb39d9a0fd9afed89358f22f23dd9b564",
     "3009852a8c306415e662969e3282b30836c5217c1850d5e8674fb01d49fcd485"),
    (["vm", "--attack", "none", "--scale", "0.1"],
     "a46f9d62ac9a0cb22e23614fdd2fb43749b88d901cbdd3e064d6ef97385f736f",
     "5a669ac00a461d8b7193067c83afd0bff2b7d246c70c923458da3b838d9444b5"),
    (["faults", "--intensity", "0.2", "--scale", "0.05"],
     "570dc72d8b2bce6e3f79ffb544437b3479f87ce75d3fc0b543c3d5f0e18bfbf0",
     "7d62fec7b1d0b9416edd08123ff1169a982b902153b065af965a90703a6c5725"),
    (["faults", "--intensity", "0", "--scale", "0.05"],
     "37f93919c14fde84803f834deca5a5afaba43768a55d1a120588d6bf919a0607",
     "6a736d9d39cb9ec0b716ee33598ab0de7e5cc71692d06db9e575f963e01b5b15"),
    (["timesync", "--offset-ns", "5000000", "--scale", "1.0"],
     "74b33576197798051d8712eba7f17f9b7fa6c53d2f000270f9049d1fd6a36f2b",
     "5fa172a5b3203249cda6079a5533b3a09bc2e2a243f2f14b3236d53080620780"),
    (["timesync", "--scale", "0.1"],
     "e4ab3266bffad1ea42264aa0def6290fa39672847e53cc179758130561849ded",
     "1505b6988cd124c8171bdd8b6e79c7c436ed56c2c7dbcebb954b183ecc704ed8"),
    (["timesync", "--offset-ns", "0", "--scale", "0.1"],
     "01e739e32fca6857732dbdd19d5ea340941884e9f3e07a89eee683735b847161",
     "c85a0ba83a19edb779289da00d0281aea6ff23bf491d769f05e3d895f709f4bf"),
]


class TestReportGoldens:
    @pytest.mark.parametrize(
        "argv,report_sha,stdout_sha", REPORT_GOLDENS,
        ids=["-".join(g[0]) for g in REPORT_GOLDENS])
    def test_report_and_stdout_bytes(self, argv, report_sha, stdout_sha,
                                     tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(argv + ["--json", str(path)]) == 0
        out = "".join(line for line
                      in capsys.readouterr().out.splitlines(True)
                      if not line.startswith("wrote "))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == report_sha
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
