"""Tests for the ``python -m repro`` command-line interface."""

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

        import repro.runner.specs as specs_mod
        from repro.faults import sweep_plan

        real_run_spec = specs_mod.run_spec

        def sabotaged(spec):
            if spec.label.endswith("wd-on"):
                spec = dataclasses.replace(
                    spec,
                    faults=sweep_plan(0.2, watchdog=False).to_dict())
            return real_run_spec(spec)

        monkeypatch.setattr(specs_mod, "run_spec", sabotaged)
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
