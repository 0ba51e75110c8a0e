"""Benchmark harness: suite shape, report schema, baseline comparison."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    compare_reports,
    format_table,
    load_report,
    run_suite,
    write_report,
)
from repro.bench.e2e import e2e_benchmarks
from repro.bench.harness import BenchResult, BenchSpec, run_spec
from repro.bench.micro import micro_benchmarks


class TestSuiteShape:
    def test_micro_suite_covers_the_hot_paths(self):
        names = {spec.name for spec in micro_benchmarks(quick=True)}
        assert "engine.slice_loop" in names
        assert {"acct.charge_tick.tick", "acct.charge_tick.tsc",
                "acct.charge_tick.dual"} <= names
        assert {"sched.pick_next.cfs", "sched.pick_next.o1",
                "sched.pick_next.rr"} <= names
        assert {"trace.emit.stored", "trace.emit.suppressed"} <= names
        assert "cache.roundtrip" in names

    def test_e2e_suite_names(self):
        names = {spec.name for spec in e2e_benchmarks(quick=True)}
        assert names == {"e2e.figure4_cold", "e2e.sweep_serial"}

    def test_quick_mode_shrinks_op_counts(self):
        full = {s.name: s.ops for s in micro_benchmarks(quick=False)}
        quick = {s.name: s.ops for s in micro_benchmarks(quick=True)}
        assert set(full) == set(quick)
        assert all(quick[name] <= full[name] for name in full)


class TestHarness:
    def test_run_spec_measures_and_derives_ns_per_op(self):
        calls = []
        result = run_spec(BenchSpec(name="x", kind="micro", ops=1000,
                                    fn=calls.append))
        assert calls == [1000]  # fn receives the op count, once
        assert result.ops == 1000
        assert result.wall_s >= 0
        assert result.ns_per_op == pytest.approx(
            result.wall_s * 1e9 / 1000)

    def test_trace_benchmarks_run_end_to_end(self):
        results = run_suite(quick=True, only=["trace"])
        assert [r.name for r in results] == ["trace.emit.suppressed",
                                             "trace.emit.stored"]
        assert all(r.wall_s > 0 for r in results)
        table = format_table(results)
        assert "trace.emit.stored" in table
        assert "ns/op" in table


class TestReport:
    def _results(self):
        return [BenchResult(name="a", kind="micro", ops=100, wall_s=0.01),
                BenchResult(name="b", kind="e2e", ops=1, wall_s=1.5)]

    def test_report_roundtrip_and_schema(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        doc = write_report(path, self._results(), quick=True)
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["quick"] is True
        assert doc["meta"]["python"]
        assert len(doc["benchmarks"]) == 2
        by_name = {b["name"]: b for b in doc["benchmarks"]}
        assert by_name["a"]["ns_per_op"] == pytest.approx(100_000)
        assert load_report(path) == doc

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError):
            load_report(path)

    def test_compare_flags_only_real_regressions(self, tmp_path):
        base_doc = write_report(tmp_path / "base.json", self._results())
        # 'a' gets 2x slower, 'b' stays put, 'c' is new (ignored).
        current = [
            BenchResult(name="a", kind="micro", ops=100, wall_s=0.02),
            BenchResult(name="b", kind="e2e", ops=1, wall_s=1.5),
            BenchResult(name="c", kind="micro", ops=10, wall_s=9.0),
        ]
        cur_doc = write_report(tmp_path / "cur.json", current)
        regressions = compare_reports(cur_doc, base_doc, tolerance=0.35)
        assert [r.name for r in regressions] == ["a"]
        assert regressions[0].ratio == pytest.approx(2.0)
        assert "2.00x" in str(regressions[0])
        # Within tolerance: nothing flagged.
        assert compare_reports(cur_doc, base_doc, tolerance=1.5) == []


class TestCli:
    def test_bench_command_writes_report_and_compares(self, tmp_path,
                                                      capsys):
        from repro.__main__ import main

        report = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--only", "trace",
                     "--json", str(report)]) == 0
        doc = load_report(report)
        assert {b["name"] for b in doc["benchmarks"]} \
            == {"trace.emit.suppressed", "trace.emit.stored"}

        # Self-comparison never regresses... unless the tolerance is
        # impossible; --warn-only must keep the exit code at 0 anyway.
        # It times real trace.emit calls twice, so it gets a tolerance
        # (1000: flag only past 1001x the baseline) no noise can cross.
        assert main(["bench", "--quick", "--only", "trace",
                     "--json", str(tmp_path / "b2.json"),
                     "--baseline", str(report),
                     "--tolerance", "1000"]) == 0
        assert main(["bench", "--quick", "--only", "trace",
                     "--json", str(tmp_path / "b3.json"),
                     "--baseline", str(report),
                     "--tolerance", "-2.0", "--warn-only"]) == 0
        assert main(["bench", "--quick", "--only", "trace",
                     "--json", str(tmp_path / "b4.json"),
                     "--baseline", str(report),
                     "--tolerance", "-2.0"]) == 1
        out = capsys.readouterr().out
        assert "regressed" in out
