#!/usr/bin/env python3
"""The repository benchmark: three workloads, one command.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload paper-figures --seed 0 --seconds 40 --trace 0

``--workload all`` runs every workload in turn; ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones; ``--steady N`` runs
every workload N times with N seeds, alternating their order, and prints
the median, quartiles and spread of every end-to-end metric against its
bound; ``--record`` rewrites the reference digests.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("paper-figures", "fleet-sweep", "serve-mixed")

#: Seconds of a run's budget per batch pass.  A run makes
#: ``max(1, seconds // budget)`` passes, so the work per run is fixed for
#: a given ``--seconds`` whatever the code's speed.  On the reference
#: machine (2 vCPU, Python 3.11) a figures pass takes about 18 s and a
#: sweep about 5 s: fleet-sweep, already steady, uses half its time, which
#: keeps a full set of runs of every workload within the hour.
PASS_BUDGET_S = {"paper-figures": 20.0, "fleet-sweep": 10.0}

#: Set-ups timed per run of a batch workload (fresh processes).
SETUP_PROBES = 9


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree)."""


def require_source() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro source tree under {src}")
    sys.path.insert(0, str(src))


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC.read_text())


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE.read_text())


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(workload: str) -> None:
    """What a user pays before a batch workload's first point runs:
    interpreter start, imports, input construction."""
    import batch

    if workload == "paper-figures":
        import repro.analysis.figures  # noqa: F401

        batch.figure_order(0)
    else:
        import repro.fleet  # noqa: F401

        batch.fleet_spec(0)


def time_setups(workload: str) -> List[float]:
    """Set-up times at the reference host speed, each calibrated by the
    samples taken just before its probe."""
    from batch import calibration_unit, host_speed

    times = []
    for _ in range(SETUP_PROBES):
        speed = host_speed([calibration_unit() for _ in range(25)])
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)),
                        "--setup-probe", workload], check=True)
        times.append((time.perf_counter() - start) * speed)
    return times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(setup_s: Sequence[float], passes: Sequence[Any],
               peak_rss_mb: float) -> Tuple[Dict[str, float],
                                            Dict[str, str]]:
    """The end-to-end metrics of a run, plus a note per metric."""
    from stats import percentile, tail_percentile

    submit = [s * 1e3 for p in passes for s in p.submit_s]
    read = [s * 1e3 for p in passes for s in p.read_s]
    s_p, s_tail = tail_percentile(submit)
    r_p, r_tail = tail_percentile(read)
    med = statistics.median
    metrics = {
        "setup_s": med(setup_s),
        "wall_s": med(p.wall_s for p in passes),
        "sim_s_per_s": med(p.sim_ns / 1e9 / p.wall_s for p in passes),
        "hosts_per_s": med(p.hosts / p.wall_s for p in passes),
        "req_per_s": med((len(p.submit_s) + len(p.read_s)) / p.wall_s
                         for p in passes),
        "submit_p50_ms": percentile(submit, 50),
        "submit_p99_ms": s_tail,
        "read_p50_ms": percentile(read, 50),
        "read_p99_ms": r_tail,
        "peak_rss_mb": peak_rss_mb,
    }
    speeds = ", ".join(f"{p.speed:.3f}" for p in passes)
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "wall_s": f"median of {len(passes)} pass(es) at reference speed; "
                  f"host speed {speeds}",
    }
    notes.update({
        "submit_p50_ms": f"n={len(submit)}",
        "submit_p99_ms": f"p{s_p:g} of n={len(submit)}",
        "read_p50_ms": f"n={len(read)}",
        "read_p99_ms": f"p{r_p:g} of n={len(read)}",
    })
    return metrics, notes


def per_layer(names: Sequence[str], dump: Dict[str, Any],
              derived: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from a span dump: ``<span>.calls`` and
    ``<span>.self_s`` come from the span totals, the rest from
    ``derived``.  A layer or ratio the workload never exercises reads 0."""
    stats = dump["stats"]
    out: Dict[str, float] = {}
    for name in names:
        span, _, field = name.rpartition(".")
        totals = stats.get(span, {"calls": 0, "self_ns": 0})
        if field == "calls":
            out[name] = totals["calls"]
        elif field == "self_s":
            out[name] = totals["self_ns"] / 1e9
        else:
            out[name] = derived.get(name, 0.0)
    return out


def run_spec_p50_ms(dump: Dict[str, Any]) -> float:
    from stats import percentile

    samples = [ns / 1e6 for _trace, ns
               in dump["durations"].get("runner.run_spec", [])]
    return percentile(samples, 50) if len(samples) > 20 else 0.0


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

class Report:
    """One run's outcome, ready to print."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}
        self.checks: List[Tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.summary = ""

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fold(report: Report, passes: Sequence[Any]) -> None:
    for p in passes:
        report.checks.extend(p.checks)
        report.attempted += p.attempted
        report.failed += p.failed


def run_batch(workload: str, seed: int, seconds: int, trace: bool,
              layer_names: Sequence[str]) -> Report:
    import batch

    reference = load_reference()
    report = Report(workload, seed)
    passes_wanted = max(1, int(seconds // PASS_BUDGET_S[workload]))
    if workload == "paper-figures":
        order = batch.figure_order(seed)
        expected = reference["paper-figures"]
        one_pass = lambda i: batch.figures_pass(order, expected)  # noqa: E731
    else:
        fleets = batch.fleet_order(seed, passes_wanted)
        one_pass = lambda i: batch.fleet_pass(  # noqa: E731
            fleets[i], reference["fleet-sweep"][str(fleets[i])])

    if not trace:
        passes = [one_pass(i) for i in range(passes_wanted)]
        # Fresh processes, timed after the passes: the host runs short
        # jobs slowly for the first seconds after an idle spell.
        setup_s = time_setups(workload)
        _fold(report, passes)
        report.metrics, report.notes = end_to_end(setup_s, passes,
                                                  _peak_rss_mb())
        report.summary = (f"{len(passes)} pass(es), "
                          f"{sum(p.counts['points'] for p in passes)} "
                          f"run_spec points")
        return report

    from spans import SpanRecorder, install_layer_wrappers

    recorder = SpanRecorder(keep_durations=("runner.run_spec",))

    def traced_run(run: Any) -> Any:
        uninstall = install_layer_wrappers(recorder)
        try:
            return run()
        finally:
            uninstall()

    # Untraced and traced work alternate, so the host's drift falls on
    # both sides of the overhead: figure by figure, or one traced sweep
    # between two untraced ones.  The traced work is one pass.
    if workload == "paper-figures":
        plain: List[Any] = []
        traced: List[Any] = []
        for fig_id in order:
            plain.append(batch.figures_pass([fig_id], None))
            traced.append(traced_run(lambda: batch.figures_pass(
                [fig_id], None,
                wrap_figure=lambda fig_id, fn: recorder.wrap(
                    "analysis.figure", fn, trace_of=lambda **kw: fig_id))))
        pairs = list(zip(plain, traced))
        plain_wall = sum(p.wall_s for p in plain)
    else:
        plain = [one_pass(0)]
        traced = [traced_run(lambda: one_pass(0))]
        plain.append(one_pass(0))
        pairs = [(p, traced[0]) for p in plain]
        plain_wall = statistics.mean(p.wall_s for p in plain)
    traced_wall = sum(t.wall_s for t in traced)
    _fold(report, plain + traced)
    dump = recorder.dump()
    stats = dump["stats"]
    calls = {name: doc["calls"] for name, doc in stats.items()}
    counts = {key: sum(t.counts[key] for t in traced)
              for key in traced[0].counts}
    report.checks.append((
        "traced and untraced passes give the same result digest",
        all(p.digest == t.digest for p, t in pairs), traced[0].digest))
    report.checks.append((
        "runner.run_spec.calls equals the points the pass ran",
        calls.get("runner.run_spec", 0) == counts["points"],
        f"{calls.get('runner.run_spec', 0)} vs {counts['points']}"))
    if workload == "paper-figures":
        # Uniprocessor, fault-free points: one accounting tick per jiffy.
        report.checks.append((
            "acct.on_tick.calls equals the simulated jiffies of every point",
            calls.get("acct.on_tick", 0) == counts["ticks"],
            f"{calls.get('acct.on_tick', 0)} vs {counts['ticks']}"))
    derived = {
        "runner.run_spec.p50_ms": run_spec_p50_ms(dump),
        "trace.overhead_pct": 100.0 * (traced_wall - plain_wall)
        / plain_wall,
    }
    if workload == "fleet-sweep":
        derived["fleet.distinct_ratio"] = (counts["distinct_runs"]
                                           / counts["population"])
    report.metrics = per_layer(layer_names, dump, derived)
    report.summary = (f"traced pass {traced_wall:.2f}s vs untraced "
                      f"{plain_wall:.2f}s; {len(dump['spans'])} spans kept, "
                      f"{dump['spans_dropped']} dropped")
    _write_trace(workload, seed, dump)
    return report


def run_serve(seed: int, trace: bool, layer_names: Sequence[str]) -> Report:
    import serve_mixed

    report = Report("serve-mixed", seed)
    references: Dict[str, int] = {}
    if not trace:
        rnd = serve_mixed.run_round(seed, OUT, reference_cache=references)
        report.checks.extend(rnd.checks)
        report.attempted, report.failed = rnd.attempted, rnd.failed
        report.metrics, report.notes = end_to_end(
            rnd.setup_s, [rnd], rnd.peak_rss_kb / 1024.0)
        report.summary = (f"{rnd.attempted} requests, {rnd.fresh_runs} "
                          f"engine runs, {rnd.ledger_hits} ledger hits")
        return report

    from stats import percentile

    plain = serve_mixed.run_round(seed, OUT, setups=1,
                                  reference_cache=references)
    trace_path = _trace_path("serve-mixed", seed)
    traced = serve_mixed.run_round(seed, OUT, setups=1, trace_out=trace_path,
                                   reference_cache=references)
    for rnd in (plain, traced):
        report.checks.extend(rnd.checks)
        report.attempted += rnd.attempted
        report.failed += rnd.failed
    dump = json.loads(trace_path.read_text())
    stats = dump["stats"]
    runs = stats.get("runner.run_spec", {"calls": 0})["calls"]
    expected_runs = traced.fresh_runs + len(serve_mixed.pool_docs())
    report.checks.append((
        "runner.run_spec.calls equals the engine runs the service needed",
        runs == expected_runs, f"{runs} vs {expected_runs}"))
    child = dump["trace_child_ns"]
    overhead = [(lat - child[rid] / 1e9) * 1e3
                for rid, lat in traced.latency_by_id.items() if rid in child]
    gets = stats.get("api.get", {"calls": 0})["calls"]
    job_loads = sum(calls for root, name, calls in dump["root_calls"]
                    if root == "api.get" and name == "store.job")
    derived = {
        "runner.run_spec.p50_ms": run_spec_p50_ms(dump),
        "store.job.calls_per_read": job_loads / gets if gets else 0.0,
        "service.ledger_hit_ratio": traced.ledger_hits / traced.hosts,
        "api.overhead_p50_ms": percentile(overhead, 50),
        "trace.overhead_pct": 100.0 * (traced.wall_s - plain.wall_s)
        / plain.wall_s,
    }
    report.metrics = per_layer(layer_names, dump, derived)
    report.summary = (f"traced round {traced.wall_s:.2f}s vs untraced "
                      f"{plain.wall_s:.2f}s; {len(dump['spans'])} spans kept, "
                      f"{dump['spans_dropped']} dropped")
    return report


def _trace_path(workload: str, seed: int) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    return OUT / f"trace-{workload}-seed{seed}.json"


def _write_trace(workload: str, seed: int, dump: Dict[str, Any]) -> None:
    _trace_path(workload, seed).write_text(json.dumps(dump))


def run_workload(workload: str, seed: int, seconds: int,
                 trace: bool) -> Report:
    spec = load_spec()
    layer_names = [m["name"] for m in spec["per_layer"]]
    if workload == "serve-mixed":
        return run_serve(seed, trace, layer_names)
    return run_batch(workload, seed, seconds, trace, layer_names)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def emit(report: Report, trace: bool) -> None:
    spec = load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    print(f"{report.workload}  seed {report.seed}  ({report.summary})")
    for name, unit in units.items():
        value = report.metrics[name]
        note = report.notes.get(name, "")
        print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")
    ratio = report.failed / report.attempted if report.attempted else 1.0
    print(f"  {'error_ratio':<30} {ratio:>14.6g} {'ratio':<6} "
          f"{report.failed} of {report.attempted} operations failed")
    passed = sum(1 for _n, ok, _d in report.checks if ok)
    print(f"  checks: {passed}/{len(report.checks)} passed")
    for name, ok, detail in report.checks:
        if not ok:
            print(f"  [FAIL] {name}: {detail}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)


# ---------------------------------------------------------------------------
# steadiness and reference modes
# ---------------------------------------------------------------------------

def steady(runs: int, seconds: int, first_seed: int) -> int:
    """Run every workload ``runs`` times, alternating their order, and
    report the spread of every end-to-end metric against its bound."""
    from stats import spread

    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in WORKLOADS}
    failures = 0
    for r in range(runs):
        shift = r % len(WORKLOADS)
        order = WORKLOADS[shift:] + WORKLOADS[:shift]
        for workload in order:
            seed = first_seed + r
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = proc.returncode == 0 and result.get("correct") is True
            failures += not ok
            print(f"run {r + 1}/{runs} {workload} seed {seed}: "
                  f"{'ok' if ok else 'FAILED'}", file=sys.stderr, flush=True)
            for name, doc in result.get("metrics", {}).items():
                values[workload].setdefault(name, []).append(doc["value"])
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"steady-{int(time.time())}.json").write_text(json.dumps(values))
    flagged = 0
    print(f"{'workload':<14} {'metric':<15} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for workload in WORKLOADS:
        for name, vals in values[workload].items():
            if len(vals) < 2:
                continue
            s = spread(vals)
            over = s["spread"] > bounds[name]
            flagged += over
            print(f"{workload:<14} {name:<15} {s['median']:>11.5g} "
                  f"{s['q1']:>11.5g} {s['q3']:>11.5g} {s['spread']:>7.3f} "
                  f"{bounds[name]:>6.2f}{'  OVER BOUND' if over else ''}")
    print(f"{failures} failed run(s), {flagged} metric(s) over bound")
    return 1 if failures or flagged else 0


def record() -> int:
    """Recompute and store the reference digests of this commit."""
    import batch

    figures = batch.figures_pass(list(batch.PAPER_FIGURES), None)
    fleets = {str(s): batch.fleet_pass(s, "").digest
              for s in batch.FLEET_SEEDS}
    REFERENCE.write_text(json.dumps(
        {"paper-figures": figures.digest, "fleet-sweep": fleets},
        indent=2, sort_keys=True) + "\n")
    print(REFERENCE.read_text())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-probe", choices=WORKLOADS)
    args = parser.parse_args(argv)

    try:
        require_source()
        seconds = (args.seconds if args.seconds is not None
                   else load_spec()["run_seconds"])
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.record:
        return record()
    if args.steady:
        return steady(args.steady, seconds, args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, str(Path(__file__)),
                                 "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)
    try:
        report = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} did not complete",
              file=sys.stderr)
        return 1
    emit(report, bool(args.trace))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
