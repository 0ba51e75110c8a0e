"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figure <fig4..fig11> [--scale S] [--jobs N] [--cache-dir D]`` —
  regenerate one evaluation figure and print the chart plus its shape
  checks (exit 1 if any check fails);
* ``figures [--scale S] [--jobs N] [--cache-dir D]`` — regenerate all
  eight, optionally fanning experiment points across worker processes
  with result caching (see docs/runner.md);
* ``sweep [--programs ...] [--attacks ...] [--jobs N] ...`` — run a
  program × attack grid through the batch runner and print one row per
  point plus cache/failure telemetry;
* ``fuzz [--iterations N] [--seed S] [--out D] [--replay FILE]`` —
  randomized differential conformance testing: seeded scenarios run under
  every scheduler with runtime invariants on, cross-checked serial vs
  batch and across schedulers; failures shrink to replayable JSON specs
  (see docs/invariants.md);
* ``vm [--attack sched|none] [--burn-fraction F] [--scale S] [--json P]``
  — run the VM-level scheduling attack (a victim VM vs a tick-dodging
  co-resident under the credit hypervisor) with the guest steal-time
  estimator, print both hypervisor ledgers and the tenant audit, and
  check the expected shape (see docs/virt.md);
* ``faults [--intensity F] [--program W] [--scale S] [--json P]`` — run
  one workload clean, then under an injected hardware-fault plan with the
  clocksource watchdog on and off; print fault/watchdog counters, the
  trust-annotated invoice and the user-side verification, and check that
  the watchdog holds metering error down (see docs/faults.md);
* ``timesync [--offset-ns N] [--protocol ptp|ntp] [--program W]
  [--json P]`` — run one workload clean, then under a network sync
  attack (delay-asymmetry steering the host clock) with the guest-side
  offset estimator on and off; print the sync telemetry, the
  trust-annotated invoice, and check that the defense bounds the
  cross-host billing error (see docs/timesync.md);
* ``serve [--host H] [--port P] [--db PATH] [--jobs N] [--selftest]`` —
  the multi-tenant metering daemon: tenants register, submit workload
  specs over a JSON HTTP API, and get invoices, trust reports and
  steal-audit verdicts back, all billed through a crash-safe SQLite
  usage ledger with Prometheus counters on ``/metrics``
  (see docs/serve.md); ``--selftest`` drives the honest/attacker/quota
  scenario end to end and exits non-zero on any check failure;
* ``fleet [--hosts N] [--guests M] [--prevalence F] [--seed S]
  [--jobs N] [--json P]`` — datacenter-scale population sweep: expand a
  seeded fleet spec into per-host experiments, run the distinct spec
  identities through the batch runner and stream the population-weighted
  results into mergeable sketches (billing-error percentiles, trust-grade
  mix, steal-audit detection/false-positive rates); peak memory is
  independent of the host count (see docs/fleet.md); ``--shards N``
  splits the hosts into contiguous ranges run concurrently, and
  ``--endpoints`` runs them on remote serve daemons with retry/failover
  and a coverage-graded merged report (see docs/chaos.md);
* ``chaos [--intensity F] [--shards N] [--quick] [--json P]`` — the
  fault-injection gauntlet: boot chaotic serve daemons (injected store
  errors, worker crashes, HTTP faults) with one endpoint dead, run a
  sharded fleet sweep against them, and check live that every fault is
  absorbed or declared, nothing double-bills, surviving shards stay
  bit-identical to chaos-free runs, and the merged report grades its
  own coverage (see docs/chaos.md);
* ``gallery`` — run every attack against one victim (summary table);
* ``calibrate`` — measure the simulated primitive costs;
* ``comparison`` — print the §V-C attack matrix and the §VI-B defense
  coverage table;
* ``top [--seconds T]`` — boot a machine with the paper's four workloads
  and print a procfs top snapshot after T simulated seconds.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Tuple


def _make_runner(args: argparse.Namespace, quiet: bool = False):
    """A BatchRunner per the shared --jobs/--cache-dir/... flags, or None
    when every knob is at its serial default."""
    jobs = getattr(args, "jobs", 1)
    cache_dir = getattr(args, "cache_dir", None)
    timeout_s = getattr(args, "timeout_s", None)
    retries = getattr(args, "retries", 0)
    if jobs == 1 and cache_dir is None and timeout_s is None and not retries:
        return None
    from .runner import BatchRunner, ConsoleProgress, ResultCache

    return BatchRunner(
        jobs=jobs,
        cache=ResultCache(cache_dir) if cache_dir else None,
        timeout_s=timeout_s,
        retries=retries,
        progress=None if quiet else ConsoleProgress())


def _apply_invariants_flag(args: argparse.Namespace) -> None:
    """``--check-invariants`` flips the process-wide default for the
    command, so every serially-run experiment (figures, gallery) gets the
    checker.  The checker loads here, at dispatch, not in the first run."""
    if getattr(args, "check_invariants", False):
        from .verify.invariants import set_default_invariants

        set_default_invariants(True)


def _cmd_figure(args: argparse.Namespace) -> int:
    from .analysis.figures import FIGURES, run_figures
    from .analysis.report import figure_report

    _apply_invariants_flag(args)
    runner = _make_runner(args, quiet=True)
    fig_ids = sorted(FIGURES) if args.fig_id == "all" else [args.fig_id]
    figures = run_figures(fig_ids, scale=args.scale, runner=runner)
    for fig in figures.values():
        print(figure_report(fig))
        print()
    if runner is not None:
        print(runner.telemetry.summary())
    return 0 if all(fig.passed for fig in figures.values()) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.figures import paper_workload_params
    from .programs.workloads import watched_variable
    from .runner import ExperimentSpec, SpecError

    _apply_invariants_flag(args)
    programs = [p.strip() for p in args.programs.split(",") if p.strip()]
    attacks = [a.strip() for a in args.attacks.split(",") if a.strip()]
    try:
        nprocs = [int(n) for n in args.nproc.split(",") if n.strip()]
    except ValueError:
        print(f"--nproc wants comma-separated integers, got {args.nproc!r}",
              file=sys.stderr)
        return 2
    params = paper_workload_params(args.scale)
    forks = max(1, int(8_000 * args.scale))
    # The spec field (not just the process default) so worker processes
    # check too when --jobs > 1.
    check_invariants = True if args.check_invariants else None

    def attack_kwargs(attack: str, program: str):
        defaults = {
            "none": {},
            "shell": {"payload_cycles": 506_000_000},
            "library-ctor": {"payload_cycles": 506_000_000},
            "library-subst": {"cycles_per_call": 300_000},
            "library-runtime": {},
            "scheduling": {"nice": -20, "forks": forks},
            "thrashing": {"watch_symbol": watched_variable(program)},
            "irq-flood": {"rate_pps": 20_000.0},
            "fault-flood": {},
            "smp-dodge": {},
            "irq-steer": {},
        }
        try:
            return defaults[attack]
        except KeyError:
            raise SpecError(f"unknown attack {attack!r}; "
                            f"have {sorted(k for k in defaults)}") from None

    try:
        specs = [
            ExperimentSpec(
                program=program, program_kwargs=params[program],
                attack=None if attack == "none" else attack,
                attack_kwargs=attack_kwargs(attack, program),
                check_invariants=check_invariants,
                nproc=nproc,
                label=(f"{program}:{attack}" if nproc == 1
                       else f"{program}:{attack}:n{nproc}"))
            for program in programs for attack in attacks
            for nproc in nprocs
        ]
    except KeyError as exc:
        print(f"unknown program {exc}; have {sorted(params)}",
              file=sys.stderr)
        return 2
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2

    runner = _make_runner(args, quiet=args.quiet) or _make_serial_runner(args)
    outcomes = runner.run(specs)
    print(f"{'point':<18} {'status':<8} {'utime_s':>8} {'stime_s':>8} "
          f"{'wall_s':>7}")
    for outcome in outcomes:
        if outcome.ok:
            status = "cached" if outcome.cached else "run"
            result = outcome.result
            print(f"{outcome.spec.name:<18} {status:<8} "
                  f"{result.utime_s:>8.3f} {result.stime_s:>8.3f} "
                  f"{outcome.wall_s:>7.2f}")
        else:
            print(f"{outcome.spec.name:<18} {'FAILED':<8} "
                  f"{outcome.failure.error_type}: {outcome.failure.message}")
    print()
    print(runner.telemetry.summary())
    return 0 if all(o.ok for o in outcomes) else 1


def _make_serial_runner(args: argparse.Namespace):
    from .runner import BatchRunner, ConsoleProgress

    return BatchRunner(progress=None if args.quiet else ConsoleProgress())


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .verify.fuzz import replay_failure, run_fuzz

    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]

    if args.replay:
        report, identical = replay_failure(args.replay)
        print(f"replayed {args.replay}")
        print(f"  scenario: {report.scenario}")
        for failure in report.failures:
            print(f"  failure: {failure}")
        if not report.failures:
            print("  no failures reproduced")
        print(f"  digest {'matches' if identical else 'DIVERGES from'} "
              f"the recorded run")
        # Replay succeeds when the run is bit-identical to the recording —
        # whether the recording was a failure or a detection record.
        return 0 if identical else 1

    summary = run_fuzz(
        iterations=args.iterations,
        seed=args.seed,
        schedulers=schedulers,
        out_dir=args.out,
        inject_probability=args.inject_probability,
        progress=None if args.quiet else print)
    print(f"\n{summary.iterations} scenarios, "
          f"{len(summary.failures)} failing")
    for saved in summary.saved:
        print(f"  replay spec: {saved}")
    return 0 if summary.ok else 1


def _cmd_gallery(args: argparse.Namespace) -> int:
    from .analysis.experiment import run_experiment
    from .attacks import (
        InterruptFloodAttack,
        LibraryConstructorAttack,
        LibrarySubstitutionAttack,
        SchedulingAttack,
        ShellAttack,
        ThrashingAttack,
    )
    from .programs.workloads import make_ourprogram

    def victim():
        return make_ourprogram(iterations=int(2_500 * args.scale))

    baseline = run_experiment(victim())
    print(f"baseline: {baseline.total_s:.3f} s")
    rows = [
        ("shell", ShellAttack(506_000_000)),
        ("library-ctor", LibraryConstructorAttack(506_000_000)),
        ("library-subst", LibrarySubstitutionAttack(cycles_per_call=300_000)),
        ("scheduling", SchedulingAttack(nice=-20, forks=6_000)),
        ("thrashing", ThrashingAttack("i")),
        ("irq-flood", InterruptFloodAttack(rate_pps=25_000)),
    ]
    for name, attack in rows:
        result = run_experiment(victim(), attack)
        print(f"  {name:<14} {result.utime_s:.3f}u + {result.stime_s:.3f}s "
              f"(x{result.total_s / baseline.total_s:.2f})")
    return 0


def _run_scenario(args: argparse.Namespace, command: str,
                  legs: Dict[str, Dict[str, Any]], evaluate) -> int:
    """Run one scenario command (``vm``, ``faults``, ``timesync``).

    ``legs`` maps each leg's tag to the :class:`ExperimentSpec` fields
    that set it apart (attack, vm, faults, timesync); every leg meters
    ``--program`` at ``--scale``.  ``evaluate(results, checks, spec)``
    gets the results by tag, prints the scenario's own lines, adds its
    checks and returns the command's extra report keys; ``spec(tag,
    **fields)`` builds a leg spec for identity checks.
    """
    from .analysis.figures import paper_workload_params, run_points
    from .checks import CheckList, write_report
    from .runner import ExperimentSpec

    _apply_invariants_flag(args)
    program_kwargs = paper_workload_params(args.scale)[args.program]

    def spec(tag: str, **fields: Any) -> ExperimentSpec:
        return ExperimentSpec(
            program=args.program, program_kwargs=program_kwargs,
            check_invariants=True if args.check_invariants else None,
            label=f"{command}:{args.program}:{tag}", **fields)

    points = {tag: spec(tag, **fields) for tag, fields in legs.items()}
    results = run_points(points, _make_runner(args, quiet=True))
    checks = CheckList()
    extra = evaluate(results, checks, spec)
    print()
    print(checks.render())
    if args.json:
        write_report(args.json, {
            "command": command,
            "program": args.program,
            "scale": args.scale,
            "check_invariants": bool(args.check_invariants),
            "passed": checks.passed,
            "checks": checks.to_dicts(),
            "results": {points[tag].name: res.to_dict()
                        for tag, res in results.items()},
            **extra,
        })
    return 0 if checks.passed else 1


def _describe_vm_leg(tag: str, res) -> None:
    s = res.stats
    print(f"{tag}: victim billed {res.total_s:.3f}s "
          f"(ran {s['victim_ran_ns'] / 1e9:.3f}s, "
          f"steal {s['victim_steal_ns'] / 1e9:.3f}s, "
          f"idle {s['victim_idle_ns'] / 1e9:.3f}s) "
          f"wall {res.wall_s:.3f}s "
          f"hv_ticks={s['hv_ticks']} switches={s['vcpu_switches']}")
    if res.attacker_usage is not None:
        print(f"  attacker billed {res.attacker_usage.total_seconds:.3f}s"
              f" for {s['attacker_ran_ns'] / 1e9:.3f}s actually burned "
              f"({s['attacker_iterations']} tick-dodging iterations)")
    print(f"  guest estimator: est steal "
          f"{s['est_steal_ns'] / 1e9:.3f}s vs reported "
          f"{s['reported_steal_ns'] / 1e9:.3f}s "
          f"({s['steal_samples']} samples)")


def _cmd_vm(args: argparse.Namespace) -> int:
    from .metering.steal import audit_vm_result
    from .virt import HypervisorConfig

    attacked = args.attack != "none"
    legs: Dict[str, Dict[str, Any]] = {"none": {"vm": {}}}
    if attacked:
        legs["sched"] = {"vm": {}, "attack": "vm-sched",
                         "attack_kwargs": {"burn_fraction":
                                           args.burn_fraction}}

    def evaluate(results, checks, spec):
        baseline = results["none"]
        _describe_vm_leg("baseline", baseline)
        for res in results.values():
            checks.add("per-vCPU conservation ran+idle+steal == host wall",
                       res.stats["conservation_gap_ns"] == 0,
                       f"gap={res.stats['conservation_gap_ns']}ns")
        audit_doc = None
        if attacked:
            res = results["sched"]
            _describe_vm_leg("attacked", res)
            audit = audit_vm_result(res)
            print()
            print(audit.render())
            audit_doc = {"verdict": audit.verdict.value,
                         "est_steal_ns": audit.est_steal_ns,
                         "reported_steal_ns": audit.reported_steal_ns,
                         "overbilling_ns": audit.overbilling_ns}
            checks.add("co-resident victim's bill inflates",
                       res.usage.total_ns > baseline.usage.total_ns,
                       f"attacked={res.total_s:.3f}s "
                       f"baseline={baseline.total_s:.3f}s")
            tick_ns = HypervisorConfig().tick_ns
            checks.add("attacker billed ~nothing",
                       res.attacker_usage.total_ns
                       <= max(2 * tick_ns, 0.05 * res.usage.total_ns),
                       f"attacker billed="
                       f"{res.attacker_usage.total_seconds:.3f}s")
            est = res.stats["est_steal_ns"]
            rep = res.stats["reported_steal_ns"]
            checks.add("guest steal estimate within 5% of reported",
                       abs(est - rep) <= max(4_000_000, 0.05 * rep),
                       f"est={est / 1e9:.3f}s reported={rep / 1e9:.3f}s")
        return {"attack": "vm-sched" if attacked else "none",
                "burn_fraction": args.burn_fraction if attacked else None,
                "audit": audit_doc}

    return _run_scenario(args, "vm", legs, evaluate)


def _run_defense_scenario(args: argparse.Namespace, command: str,
                          tags: Tuple[str, str, str], defended, undefended,
                          header: str, leg_format: str, leg_details,
                          add_checks, extra: Dict[str, Any]) -> int:
    """The clean / defended / undefended triple of ``faults`` and
    ``timesync``: the spec field named after the command carries the
    defended and undefended plans on the last two legs.  Each leg prints its bill against the oracle
    (``leg_format`` gets ``billed``, ``oracle``, ``err`` and ``err_ms``)
    plus ``leg_details(stats)``; the defended leg's trust report annotates
    the invoice, and ``add_checks(checks, spec, errors, trust, results)``
    adds the command's checks."""
    from .analysis.figures import billed_s, billing_error_s
    from .metering.billing import TrustReport, invoice_for

    clean, on, off = tags
    legs = {clean: {command: None}, on: {command: defended.to_dict()},
            off: {command: undefended.to_dict()}}
    width = max(map(len, tags)) + 1

    def evaluate(results, checks, spec):
        print(header)
        errors = {}
        for tag, res in results.items():
            errors[tag] = err = billing_error_s(res)
            print(f"{tag:<{width}} " + leg_format.format(
                billed=billed_s(res), oracle=res.oracle_own_s(), err=err,
                err_ms=err * 1e3))
            for line in leg_details(res.stats):
                print(" " * (width + 1) + line)
        trust = TrustReport.from_stats(results[on].stats)
        print()
        print(invoice_for(args.program, results[on].usage,
                          trust=trust).render())
        add_checks(checks, spec, errors, trust, results)
        return {**extra, "errors_s": errors, "trust": {
            "level": trust.level.value,
            "uncertainty_ns": trust.uncertainty_ns,
            "intervals_trusted": trust.intervals_trusted,
            "intervals_degraded": trust.intervals_degraded,
            "intervals_untrusted": trust.intervals_untrusted,
        }}

    return _run_scenario(args, command, legs, evaluate)


def _fault_leg_details(stats) -> List[str]:
    lines = []
    if stats.get("fault_ticks_lost") is not None:
        lines.append(f"ticks lost={stats['fault_ticks_lost']} "
                     f"delayed={stats.get('fault_ticks_delayed', 0)} "
                     f"caught up={stats.get('fault_jiffies_caught_up', 0)}")
    if "watchdog_checks" in stats:
        lines.append(f"watchdog: checks={stats['watchdog_checks']} "
                     f"unstable={stats['watchdog_unstable']} "
                     f"intervals T/D/U="
                     f"{stats['watchdog_intervals_trusted']}/"
                     f"{stats['watchdog_intervals_degraded']}/"
                     f"{stats['watchdog_intervals_untrusted']} "
                     f"uncertainty="
                     f"{stats['watchdog_uncertainty_ns'] / 1e9:.3f}s")
    return lines


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults import sweep_plan
    from .runner.specs import spec_key

    plan_on = sweep_plan(args.intensity, watchdog=True)

    def add_checks(checks, spec, errors, trust, results):
        wd_on = results["wd-on"].stats
        checks.add("empty fault plan hashes identically to no plan",
                   spec_key(spec("a", faults=None))
                   == spec_key(spec("b", faults={})),
                   "cache identity preserved for zero-fault runs")
        if args.intensity > 0:
            checks.add("watchdog reduces metering error",
                       errors["wd-on"] < errors["wd-off"],
                       f"wd-on={errors['wd-on']:.3f}s "
                       f"wd-off={errors['wd-off']:.3f}s")
            checks.add("lost jiffies caught up by the watchdog",
                       wd_on.get("fault_jiffies_caught_up", 0) > 0
                       or wd_on.get("fault_ticks_lost", 0) == 0,
                       f"lost={wd_on.get('fault_ticks_lost', 0)} "
                       f"caught_up={wd_on.get('fault_jiffies_caught_up', 0)}")
            checks.add("billed time within the declared uncertainty of the "
                       "oracle",
                       errors["wd-on"] <= trust.uncertainty_s
                       + max(2 * errors["clean"], 0.02),
                       f"error={errors['wd-on']:.3f}s "
                       f"bound={trust.uncertainty_s:.3f}s")
        if args.intensity >= 0.05:
            checks.add("watchdog degrades trust under faults",
                       not trust.is_trusted and trust.uncertainty_ns > 0,
                       f"trust={trust.level.value} "
                       f"uncertainty={trust.uncertainty_s:.3f}s")
        if args.intensity >= 0.1:
            checks.add("heavy TSC drift marks the clocksource unstable",
                       wd_on.get("watchdog_unstable", 0) == 1,
                       f"unstable={wd_on.get('watchdog_unstable', 0)} "
                       f"flagged_at_jiffy="
                       f"{wd_on.get('watchdog_flagged_at_jiffy')}")

    return _run_defense_scenario(
        args, "faults", ("clean", "wd-on", "wd-off"),
        plan_on, sweep_plan(args.intensity, watchdog=False),
        f"fault plan (intensity {args.intensity}): {plan_on.describe()}",
        "billed {billed:.3f}s (oracle {oracle:.3f}s, error {err:.3f}s)",
        _fault_leg_details, add_checks,
        {"intensity": args.intensity, "plan": plan_on.to_dict()})


def _timesync_leg_details(stats) -> List[str]:
    lines = []
    if "timesync_rounds" in stats:
        lines.append(f"rounds={stats['timesync_rounds']} "
                     f"lost={stats['timesync_lost_rounds']} "
                     f"terminal offset="
                     f"{stats['timesync_offset_ns'] / 1e3:.1f}us")
    if "timesync_est_offset_ns" in stats:
        lines.append(f"estimator: est="
                     f"{stats['timesync_est_offset_ns'] / 1e3:.1f}us "
                     f"correction="
                     f"{stats['timesync_correction_ns'] / 1e3:.1f}us "
                     f"uncertainty="
                     f"{stats['timesync_uncertainty_ns'] / 1e3:.1f}us "
                     f"rounds T/D/U={stats['timesync_trusted']}/"
                     f"{stats['timesync_degraded']}/"
                     f"{stats['timesync_untrusted']}")
    return lines


def _cmd_timesync(args: argparse.Namespace) -> int:
    from .metering.billing import TrustReport
    from .runner.specs import spec_key
    from .timesync import sweep_timesync

    offset_ns = args.offset_ns
    sync_on = sweep_timesync(offset_ns, defense=True,
                             protocol=args.protocol, scale=args.scale)

    def add_checks(checks, spec, errors, trust, results):
        checks.add("inert timesync spec hashes identically to no spec",
                   spec_key(spec("a", timesync=None))
                   == spec_key(spec("b", timesync={"drift_ppb": 0})),
                   "cache identity preserved for sync-free runs")
        if offset_ns > 0:
            checks.add("defense reduces cross-host billing error",
                       errors["defense-on"] < errors["defense-off"],
                       f"on={errors['defense-on'] * 1e3:.3f}ms "
                       f"off={errors['defense-off'] * 1e3:.3f}ms")
            checks.add("defended residual within the declared uncertainty",
                       errors["defense-on"] <= trust.uncertainty_s
                       + max(2 * errors["clean"], 0.02),
                       f"err={errors['defense-on'] * 1e3:.3f}ms "
                       f"bound={trust.uncertainty_s * 1e3:.3f}ms")
            checks.add("estimator degrades trust under the sync attack",
                       not trust.is_trusted and trust.uncertainty_ns > 0,
                       f"trust={trust.level.value} "
                       f"uncertainty={trust.uncertainty_s * 1e3:.3f}ms")
            off_trust = TrustReport.from_stats(results["defense-off"].stats)
            checks.add("undefended run silently stays TRUSTED (the lie)",
                       off_trust.is_trusted,
                       f"defense-off trust={off_trust.level.value}")

    return _run_defense_scenario(
        args, "timesync", ("clean", "defense-on", "defense-off"),
        sync_on,
        sweep_timesync(offset_ns, defense=False, protocol=args.protocol,
                       scale=args.scale),
        f"sync attack (target offset {offset_ns}ns, {args.protocol}): "
        f"{sync_on.describe()}",
        "billed {billed:.6f}s (oracle {oracle:.6f}s, "
        "error {err_ms:.3f}ms)",
        _timesync_leg_details, add_checks,
        {"offset_ns": offset_ns, "protocol": args.protocol,
         "spec": sync_on.to_dict()})


def _finish_check_report(report: Dict[str, Any],
                         json_path: Optional[str]) -> int:
    """Write a selftest/gauntlet report, print its tally, and exit 1 if
    any check failed."""
    from .checks import write_report

    if json_path:
        write_report(json_path, report)
    n_ok = sum(1 for c in report["checks"] if c["passed"])
    print(f"\n{n_ok}/{len(report['checks'])} checks passed")
    return 0 if report["passed"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.selftest:
        from .serve import run_selftest

        print(f"repro serve selftest (store: {args.db}, "
              f"scale {args.scale}, {args.jobs} workers)")
        report = run_selftest(args.db, scale=args.scale, jobs=args.jobs)
        return _finish_check_report(report, args.json)

    from .config import ServeConfig
    from .serve import serve_forever

    serve_forever(ServeConfig(host=args.host, port=args.port, db=args.db,
                              jobs=args.jobs,
                              busy_timeout_ms=args.busy_timeout_ms,
                              drain_timeout_s=args.drain_timeout_s))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import time as _time

    from .fleet import FleetSpec, run_fleet
    from .runner import ConsoleProgress, ResultCache

    _apply_invariants_flag(args)
    kwargs = {}
    if args.sync_prevalence > 0:
        kwargs["sync_mix"] = ((0, 1.0 - args.sync_prevalence),
                              (args.sync_offset_ns, args.sync_prevalence))
    fleet = FleetSpec(hosts=args.hosts, guests=args.guests,
                      prevalence=args.prevalence, seed=args.seed,
                      scale=args.scale, vm_fraction=args.vm_fraction,
                      **kwargs)
    print(f"fleet: {fleet.hosts} hosts x {fleet.guests} guests "
          f"(prevalence {fleet.prevalence}, seed {fleet.seed}, "
          f"scale {fleet.scale}, {args.jobs} job(s))")
    if args.sync_prevalence > 0:
        print(f"sync-attack mix: {args.sync_prevalence:.0%} of bare-metal "
              f"hosts steered to {args.sync_offset_ns}ns offset")
    start = _time.perf_counter()
    if args.endpoints:
        from .fleet import shard_fleet

        endpoints = [e.strip() for e in args.endpoints.split(",")
                     if e.strip()]
        print(f"sharding across {len(endpoints)} serve endpoint(s)"
              + (f" as {args.shards} shards" if args.shards else ""))
        report = shard_fleet(fleet, endpoints, shards=args.shards)
    elif args.shards and args.shards > 1:
        from .fleet import shard_fleet_local

        print(f"sharding locally into {args.shards} host ranges")
        report = shard_fleet_local(
            fleet, args.shards, jobs=args.jobs,
            cache=ResultCache(args.cache_dir) if args.cache_dir else None,
            timeout_s=args.timeout_s, retries=args.retries)
    else:
        aggregator = run_fleet(
            fleet, jobs=args.jobs,
            cache=ResultCache(args.cache_dir) if args.cache_dir else None,
            timeout_s=args.timeout_s, retries=args.retries,
            progress=None if args.quiet else ConsoleProgress())
        report = aggregator.report()
    wall_s = _time.perf_counter() - start

    audit = report["audit"]
    print(f"\npopulation {report['population']} guests collapsed to "
          f"{report['distinct_runs']} distinct runs "
          f"({report['failed_runs']} failed) in {wall_s:.1f}s")
    print(f"billed {report['billed_total_ns'] / 1e9:.3f}s for "
          f"{report['ran_total_ns'] / 1e9:.3f}s actually run "
          f"(overbilled {report['overbilled_total_ns'] / 1e9:+.3f}s)")
    print(f"trust mix: {report['trust_mix']}")
    print(f"audit verdicts: {report['verdicts']}")
    det = audit["detection_rate"]
    fpr = audit["false_positive_rate"]
    print(f"steal-audit detection rate: "
          f"{'n/a (no attacked guests)' if det is None else f'{det:.1%}'} "
          f"over {audit['attacked_weight']} attacked guest(s)")
    print(f"false-positive rate: "
          f"{'n/a (no honest guests)' if fpr is None else f'{fpr:.1%}'} "
          f"over {audit['honest_weight']} honest guest(s)")
    print(f"\n{'population':<10} {'count':>6} {'mean':>8} {'p50':>8} "
          f"{'p90':>8} {'p99':>8}")
    for name in ("all", "attacked", "honest"):
        summary = report["billing_error"][name]
        if not summary["count"]:
            print(f"{name:<10} {0:>6}")
            continue
        print(f"{name:<10} {summary['count']:>6} {summary['mean']:>8.3f} "
              f"{summary['p50']:>8.3f} {summary['p90']:>8.3f} "
              f"{summary['p99']:>8.3f}")

    coverage = report.get("coverage")
    if coverage is not None:
        print(f"\ncoverage: {coverage['hosts_covered']}/"
              f"{coverage['hosts_total']} hosts "
              f"({coverage['shards_ok']}/{coverage['shards_total']} shards "
              f"ok, {coverage['faults_absorbed']} faults absorbed) — "
              f"grade {coverage['grade']}")
        for entry in coverage["shards"]:
            if entry["status"] != "ok":
                print(f"  shard {entry['shard']} "
                      f"hosts {entry['hosts'][0]}-{entry['hosts'][1]} "
                      f"FAILED: {entry['error']}")

    if args.json:
        from .checks import write_report

        write_report(args.json, report)
    ok = report["failed_runs"] == 0 and (
        coverage is None or coverage["grade"] != "PARTIAL")
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from .chaos.gauntlet import run_gauntlet

    db_dir = args.db_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    print(f"repro chaos gauntlet (intensity {args.intensity}, "
          f"{args.shards} shards, stores in {db_dir})")
    report = run_gauntlet(db_dir, intensity=args.intensity,
                          shards=args.shards, seed=args.seed,
                          quick=args.quick)
    return _finish_check_report(report, args.json)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .analysis.calibration import calibrate

    print(calibrate(iterations=args.iterations).render())
    return 0


def _cmd_comparison(args: argparse.Namespace) -> int:
    from .attacks import comparison_matrix
    from .metering.properties import defense_coverage_table

    print(comparison_matrix())
    print()
    print(defense_coverage_table())
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .hw.machine import Machine
    from .config import default_config
    from .kernel import procfs
    from .analysis.experiment import open_shell
    from .analysis.figures import paper_workloads

    machine = Machine(default_config())
    shell = open_shell(machine)
    for program in paper_workloads(scale=1.0).values():
        shell.run_command(program)
    machine.run_for(int(args.seconds * 1e9))
    print(procfs.top(machine.kernel))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'On Trustworthiness of CPU Usage "
                    "Metering and Accounting' (Liu & Ding, ICDCSW 2010)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_runner_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = serial, the default)")
        cmd.add_argument("--cache-dir", default=None,
                         help="result-cache directory (off by default)")
        cmd.add_argument("--timeout-s", type=float, default=None,
                         help="per-point wall-clock timeout in seconds")
        cmd.add_argument("--retries", type=int, default=0,
                         help="extra attempts for a failed point")
        cmd.add_argument("--check-invariants", action="store_true",
                         help="run every experiment under the runtime "
                              "invariant checker (docs/invariants.md)")

    fig = sub.add_parser("figure", help="regenerate one evaluation figure")
    fig.add_argument("fig_id",
                     choices=[f"fig{n}" for n in range(4, 12)]
                             + ["vmsched", "faultsweep", "smp", "fleet",
                                "timesync"])
    fig.add_argument("--scale", type=float, default=0.4)
    add_runner_flags(fig)
    fig.set_defaults(func=_cmd_figure)

    figs = sub.add_parser("figures", help="regenerate all figures")
    figs.add_argument("--scale", type=float, default=0.4)
    add_runner_flags(figs)
    figs.set_defaults(func=_cmd_figure, fig_id="all")

    sweep = sub.add_parser(
        "sweep", help="run a program x attack grid through the batch runner")
    sweep.add_argument("--programs", default="O,P,W,B",
                       help="comma-separated paper programs (O,P,W,B)")
    sweep.add_argument("--attacks", default="none,shell,scheduling",
                       help="comma-separated attack names (or 'none')")
    sweep.add_argument("--scale", type=float, default=0.4)
    sweep.add_argument("--nproc", default="1",
                       help="comma-separated CPU counts; each (program, "
                            "attack) point runs once per value (e.g. 1,2,4)")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress lines")
    add_runner_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    fuzz = sub.add_parser(
        "fuzz", help="randomized differential conformance testing")
    fuzz.add_argument("--iterations", type=int, default=50,
                      help="number of random scenarios to run")
    fuzz.add_argument("--seed", type=int, default=2010,
                      help="master seed for scenario generation")
    fuzz.add_argument("--out", default=None,
                      help="directory for failing-scenario replay specs")
    fuzz.add_argument("--schedulers", default="cfs,o1,rr",
                      help="comma-separated schedulers to cross-check")
    fuzz.add_argument("--inject-probability", type=float, default=0.15,
                      help="share of scenarios carrying deliberate "
                           "accounting corruption (detection soundness)")
    fuzz.add_argument("--replay", default=None, metavar="FILE",
                      help="re-run a saved failure spec and verify the "
                           "outcome digest bit-identically")
    fuzz.add_argument("--check-invariants", action="store_true",
                      help="accepted for symmetry; fuzz scenarios always "
                           "run with the invariant checker on")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress per-scenario progress lines")
    fuzz.set_defaults(func=_cmd_fuzz)

    vm = sub.add_parser(
        "vm", help="VM-level scheduling attack under the credit hypervisor")
    vm.add_argument("--attack", choices=["sched", "none"], default="sched",
                    help="co-resident attack to run (default: sched)")
    vm.add_argument("--burn-fraction", type=float, default=0.75,
                    help="fraction of each hypervisor tick the attacker "
                         "burns before dodging the sample (default 0.75)")
    vm.add_argument("--program", choices=["O", "P", "W", "B"], default="W",
                    help="victim VM workload (default W)")
    vm.add_argument("--scale", type=float, default=0.4)
    vm.add_argument("--json", metavar="PATH", default=None,
                    help="write a machine-readable report to PATH")
    add_runner_flags(vm)
    vm.set_defaults(func=_cmd_vm)

    faults = sub.add_parser(
        "faults", help="hardware fault injection + clocksource watchdog")
    faults.add_argument("--intensity", type=float, default=0.2,
                        help="fault intensity in [0, 1]: scales tick-loss "
                             "probability and TSC drift together "
                             "(default 0.2)")
    faults.add_argument("--program", choices=["O", "P", "W", "B"],
                        default="W", help="workload to meter (default W)")
    faults.add_argument("--scale", type=float, default=0.4)
    faults.add_argument("--json", metavar="PATH", default=None,
                        help="write a machine-readable fault report to PATH")
    add_runner_flags(faults)
    faults.set_defaults(func=_cmd_faults)

    timesync = sub.add_parser(
        "timesync", help="network time plane: sync attack vs guest defense")
    timesync.add_argument("--offset-ns", type=int, default=5_000_000,
                          help="clock offset the attacker steers the host "
                               "to, in ns (default 5ms)")
    timesync.add_argument("--protocol", choices=["ptp", "ntp"],
                          default="ptp",
                          help="sync protocol the host runs (default ptp)")
    timesync.add_argument("--program", choices=["O", "P", "W", "B"],
                          default="W", help="workload to meter (default W)")
    timesync.add_argument("--scale", type=float, default=0.4)
    timesync.add_argument("--json", metavar="PATH", default=None,
                          help="write a machine-readable report to PATH")
    add_runner_flags(timesync)
    timesync.set_defaults(func=_cmd_timesync)

    serve = sub.add_parser(
        "serve", help="multi-tenant metering daemon (JSON API over HTTP)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="listen port; 0 picks an ephemeral port "
                            "(default 8787)")
    serve.add_argument("--db", default="repro-usage.db",
                       help="SQLite usage-store path "
                            "(default repro-usage.db)")
    serve.add_argument("--jobs", type=int, default=2,
                       help="worker threads executing submissions "
                            "(default 2)")
    serve.add_argument("--selftest", action="store_true",
                       help="boot a throwaway server, drive the honest/"
                            "attacker/quota scenario end to end over HTTP "
                            "and exit non-zero on any check failure")
    serve.add_argument("--scale", type=float, default=0.1,
                       help="selftest workload scale (default 0.1)")
    serve.add_argument("--json", metavar="PATH", default=None,
                       help="write the selftest report to PATH")
    serve.add_argument("--busy-timeout-ms", type=int, default=5_000,
                       help="SQLite busy timeout — how long a locked "
                            "store is retried before erroring "
                            "(default 5000)")
    serve.add_argument("--drain-timeout-s", type=float, default=30.0,
                       help="seconds SIGTERM shutdown waits for in-flight "
                            "jobs before abandoning them (default 30)")
    serve.set_defaults(func=_cmd_serve)

    fleet = sub.add_parser(
        "fleet", help="datacenter-scale population sweep with streaming "
                      "aggregation")
    fleet.add_argument("--hosts", type=int, default=100,
                       help="physical hosts in the fleet (default 100)")
    fleet.add_argument("--guests", type=int, default=2,
                       help="metered guest slots per host (default 2)")
    fleet.add_argument("--prevalence", type=float, default=0.1,
                       help="attacker co-residency probability per host "
                            "(default 0.1)")
    fleet.add_argument("--seed", type=int, default=0,
                       help="population seed; same seed, same fleet "
                            "(default 0)")
    fleet.add_argument("--scale", type=float, default=0.1,
                       help="workload run-length scale (default 0.1)")
    fleet.add_argument("--vm-fraction", type=float, default=0.5,
                       help="fraction of hosts that are hypervisor hosts "
                            "(default 0.5)")
    fleet.add_argument("--sync-prevalence", type=float, default=0.0,
                       help="probability a bare-metal host is under a "
                            "network sync attack (default 0: no time "
                            "plane, population identical to earlier "
                            "releases)")
    fleet.add_argument("--sync-offset-ns", type=int, default=5_000_000,
                       help="clock offset sync-attacked hosts are steered "
                            "to, in ns (default 5ms)")
    fleet.add_argument("--shards", type=int, default=None,
                       help="split the hosts into N contiguous ranges and "
                            "run them concurrently; the merged report is "
                            "bit-identical to the serial one "
                            "(docs/chaos.md)")
    fleet.add_argument("--endpoints", default=None, metavar="URLS",
                       help="comma-separated repro-serve base URLs to run "
                            "the shards on; a shard that stays dark is "
                            "declared in the report's coverage section "
                            "instead of failing the sweep")
    fleet.add_argument("--json", metavar="PATH", default=None,
                       help="write the full aggregate report to PATH")
    fleet.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress lines")
    add_runner_flags(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    chaos = sub.add_parser(
        "chaos", help="fault-injection gauntlet: chaotic serve shards, "
                      "one dead, degraded-but-bounded report")
    chaos.add_argument("--intensity", type=float, default=0.4,
                       help="chaos intensity in [0, 1]: scales store/"
                            "worker/HTTP fault probabilities together "
                            "(default 0.4)")
    chaos.add_argument("--shards", type=int, default=3,
                       help="fleet shards / serve endpoints; the last one "
                            "is hard-down (default 3)")
    chaos.add_argument("--seed", type=int, default=2010,
                       help="chaos-plan seed: same seed, same fault "
                            "schedule (default 2010)")
    chaos.add_argument("--quick", action="store_true",
                       help="smaller fleet and deadlines (CI smoke mode)")
    chaos.add_argument("--db-dir", default=None,
                       help="directory for the per-shard usage stores "
                            "(default: a fresh temp dir)")
    chaos.add_argument("--json", metavar="PATH", default=None,
                       help="write the gauntlet report to PATH")
    chaos.set_defaults(func=_cmd_chaos)

    gallery = sub.add_parser("gallery", help="run every attack once")
    gallery.add_argument("--scale", type=float, default=1.0)
    gallery.set_defaults(func=_cmd_gallery)

    calib = sub.add_parser("calibrate", help="measure primitive costs")
    calib.add_argument("--iterations", type=int, default=200)
    calib.set_defaults(func=_cmd_calibrate)

    comparison = sub.add_parser("comparison",
                                help="attack matrix + defense coverage")
    comparison.set_defaults(func=_cmd_comparison)

    top = sub.add_parser("top", help="procfs snapshot of a loaded machine")
    top.add_argument("--seconds", type=float, default=0.5)
    top.set_defaults(func=_cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .config import default_invariants, set_default_invariants
    from .errors import ReproError

    previous = default_invariants()  # restored: flags end with the command
    try:
        return args.func(args)
    except ReproError as exc:
        # Domain failures are an exit code and a one-line diagnosis, not a
        # traceback — scripts and CI gate on the code.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1
    finally:
        set_default_invariants(previous)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
