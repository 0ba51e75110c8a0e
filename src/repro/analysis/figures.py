"""Regeneration of the paper's evaluation figures (Figs. 4-11).

Workloads are scaled to ~1/200 of the paper's run lengths (DESIGN.md §2);
every check is on *shape* — who gets inflated, utime vs stime, ordering
across programs, monotonicity in nice, sum conservation — never absolute
seconds.  ``PAPER_REFERENCE`` records values eyeballed from the published
figures for side-by-side context in EXPERIMENTS.md; they are approximate by
nature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..config import MachineConfig, default_config
from ..programs.base import Program
from ..programs.workloads import make_paper_program, watched_variable
from ..runner import BatchRunner, ExperimentSpec, run_spec
from .experiment import ExperimentResult

#: The injected payload for the launch-time attacks: the scaled analogue of
#: the paper's ~34-second loop (~0.34 s at 2.53 GHz).
LAUNCH_PAYLOAD_CYCLES = 860_000_000

#: Per-call theft for the function-substitution attack (~0.24 ms).
SUBST_CYCLES_PER_CALL = 600_000

#: Packet rate for the interrupt flood.
FLOOD_RATE_PPS = 20_000.0

#: Nice sweep of Figs. 7-8 ("no attack" first, then rising priority).
NICE_SWEEP: Tuple[Optional[int], ...] = (0, -5, -10, -15, -20)

#: Fork-chain length for the scheduling figures.
SCHED_FORKS = 16_000


def paper_workload_params(scale: float = 1.0) -> Dict[str, Dict[str, int]]:
    """Factory kwargs for the four evaluation programs at the standard
    scaled sizes — the declarative form :class:`ExperimentSpec` points
    carry across process boundaries.

    ``scale`` stretches run lengths (1.0 ≈ paper/200); iteration counts
    also set the thrashing-attack hit counts, mirroring the paper's
    per-variable access counts.
    """

    def n(x: int) -> int:
        return max(1, int(x * scale))

    return {
        "O": {"iterations": n(5_000), "cycles_per_iter": 430_000,
              "mallocs": n(400)},
        "P": {"chunks": n(50), "y_touches_per_chunk": 400,
              "cycles_per_chunk": 9_000_000},
        "W": {"loops": n(8_000)},
        "B": {"threads": 8, "candidates_per_thread": n(1_300),
              "per_thread_tries": 1},
    }


def paper_workloads(scale: float = 1.0) -> Dict[str, Program]:
    """The four evaluation programs, built from the standard params."""
    return {name: make_paper_program(name, **kwargs)
            for name, kwargs in paper_workload_params(scale).items()}


def _execute(specs: List[ExperimentSpec],
             runner: Optional[BatchRunner]) -> List[ExperimentResult]:
    """Run sweep points through ``runner`` (parallel/cached) or, absent
    one, serially in-process — the two paths are equivalent by
    construction and by the equivalence test suite."""
    if runner is None:
        return [run_spec(spec) for spec in specs]
    return runner.run_results(specs)


@dataclass
class Bar:
    """One (utime, stime) bar of a figure."""

    label: str
    utime_s: float
    stime_s: float

    @property
    def total_s(self) -> float:
        return self.utime_s + self.stime_s


@dataclass
class Check:
    """One shape assertion, with its observed evidence."""

    name: str
    passed: bool
    detail: str


@dataclass
class FigureResult:
    """A regenerated figure: bars/series plus shape checks."""

    fig_id: str
    title: str
    #: For the per-program figures: program → (normal bar, attacked bar).
    pairs: Dict[str, Tuple[Bar, Bar]] = field(default_factory=dict)
    #: For the sweep figures: label → (victim bar, attacker bar).
    series: List[Tuple[str, Bar, Bar]] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    results: Dict[str, ExperimentResult] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> List[Check]:
        return [c for c in self.checks if not c.passed]


def _bar(label: str, res: ExperimentResult) -> Bar:
    return Bar(label, res.utime_s, res.stime_s)


#: (attack registry name, constructor kwargs) for one figure point.
AttackSpec = Tuple[str, Dict[str, Any]]


def _run_pairs(fig_id: str, title: str,
               attack_for: Callable[[str], AttackSpec],
               scale: float, cfg: Optional[MachineConfig],
               programs: Optional[List[str]] = None,
               runner: Optional[BatchRunner] = None) -> FigureResult:
    """Run normal + attacked for each paper program; no checks yet."""
    params = paper_workload_params(scale)
    names = programs or list(params)
    specs: List[ExperimentSpec] = []
    for name in names:
        attack_name, attack_kwargs = attack_for(name)
        specs.append(ExperimentSpec(
            program=name, program_kwargs=params[name], cfg=cfg,
            label=f"{fig_id}:{name}:normal"))
        specs.append(ExperimentSpec(
            program=name, program_kwargs=params[name],
            attack=attack_name, attack_kwargs=attack_kwargs, cfg=cfg,
            label=f"{fig_id}:{name}:attacked"))
    results = _execute(specs, runner)
    fig = FigureResult(fig_id=fig_id, title=title)
    for name, (normal, attacked) in zip(names, zip(results[::2],
                                                   results[1::2])):
        fig.pairs[name] = (_bar("normal", normal), _bar("attacked", attacked))
        fig.results[f"{name}:normal"] = normal
        fig.results[f"{name}:attacked"] = attacked
    return fig


# ---------------------------------------------------------------------------
# shape checks
# ---------------------------------------------------------------------------

def _check_launch_attack_shape(fig: FigureResult,
                               payload_s: float) -> None:
    """Figs. 4/5: utime grows by ~the payload for every program; stime
    unaffected."""
    deltas = []
    for name, (normal, attacked) in fig.pairs.items():
        du = attacked.utime_s - normal.utime_s
        ds = attacked.stime_s - normal.stime_s
        deltas.append(du)
        fig.checks.append(Check(
            f"{name}: utime inflated by ~payload",
            0.7 * payload_s <= du <= 1.5 * payload_s,
            f"delta_utime={du:.3f}s payload={payload_s:.3f}s"))
        fig.checks.append(Check(
            f"{name}: stime unaffected",
            abs(ds) <= max(0.1 * normal.total_s, 0.02),
            f"delta_stime={ds:.3f}s"))
    if deltas:
        spread = max(deltas) - min(deltas)
        fig.checks.append(Check(
            "equal growth across programs",
            spread <= 0.35 * max(deltas),
            f"deltas={['%.3f' % d for d in deltas]}"))


def _check_all_inflated(fig: FigureResult, min_rel: float,
                        component: str) -> None:
    for name, (normal, attacked) in fig.pairs.items():
        if component == "total":
            before, after = normal.total_s, attacked.total_s
        elif component == "utime":
            before, after = normal.utime_s, attacked.utime_s
        else:
            before, after = normal.stime_s, attacked.stime_s
        grew = after - before
        fig.checks.append(Check(
            f"{name}: {component} inflated",
            grew >= min_rel * max(normal.total_s, 1e-9),
            f"{component}: {before:.3f} -> {after:.3f} (+{grew:.3f})"))


# ---------------------------------------------------------------------------
# the figures
# ---------------------------------------------------------------------------

def figure4(scale: float = 1.0,
            cfg: Optional[MachineConfig] = None,
            runner: Optional[BatchRunner] = None) -> FigureResult:
    """Fig. 4: the shell attack on O, P, W, B."""
    fig = _run_pairs(
        "fig4", "Shell attack",
        lambda name: ("shell", {"payload_cycles": LAUNCH_PAYLOAD_CYCLES}),
        scale, cfg, runner=runner)
    payload_s = LAUNCH_PAYLOAD_CYCLES / (cfg or default_config()).cpu_freq_hz
    _check_launch_attack_shape(fig, payload_s)
    fig.meta["payload_seconds"] = payload_s
    return fig


def figure5(scale: float = 1.0,
            cfg: Optional[MachineConfig] = None,
            runner: Optional[BatchRunner] = None) -> FigureResult:
    """Fig. 5: the shared-library constructor attack."""
    fig = _run_pairs(
        "fig5", "Shared-library constructor attack",
        lambda name: ("library-ctor",
                      {"payload_cycles": LAUNCH_PAYLOAD_CYCLES}),
        scale, cfg, runner=runner)
    payload_s = LAUNCH_PAYLOAD_CYCLES / (cfg or default_config()).cpu_freq_hz
    _check_launch_attack_shape(fig, payload_s)
    fig.meta["payload_seconds"] = payload_s
    return fig


def figure6(scale: float = 1.0,
            cfg: Optional[MachineConfig] = None,
            runner: Optional[BatchRunner] = None) -> FigureResult:
    """Fig. 6: the function-substitution attack (fake malloc/sqrt).

    Inflation is proportional to each program's call count into the
    interposed functions — the amplification the paper highlights.
    """
    fig = _run_pairs(
        "fig6", "Library function-substitution attack",
        lambda name: ("library-subst",
                      {"symbols": ("malloc", "sqrt"),
                       "cycles_per_call": SUBST_CYCLES_PER_CALL}),
        scale, cfg, runner=runner)
    _check_all_inflated(fig, min_rel=0.03, component="utime")
    for name, (normal, attacked) in fig.pairs.items():
        ds = attacked.stime_s - normal.stime_s
        fig.checks.append(Check(
            f"{name}: stime unaffected",
            abs(ds) <= max(0.1 * normal.total_s, 0.02),
            f"delta_stime={ds:.3f}s"))
    # Amplification: W (sqrt every cycle) must gain more than the launch
    # payload would give it, and more than any lighter caller.
    gains = {name: attacked.utime_s - normal.utime_s
             for name, (normal, attacked) in fig.pairs.items()}
    fig.checks.append(Check(
        "amplified for the heaviest caller (W)",
        gains.get("W", 0.0) >= max(g for n, g in gains.items() if n != "W"),
        f"gains={ {n: round(g, 3) for n, g in gains.items()} }"))
    fig.meta["cycles_per_call"] = SUBST_CYCLES_PER_CALL
    return fig


def _sched_figure(fig_id: str, title: str, victim_name: str,
                  scale: float, cfg: Optional[MachineConfig],
                  runner: Optional[BatchRunner] = None) -> FigureResult:
    fig = FigureResult(fig_id=fig_id, title=title)
    forks = max(1, int(SCHED_FORKS * scale))
    victim_kwargs = paper_workload_params(scale)[victim_name]
    # "No attack": victim and Fork each run alone (the leftmost bar pair),
    # then the nice sweep.
    specs = [
        ExperimentSpec(program=victim_name, program_kwargs=victim_kwargs,
                       cfg=cfg, label=f"{fig_id}:baseline"),
        ExperimentSpec(program="fork", program_kwargs={"forks": forks},
                       cfg=cfg, label=f"{fig_id}:fork-alone"),
    ]
    for nice in NICE_SWEEP:
        specs.append(ExperimentSpec(
            program=victim_name, program_kwargs=victim_kwargs,
            attack="scheduling", attack_kwargs={"nice": nice, "forks": forks},
            cfg=cfg, label=f"{fig_id}:nice {nice}"))
    results = _execute(specs, runner)

    baseline, alone = results[0], results[1]
    # Fork's bar includes its reaped children, as time(1) would report.
    cutime = (alone.rusage or {}).get("cutime_ns", 0) / 1e9
    cstime = (alone.rusage or {}).get("cstime_ns", 0) / 1e9
    fig.series.append(("no attack",
                       _bar(victim_name, baseline),
                       Bar("Fork", alone.utime_s + cutime,
                           alone.stime_s + cstime)))
    fig.results["baseline"] = baseline
    fig.results["fork-alone"] = alone

    for nice, res in zip(NICE_SWEEP, results[2:]):
        label = f"nice {nice}"
        atk = res.attacker_usage
        fig.series.append((label,
                           _bar(victim_name, res),
                           Bar("Fork", atk.utime_seconds, atk.stime_seconds)))
        fig.results[label] = res
    return fig


def figure7(scale: float = 1.0,
            cfg: Optional[MachineConfig] = None,
            runner: Optional[BatchRunner] = None) -> FigureResult:
    """Fig. 7: the process-scheduling attack on Whetstone.

    Expected shape: W's billed time rises monotonically as the attacker's
    priority rises, the Fork program's falls, and W+Fork stays roughly
    constant (the miscounted time moves between accounts).
    """
    fig = _sched_figure("fig7", "Process scheduling attack on Whetstone",
                        "W", scale, cfg, runner=runner)
    baseline = fig.series[0][1].total_s
    victim_totals = [v.total_s for _label, v, _f in fig.series[1:]]
    fork_totals = [f.total_s for _label, _v, f in fig.series[1:]]
    fig.checks.append(Check(
        "victim time rises with attacker priority",
        victim_totals[-1] > victim_totals[0] >= baseline - 0.05,
        f"victim totals={['%.3f' % v for v in victim_totals]}"))
    fig.checks.append(Check(
        "attacker time falls with its priority",
        fork_totals[-1] < fork_totals[0],
        f"fork totals={['%.3f' % v for v in fork_totals]}"))
    fig.checks.append(Check(
        "strong inflation at nice -20",
        victim_totals[-1] >= 1.15 * baseline,
        f"baseline={baseline:.3f} at-20={victim_totals[-1]:.3f}"))
    sums = [v.total_s + f.total_s for _l, v, f in fig.series[1:]]
    fig.checks.append(Check(
        "victim+attacker sum roughly conserved",
        max(sums) <= 1.25 * min(sums),
        f"sums={['%.3f' % s for s in sums]}"))
    return fig


def figure8(scale: float = 1.0,
            cfg: Optional[MachineConfig] = None,
            runner: Optional[BatchRunner] = None) -> FigureResult:
    """Fig. 8: the scheduling attack on Brute — ineffective on the
    multi-threaded victim."""
    fig = _sched_figure("fig8", "Process scheduling attack on Brute",
                        "B", scale, cfg, runner=runner)
    baseline = fig.series[0][1].total_s
    victim_totals = [v.total_s for _label, v, _f in fig.series[1:]]
    worst_rel = max(victim_totals) / baseline if baseline else 1.0
    fig.checks.append(Check(
        "attack ineffective on the multi-threaded victim",
        worst_rel <= 1.30,
        f"baseline={baseline:.3f} worst={max(victim_totals):.3f} "
        f"(x{worst_rel:.2f})"))
    fig.meta["worst_relative_inflation"] = worst_rel
    return fig


def figure9(scale: float = 1.0,
            cfg: Optional[MachineConfig] = None,
            runner: Optional[BatchRunner] = None) -> FigureResult:
    """Fig. 9: the execution-thrashing attack — mostly stime growth."""
    fig = _run_pairs(
        "fig9", "Execution thrashing attack",
        lambda name: ("thrashing", {"watch_symbol": watched_variable(name)}),
        scale, cfg, runner=runner)
    for name, (normal, attacked) in fig.pairs.items():
        du = attacked.utime_s - normal.utime_s
        ds = attacked.stime_s - normal.stime_s
        fig.checks.append(Check(
            f"{name}: stime inflated",
            ds > max(0.02, abs(du)),
            f"delta_stime={ds:.3f}s delta_utime={du:.3f}s"))
        hits = fig.results[f"{name}:attacked"].stats["debug_exceptions"]
        fig.checks.append(Check(
            f"{name}: watchpoint fired per hot-variable access",
            hits > 0,
            f"debug_exceptions={hits}"))
    return fig


def figure10(scale: float = 1.0,
             cfg: Optional[MachineConfig] = None,
             runner: Optional[BatchRunner] = None) -> FigureResult:
    """Fig. 10: the interrupt-flooding attack — slight stime increase."""
    fig = _run_pairs(
        "fig10", "Interrupt flooding attack",
        lambda name: ("irq-flood", {"rate_pps": FLOOD_RATE_PPS}),
        scale, cfg, runner=runner)
    for name, (normal, attacked) in fig.pairs.items():
        ds = attacked.stime_s - normal.stime_s
        du = attacked.utime_s - normal.utime_s
        fig.checks.append(Check(
            f"{name}: stime slightly inflated",
            ds > 0.0,
            f"delta_stime={ds:.3f}s"))
        fig.checks.append(Check(
            f"{name}: weak attack (bounded effect)",
            ds + max(du, 0.0) <= 0.35 * normal.total_s,
            f"relative={100 * (ds + max(du, 0)) / max(normal.total_s, 1e-9):.1f}%"))
    return fig


def fig11_config() -> MachineConfig:
    """Machine for the exception flood: scaled-down RAM so the hog's
    eviction sweep period relates to the victims' run lengths the way the
    paper's 2 GiB does to its ~minutes-long runs."""
    from ..config import MemoryConfig

    return default_config(memory=MemoryConfig(
        ram_bytes=16 * 1024 * 1024, swap_bytes=128 * 1024 * 1024))


def figure11(scale: float = 1.0,
             cfg: Optional[MachineConfig] = None,
             runner: Optional[BatchRunner] = None) -> FigureResult:
    """Fig. 11: the exception-flooding attack — stime up from direct
    reclaim, fault handling and swap-I/O completions."""
    fig = _run_pairs(
        "fig11", "Exception flooding attack",
        lambda name: ("fault-flood", {}),
        scale, cfg or fig11_config(), runner=runner)
    for name, (normal, attacked) in fig.pairs.items():
        ds = attacked.stime_s - normal.stime_s
        res = fig.results[f"{name}:attacked"]
        fig.checks.append(Check(
            f"{name}: stime inflated",
            ds > 0.0,
            f"delta_stime={ds:.3f}s"))
        fig.checks.append(Check(
            f"{name}: system thrashing during the run",
            res.stats["swap_outs"] > 200,
            f"swap_outs={res.stats['swap_outs']} "
            f"swap_ins={res.stats['swap_ins']}"))
    fig.checks.append(Check(
        "no OOM kill of the victim",
        all(r.stats["exit_code"] == 0
            for key, r in fig.results.items() if key.endswith(":attacked")),
        "exit codes: " + str({k: r.stats["exit_code"]
                              for k, r in fig.results.items()})))
    return fig


#: Burn fractions swept by the VM scheduling figure.
VM_BURN_FRACTIONS: Tuple[float, ...] = (0.25, 0.5, 0.75, 0.9)


def figure_vm_sched(scale: float = 1.0,
                    cfg: Optional[MachineConfig] = None,
                    runner: Optional[BatchRunner] = None) -> FigureResult:
    """VM-level analogue of Fig. 7: the hypervisor scheduling attack.

    A victim VM runs Whetstone while a co-resident attacker VM burns a
    rising fraction of each hypervisor accounting tick and sleeps across
    the sampling edge (Zhou et al., arXiv:1103.0759).  Expected shape: the
    victim's *billed* CPU inflates monotonically with the attacker's burn
    fraction while its actually-ran time stays flat, the attacker's bill
    stays pinned near zero however much it burns, and the victim's
    guest-side steal estimator measures the loss the host reports.
    """
    wkw = paper_workload_params(scale)["W"]
    specs = [ExperimentSpec(program="W", program_kwargs=wkw, attack=None,
                            vm={}, cfg=cfg, label="vm:W:none")]
    for fraction in VM_BURN_FRACTIONS:
        specs.append(ExperimentSpec(
            program="W", program_kwargs=wkw, attack="vm-sched",
            attack_kwargs={"burn_fraction": fraction}, vm={}, cfg=cfg,
            label=f"vm:W:burn={fraction}"))
    results = _execute(specs, runner)

    fig = FigureResult(
        "vmsched", "VM scheduling attack: co-resident billing inflation")
    tick_ns = 10_000_000  # HypervisorConfig default; vm={} keeps it
    baseline = results[0]
    fig.results["baseline"] = baseline
    fig.series.append(("no attack", _bar("victim", baseline),
                       Bar("attacker", 0.0, 0.0)))
    for fraction, res in zip(VM_BURN_FRACTIONS, results[1:]):
        label = f"burn={fraction}"
        fig.results[label] = res
        attacker = res.attacker_usage
        fig.series.append((
            label, _bar("victim billed", res),
            Bar("attacker billed", attacker.utime_ns / 1e9,
                attacker.stime_ns / 1e9)))
    fig.meta = {
        "burn_fractions": list(VM_BURN_FRACTIONS),
        "hv_tick_ns": tick_ns,
        "victim_ran_s": [r.stats["victim_ran_ns"] / 1e9 for r in results],
        "victim_steal_s": [r.stats["victim_steal_ns"] / 1e9
                           for r in results],
        "est_steal_s": [r.stats["est_steal_ns"] / 1e9 for r in results],
    }

    base_billed = baseline.usage.total_ns
    base_ran = baseline.stats["victim_ran_ns"]
    fig.checks.append(Check(
        "baseline bill tracks actual run time",
        abs(base_billed - base_ran) <= max(2 * tick_ns, 0.1 * base_ran),
        f"billed={base_billed / 1e9:.3f}s ran={base_ran / 1e9:.3f}s"))
    victim_billed = [r.usage.total_ns for r in results[1:]]
    fig.checks.append(Check(
        "victim bill inflates monotonically with burn fraction",
        all(b >= a for a, b in zip(victim_billed, victim_billed[1:]))
        and victim_billed[-1] > base_billed,
        f"billed={[round(b / 1e9, 3) for b in victim_billed]}s "
        f"baseline={base_billed / 1e9:.3f}s"))
    fig.checks.append(Check(
        f"strong inflation at burn={VM_BURN_FRACTIONS[-1]}",
        victim_billed[-1] >= 2 * base_billed,
        f"x{victim_billed[-1] / base_billed:.2f} over baseline"))
    attacker_billed = [r.attacker_usage.total_ns for r in results[1:]]
    attacker_ran = [r.stats["attacker_ran_ns"] for r in results[1:]]
    fig.checks.append(Check(
        "attacker billed ~nothing for real burn",
        all(b <= max(2 * tick_ns, 0.05 * v)
            for b, v in zip(attacker_billed, victim_billed))
        and attacker_ran[-1] > 2 * tick_ns,
        f"attacker billed={[round(b / 1e9, 3) for b in attacker_billed]}s "
        f"ran={[round(r / 1e9, 3) for r in attacker_ran]}s"))
    ran = [r.stats["victim_ran_ns"] for r in results]
    fig.checks.append(Check(
        "victim's actual run time stays flat",
        max(ran) <= 1.05 * min(ran),
        f"ran={[round(r / 1e9, 3) for r in ran]}s"))
    est_ok = []
    for res in results[1:]:
        est = res.stats["est_steal_ns"]
        rep = res.stats["reported_steal_ns"]
        est_ok.append(abs(est - rep) <= max(4_000_000, 0.05 * rep))
    fig.checks.append(Check(
        "guest steal estimate within 5% of reported steal",
        all(est_ok),
        f"est={[round(r.stats['est_steal_ns'] / 1e9, 3) for r in results[1:]]}s "
        f"reported={[round(r.stats['reported_steal_ns'] / 1e9, 3) for r in results[1:]]}s"))
    from ..metering.steal import StealVerdict, audit_vm_result

    audits = [audit_vm_result(r) for r in results[1:]]
    fig.checks.append(Check(
        "tenant audit flags overbilling at the top fraction, never a "
        "misreported steal clock",
        audits[-1].verdict is StealVerdict.OVERBILLED
        and all(a.verdict is not StealVerdict.MISREPORTED for a in audits),
        f"verdicts={[a.verdict.value for a in audits]}"))
    return fig


#: CPU counts swept by the SMP figure.
SMP_NPROCS: Tuple[int, ...] = (1, 2, 4)

#: Work the dodger performs at every sweep point (~0.2 s at 2.53 GHz).
SMP_DODGE_CYCLES = 506_000_000


def figure_smp(scale: float = 1.0,
               cfg: Optional[MachineConfig] = None,
               runner: Optional[BatchRunner] = None) -> FigureResult:
    """Billing error vs CPU count for the cross-CPU tick dodger.

    The same dodger program runs next to an O victim on 1-, 2- and 4-CPU
    machines.  On one CPU it cannot dodge — ``migrate`` is a no-op and
    every tick is local — so tick accounting bills ~all of its work.  On
    two or more CPUs it hops off each CPU just before that CPU's
    staggered tick lands and its bill collapses toward zero, while the
    oracle keeps charging every cycle it actually burned: billing error
    ``1 - billed/nominal`` jumps from ~0 to ~1 the moment a second CPU
    exists.
    """
    base_cfg = cfg or default_config()
    nominal_ns = SMP_DODGE_CYCLES * 1_000_000_000 // base_cfg.cpu_freq_hz
    wkw = paper_workload_params(scale)["O"]
    specs = [ExperimentSpec(
        program="O", program_kwargs=wkw, attack="smp-dodge",
        attack_kwargs={"total_cycles": SMP_DODGE_CYCLES},
        cfg=cfg, nproc=nproc, label=f"smp:O:nproc={nproc}")
        for nproc in SMP_NPROCS]
    results = _execute(specs, runner)

    fig = FigureResult(
        "smp", "Cross-CPU tick dodging: billing error vs CPU count")
    errors: List[float] = []
    for nproc, res in zip(SMP_NPROCS, results):
        label = f"nproc={nproc}"
        fig.results[label] = res
        billed_ns = res.attacker_usage.total_ns
        errors.append(1.0 - billed_ns / nominal_ns)
        fig.series.append((
            label, _bar("victim billed", res),
            Bar("attacker billed", res.attacker_usage.utime_ns / 1e9,
                res.attacker_usage.stime_ns / 1e9)))
    fig.meta = {
        "nprocs": list(SMP_NPROCS),
        "nominal_s": nominal_ns / 1e9,
        "billing_error": [round(e, 4) for e in errors],
        "migrations": [r.stats.get("migrations_total", 0) for r in results],
    }

    fig.checks.append(Check(
        "uniprocessor cannot dodge: billed ~= nominal work",
        abs(errors[0]) <= 0.1,
        f"error={errors[0]:+.3f} (billed "
        f"{results[0].attacker_usage.total_ns / 1e9:.3f}s of "
        f"{nominal_ns / 1e9:.3f}s)"))
    fig.checks.append(Check(
        "bill collapses on every multiprocessor",
        all(e >= 0.9 for e in errors[1:]),
        f"errors={[round(e, 3) for e in errors[1:]]}"))
    fig.checks.append(Check(
        "billing error grows with CPU count, uni to SMP",
        all(b >= a for a, b in zip(errors, errors[1:])),
        f"errors={[round(e, 3) for e in errors]}"))
    oracle_ok = []
    for res in results[1:]:
        oracle_ns = res.stats.get("attacker_oracle_ns", 0)
        oracle_ok.append(nominal_ns <= oracle_ns <= 1.1 * nominal_ns)
    oracle_s = [round(r.stats.get("attacker_oracle_ns", 0) / 1e9, 3)
                for r in results[1:]]
    fig.checks.append(Check(
        "oracle still charges every burned cycle on SMP",
        all(oracle_ok),
        f"oracle={oracle_s}s nominal={nominal_ns / 1e9:.3f}s"))
    fig.checks.append(Check(
        "the dodge is mounted by migration",
        all(r.stats.get("migrations_total", 0) >= 10 for r in results[1:]),
        f"migrations={[r.stats.get('migrations_total', 0) for r in results[1:]]}"))
    victim_own = [round(r.oracle_own_s(), 6) for r in results]
    fig.checks.append(Check(
        "victim's ground-truth work independent of CPU count",
        max(victim_own) - min(victim_own) <= 0.01 * max(victim_own) + 1e-4,
        f"victim oracle={victim_own}s"))
    return fig


#: Fault intensities swept by the faultsweep figure.
FAULT_INTENSITIES: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)


def figure_faultsweep(scale: float = 1.0,
                      cfg: Optional[MachineConfig] = None,
                      runner: Optional[BatchRunner] = None) -> FigureResult:
    """Metering error vs hardware-fault intensity, watchdog on vs off.

    Robustness analogue of the attack figures: here the *hardware*
    misbehaves rather than a malicious program.  ``sweep_plan`` scales
    lost timer ticks and TSC drift together with one intensity knob; the
    kernel's clocksource watchdog (docs/faults.md) replays lost jiffies
    and grades each check window, so the watched meter stays near the
    oracle while the unwatched one under-bills roughly linearly in the
    tick-loss rate.  At heavy drift the watchdog declares the TSC
    unstable and the run's trust degrades to UNTRUSTED with an explicit
    uncertainty bound — graceful degradation instead of a silent lie.
    """
    from ..faults import sweep_plan

    wkw = paper_workload_params(scale)["W"]
    specs: List[ExperimentSpec] = []
    for intensity in FAULT_INTENSITIES:
        for watchdog in (True, False):
            plan = sweep_plan(intensity, watchdog=watchdog)
            specs.append(ExperimentSpec(
                program="W", program_kwargs=wkw, cfg=cfg,
                faults=plan.to_dict(),
                label=f"faultsweep:i={intensity}:"
                      f"wd={'on' if watchdog else 'off'}"))
    results = _execute(specs, runner)

    fig = FigureResult(
        "faultsweep",
        "Hardware fault injection: metering error vs intensity")
    errors_on: List[float] = []
    errors_off: List[float] = []
    pairs = list(zip(results[::2], results[1::2]))
    for intensity, (on, off) in zip(FAULT_INTENSITIES, pairs):
        label = f"intensity={intensity}"
        fig.results[f"{label}:wd-on"] = on
        fig.results[f"{label}:wd-off"] = off
        errors_on.append(abs(on.total_s - on.oracle_own_s()))
        errors_off.append(abs(off.total_s - off.oracle_own_s()))
        fig.series.append((label, _bar("watchdog on", on),
                           _bar("watchdog off", off)))

    top = pairs[-1][0]
    uncertainty_top_s = top.stats.get("watchdog_uncertainty_ns", 0) / 1e9
    fig.meta = {
        "intensities": list(FAULT_INTENSITIES),
        "error_watchdog_on_s": [round(e, 6) for e in errors_on],
        "error_watchdog_off_s": [round(e, 6) for e in errors_off],
        "oracle_s": [round(r.oracle_own_s(), 6) for r in results[::2]],
        "uncertainty_top_s": uncertainty_top_s,
    }

    zero_on, zero_off = pairs[0]
    fig.checks.append(Check(
        "zero intensity: watchdog toggle changes nothing",
        zero_on.to_dict() == zero_off.to_dict(),
        f"on={zero_on.total_s:.3f}s off={zero_off.total_s:.3f}s"))
    fig.checks.append(Check(
        "watchdog strictly reduces metering error at every nonzero "
        "intensity",
        all(on < off for on, off in zip(errors_on[1:], errors_off[1:])),
        f"on={['%.4f' % e for e in errors_on[1:]]} "
        f"off={['%.4f' % e for e in errors_off[1:]]}"))
    fig.checks.append(Check(
        "unwatched meter's error grows with fault intensity",
        errors_off[-1] > max(errors_off[0], 0.02)
        and errors_off[-1] >= errors_off[1],
        f"off={['%.4f' % e for e in errors_off]}"))
    degraded = top.stats.get("watchdog_intervals_degraded", 0)
    untrusted = top.stats.get("watchdog_intervals_untrusted", 0)
    fig.checks.append(Check(
        "watchdog grades intervals DEGRADED/UNTRUSTED at the top "
        "intensity",
        degraded + untrusted > 0 and uncertainty_top_s > 0,
        f"degraded={degraded} untrusted={untrusted} "
        f"uncertainty={uncertainty_top_s:.3f}s"))
    fig.checks.append(Check(
        "heavy TSC drift marks the clocksource unstable within two "
        "check windows",
        top.stats.get("watchdog_unstable", 0) == 1
        and top.stats.get("watchdog_flagged_at_jiffy", 10**9) <= 16,
        f"unstable={top.stats.get('watchdog_unstable')} "
        f"flagged_at_jiffy={top.stats.get('watchdog_flagged_at_jiffy')}"))
    fig.checks.append(Check(
        "watched meter's error within its declared uncertainty bound",
        errors_on[-1] <= uncertainty_top_s + max(2 * errors_on[0], 0.02),
        f"err={errors_on[-1]:.4f}s bound={uncertainty_top_s:.3f}s"))
    return fig


#: Injected clock offsets (ns) swept by the timesync figure.
SYNC_OFFSETS: Tuple[int, ...] = (0, 2_000_000, 5_000_000, 10_000_000)


def _sync_error_s(res) -> float:
    """Cross-host billing error: the bill is stamped end-on-local-clock,
    so it absorbs the run's terminal sync skew (already corrected by the
    estimator when the defense was on)."""
    skew_ns = res.stats.get("timesync_billed_skew_ns", 0)
    return abs(res.total_s + skew_ns / 1e9 - res.oracle_own_s())


def figure_timesync(scale: float = 1.0,
                    cfg: Optional[MachineConfig] = None,
                    runner: Optional[BatchRunner] = None) -> FigureResult:
    """Cross-host billing error vs injected clock offset, defense on/off.

    The network-time analogue of ``faultsweep``: a delay-asymmetry attack
    (``sweep_timesync``; docs/timesync.md) biases every PTP offset
    estimate, the victim's servo faithfully steers its clock off true
    time, and a meter that stamps job boundaries across hosts mis-bills
    by exactly the terminal skew.  With the guest-side offset estimator
    armed, servo activity beyond the honest-oscillator envelope is
    clipped out of the bill and the residual stays inside the declared
    uncertainty; without it the error grows linearly with the injected
    offset — silently, with a TRUSTED invoice.
    """
    from ..timesync import sweep_timesync

    wkw = paper_workload_params(scale)["W"]
    specs: List[ExperimentSpec] = []
    for offset_ns in SYNC_OFFSETS:
        for defense in (True, False):
            sync = sweep_timesync(offset_ns, defense=defense, scale=scale)
            specs.append(ExperimentSpec(
                program="W", program_kwargs=wkw, cfg=cfg,
                timesync=sync.to_dict(),
                label=f"timesync:off={offset_ns}:"
                      f"def={'on' if defense else 'off'}"))
    results = _execute(specs, runner)

    fig = FigureResult(
        "timesync",
        "Time-plane attack: cross-host billing error vs injected offset")
    errors_on: List[float] = []
    errors_off: List[float] = []
    pairs = list(zip(results[::2], results[1::2]))
    for offset_ns, (on, off) in zip(SYNC_OFFSETS, pairs):
        label = f"offset={offset_ns / 1e6:g}ms"
        fig.results[f"{label}:defense-on"] = on
        fig.results[f"{label}:defense-off"] = off
        errors_on.append(_sync_error_s(on))
        errors_off.append(_sync_error_s(off))
        fig.series.append((label, _bar("defense on", on),
                           _bar("defense off", off)))

    top_on = pairs[-1][0]
    uncertainty_top_s = top_on.stats.get("timesync_uncertainty_ns", 0) / 1e9
    fig.meta = {
        "offsets_ns": list(SYNC_OFFSETS),
        "error_defense_on_s": [round(e, 6) for e in errors_on],
        "error_defense_off_s": [round(e, 6) for e in errors_off],
        "oracle_s": [round(r.oracle_own_s(), 6) for r in results[::2]],
        "terminal_offset_ns": [r.stats.get("timesync_offset_ns", 0)
                               for r in results[1::2]],
        "uncertainty_top_s": uncertainty_top_s,
    }

    zero_on, zero_off = pairs[0]
    fig.checks.append(Check(
        "zero offset: defense toggle leaves the bill unchanged",
        zero_on.stats.get("timesync_billed_skew_ns")
        == zero_off.stats.get("timesync_billed_skew_ns")
        and abs(_sync_error_s(zero_on) - _sync_error_s(zero_off)) < 1e-9,
        f"on={_sync_error_s(zero_on):.6f}s "
        f"off={_sync_error_s(zero_off):.6f}s"))
    fig.checks.append(Check(
        "defense strictly reduces billing error at every nonzero offset",
        all(on < off for on, off in zip(errors_on[1:], errors_off[1:])),
        f"on={['%.4f' % e for e in errors_on[1:]]} "
        f"off={['%.4f' % e for e in errors_off[1:]]}"))
    fig.checks.append(Check(
        "undefended error grows with the injected offset",
        all(a < b for a, b in zip(errors_off[1:], errors_off[2:]))
        and errors_off[-1] > errors_off[0] + 0.005,
        f"off={['%.4f' % e for e in errors_off]}"))
    terminal = pairs[-1][1].stats.get("timesync_offset_ns", 0)
    target = -SYNC_OFFSETS[-1]  # asymmetry steers the clock *behind*
    fig.checks.append(Check(
        "servo converges onto the attacker's target offset",
        abs(terminal - target) <= abs(target) * 0.05 + 200_000,
        f"terminal={terminal}ns target={target}ns"))
    degraded = top_on.stats.get("timesync_degraded", 0)
    untrusted = top_on.stats.get("timesync_untrusted", 0)
    fig.checks.append(Check(
        "estimator grades rounds DEGRADED/UNTRUSTED at the top offset",
        degraded + untrusted > 0 and uncertainty_top_s > 0,
        f"degraded={degraded} untrusted={untrusted} "
        f"uncertainty={uncertainty_top_s:.6f}s"))
    fig.checks.append(Check(
        "defended error within the declared uncertainty bound",
        errors_on[-1] <= uncertainty_top_s + max(2 * errors_on[0], 0.02),
        f"err={errors_on[-1]:.4f}s bound={uncertainty_top_s:.6f}s"))
    silent = pairs[-1][1].stats
    fig.checks.append(Check(
        "undefended run carries no trust downgrade (the silent lie)",
        "timesync_untrusted" not in silent
        and "timesync_uncertainty_ns" not in silent,
        "defense-off stats expose no estimator grades"))
    return fig


#: Attacker co-residency rates swept by the fleet figure.
FLEET_PREVALENCES: Tuple[float, ...] = (0.0, 0.2, 0.5)

#: Hosts per fleet point — small enough for a smoke run, large enough
#: that every mix stratum is populated.
FLEET_HOSTS = 12


def figure_fleet(scale: float = 1.0,
                 cfg: Optional[MachineConfig] = None,
                 runner: Optional[BatchRunner] = None) -> FigureResult:
    """Billing-error distribution vs attacker co-residency, fleet-wide.

    Datacenter view of the paper's per-host attacks: the same seeded
    population of hosts is swept across attacker-prevalence rates, and the
    streaming fleet aggregator reports the per-guest billing-error
    percentiles with the tenant steal-audit's detection/false-positive
    rates overlaid.  The honest population under-bills slightly (tick
    quantisation); the attacked population's error tail grows with
    prevalence; the audit flags overbilled co-residents of tick-dodging
    VM attackers and never flags an honest guest.  One point is re-run
    serially and must reproduce the sharded aggregate bit for bit
    (``cfg`` is ignored — fleet hosts always boot the default machine).
    """
    import json as _json

    from ..fleet import FleetSpec, run_fleet

    del cfg
    fleet_scale = max(0.02, 0.25 * scale)

    def fleet_at(prevalence: float) -> FleetSpec:
        return FleetSpec(hosts=FLEET_HOSTS, guests=2,
                         prevalence=prevalence, seed=2010,
                         scale=fleet_scale)

    reports = []
    for prevalence in FLEET_PREVALENCES:
        aggregator = run_fleet(fleet_at(prevalence), runner=runner)
        reports.append(aggregator.report())

    fig = FigureResult(
        "fleet",
        "Fleet sweep: billing error vs attacker co-residency")
    p99s: List[float] = []
    detections: List[Optional[float]] = []
    fps: List[Optional[float]] = []
    for prevalence, report in zip(FLEET_PREVALENCES, reports):
        label = f"prevalence={prevalence}"
        errors = report["billing_error"]["all"]
        audit = report["audit"]
        p99s.append(errors["p99"])
        detections.append(audit["detection_rate"])
        fps.append(audit["false_positive_rate"])
        fig.series.append((
            label,
            Bar("billed", report["billed_total_ns"] / 1e9, 0.0),
            Bar("honestly ran", report["ran_total_ns"] / 1e9, 0.0)))
    fig.meta = {
        "prevalences": list(FLEET_PREVALENCES),
        "hosts": FLEET_HOSTS,
        "population": reports[0]["population"],
        "distinct_runs": [r["distinct_runs"] for r in reports],
        "error_p50": [r["billing_error"]["all"]["p50"] for r in reports],
        "error_p99": p99s,
        "detection_rate": detections,
        "false_positive_rate": fps,
        "trust_mix": [r["trust_mix"] for r in reports],
    }

    honest = reports[0]
    fig.checks.append(Check(
        "attacker-free fleet: no guest flagged, bill tracks the oracle",
        honest["verdicts"]["overbilled"] == 0
        and honest["verdicts"]["misreported"] == 0
        and honest["billed_total_ns"] <= honest["ran_total_ns"],
        f"verdicts={honest['verdicts']} "
        f"billed={honest['billed_total_ns'] / 1e9:.3f}s "
        f"ran={honest['ran_total_ns'] / 1e9:.3f}s"))
    fig.checks.append(Check(
        "p99 billing error grows with attacker prevalence",
        all(a <= b for a, b in zip(p99s, p99s[1:]))
        and p99s[-1] > p99s[0] + 0.5,
        f"p99={['%.3f' % p for p in p99s]}"))
    nonzero = [d for d in detections[1:] if d is not None]
    fig.checks.append(Check(
        "steal audit detects overbilled co-residents at every nonzero "
        "prevalence",
        bool(nonzero) and all(d > 0.25 for d in nonzero),
        f"detection={detections}"))
    fig.checks.append(Check(
        "steal audit never flags an honest guest",
        all(fp == 0.0 for fp in fps if fp is not None),
        f"false_positive={fps}"))
    fig.checks.append(Check(
        "attacked tenants overbilled fleet-wide at the top prevalence",
        reports[-1]["overbilled_total_ns"] > 0
        and reports[-1]["billing_error"]["attacked"]["p90"]
        > reports[-1]["billing_error"]["honest"]["p90"],
        f"overbilled={reports[-1]['overbilled_total_ns'] / 1e9:+.3f}s"))
    serial = run_fleet(fleet_at(FLEET_PREVALENCES[1])).report()
    fig.checks.append(Check(
        "sharded aggregate reproduces the serial reference bit for bit",
        _json.dumps(reports[1], sort_keys=True)
        == _json.dumps(serial, sort_keys=True),
        f"fleet_key={serial['fleet_key'][:16]}…"))
    return fig


#: fig id → generator.
FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "fig11": figure11,
    "vmsched": figure_vm_sched,
    "faultsweep": figure_faultsweep,
    "smp": figure_smp,
    "fleet": figure_fleet,
    "timesync": figure_timesync,
}


def run_figure(fig_id: str, scale: float = 1.0,
               cfg: Optional[MachineConfig] = None,
               runner: Optional[BatchRunner] = None) -> FigureResult:
    try:
        generator = FIGURES[fig_id]
    except KeyError:
        raise KeyError(f"unknown figure {fig_id!r}; have {sorted(FIGURES)}")
    return generator(scale=scale, cfg=cfg, runner=runner)


#: Values eyeballed from the published figures, for context only (seconds).
#: Never used in checks — the reproduction matches shape, not absolutes.
PAPER_REFERENCE: Dict[str, Dict[str, object]] = {
    "fig4": {"growth_all_programs_s": 34,
             "note": "utime +~34 s for O/P/W/B; stime unchanged"},
    "fig5": {"growth_all_programs_s": 34,
             "note": "near-identical to Fig. 4"},
    "fig6": {"note": "amplified growth, proportional to call counts"},
    "fig7": {"W_normal_s": 150, "W_at_nice_minus20_s": 400,
             "note": "sum W+Fork ~constant; monotone in priority"},
    "fig8": {"note": "ineffective on multi-threaded Brute"},
    "fig9": {"note": "mostly system-time growth, ordered by hit count"},
    "fig10": {"note": "slight stime increase only"},
    "fig11": {"note": "moderate stime increase; capped by OOM"},
    "vmsched": {"note": "VM analogue, not a paper figure: Zhou et al. "
                        "(arXiv:1103.0759) report an attacker consuming "
                        "up to ~98% of a core while Xen bills it ~nothing; "
                        "co-residents absorb the sampled ticks"},
    "smp": {"note": "SMP figure, not from the paper: per-CPU staggered "
                    "ticks sample only the local CPU's current task, so "
                    "a migrating attacker dodges every sample; the paper's "
                    "single-CPU tick-dodging flaw (§IV-B1) scales out "
                    "with the core count (docs/smp.md)"},
    "faultsweep": {"note": "robustness figure, not from the paper: "
                           "tick-sampled accounting (§III-A) depends on a "
                           "sound timer/TSC; this sweeps injected hardware "
                           "faults and shows the clocksource watchdog "
                           "holding metering error down vs an unwatched "
                           "kernel (docs/faults.md)"},
    "timesync": {"note": "network-time figure, not from the paper: "
                         "metering trusts the host clock, and the host "
                         "clock trusts the sync daemon — a delay-asymmetry "
                         "attack (cf. Breaking Precision Time, PAPERS.md) "
                         "steers it arbitrarily far while every packet "
                         "looks honest; the platform-agnostic guest "
                         "estimator bounds the damage (docs/timesync.md)"},
    "fleet": {"note": "population figure, not from the paper: the §IV "
                      "attacks at datacenter scale — a seeded fleet of "
                      "hosts swept over attacker co-residency rates, "
                      "aggregated streamingly into billing-error "
                      "percentile sketches with the tenant steal-audit "
                      "detection rate overlaid (docs/fleet.md)"},
}
