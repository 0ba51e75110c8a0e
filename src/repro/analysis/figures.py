"""Regeneration of the paper's evaluation figures (Figs. 4-11).

Workloads are scaled to ~1/200 of the paper's run lengths (DESIGN.md §2);
every check is on *shape* — who gets inflated, utime vs stime, ordering
across programs, monotonicity in nice, sum conservation — never absolute
seconds.  ``PAPER_REFERENCE`` records values eyeballed from the published
figures for side-by-side context in EXPERIMENTS.md; they are approximate by
nature.

Each figure is declared as data (:class:`Figure`): the grid of points it
needs and a build from their results to bars and checks.
:func:`run_figures` runs the union of the grids it is asked for, each
distinct point once, then builds every figure from the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, Hashable, List,
                    Mapping, Optional, Sequence, Tuple)

from ..checks import Check, CheckList
from ..config import MachineConfig, default_config
from ..programs.base import Program
from ..programs.workloads import make_paper_program, watched_variable
from ..runner.specs import ExperimentSpec, run_spec, spec_key
from .experiment import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - typing only (serial runs: no pool)
    from ..runner.pool import BatchRunner

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
class FigureResult:
    """A regenerated figure: bars/series plus shape checks."""

    fig_id: str
    title: str
    #: For the per-program figures: program → (normal bar, attacked bar).
    pairs: Dict[str, Tuple[Bar, Bar]] = field(default_factory=dict)
    #: For the sweep figures: label → (victim bar, attacker bar).
    series: List[Tuple[str, Bar, Bar]] = field(default_factory=list)
    checks: CheckList = field(default_factory=CheckList)
    meta: Dict[str, object] = field(default_factory=dict)
    results: Dict[str, ExperimentResult] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.checks.passed

    def failed_checks(self) -> List[Check]:
        return [c for c in self.checks if not c.passed]


#: A figure's points: result key → the spec that produces it.
Grid = Dict[str, ExperimentSpec]


@dataclass(frozen=True)
class Figure:
    """A figure declared as data.

    ``grid(fig_id, scale, cfg)`` returns the points the figure needs; its
    keys become :attr:`FigureResult.results`.  ``build(fig, scale, cfg,
    runner)`` turns those results into bars, checks and meta.  Calling a
    figure regenerates it alone (:func:`run_figures` with one id).
    """

    fig_id: str
    title: str
    grid: Callable[[str, float, Optional[MachineConfig]], Grid]
    build: Callable[..., None]

    def __call__(self, scale: float = 1.0,
                 cfg: Optional[MachineConfig] = None,
                 runner: Optional[BatchRunner] = None) -> FigureResult:
        return run_figures([self.fig_id], scale, cfg, runner)[self.fig_id]


def run_points(points: Mapping[Hashable, ExperimentSpec],
               runner: Optional[BatchRunner] = None
               ) -> Dict[Hashable, ExperimentResult]:
    """Run ``points`` and return their results under the same names.

    Each distinct :func:`spec_key` runs once; points that share it share
    its result.  Absent a runner the points run serially in process through
    this module's ``run_spec`` binding (looked up at call time, so a patched
    binding takes effect), otherwise through ``runner.run_results``.  The
    two paths are equivalent (tests/test_runner_equivalence.py).
    """
    keys = {name: spec_key(spec) for name, spec in points.items()}
    distinct: Dict[str, ExperimentSpec] = {}
    for name, key in keys.items():
        distinct.setdefault(key, points[name])
    if runner is None:
        done = {key: run_spec(spec) for key, spec in distinct.items()}
    else:
        done = dict(zip(distinct,
                        runner.run_results(list(distinct.values()))))
    return {name: done[key] for name, key in keys.items()}


def run_figures(fig_ids: Sequence[str], scale: float = 1.0,
                cfg: Optional[MachineConfig] = None,
                runner: Optional[BatchRunner] = None
                ) -> Dict[str, FigureResult]:
    """Regenerate ``fig_ids`` from one run of the union of their grids,
    so a point several figures share runs once."""
    unknown = [fig_id for fig_id in fig_ids if fig_id not in FIGURES]
    if unknown:
        raise KeyError(
            f"unknown figure {unknown[0]!r}; have {sorted(FIGURES)}")
    figures = [FIGURES[fig_id] for fig_id in fig_ids]
    grids = {figure.fig_id: figure.grid(figure.fig_id, scale, cfg)
             for figure in figures}
    results = run_points({(fig_id, key): spec
                          for fig_id, grid in grids.items()
                          for key, spec in grid.items()}, runner)
    out: Dict[str, FigureResult] = {}
    for figure in figures:
        fig = FigureResult(figure.fig_id, figure.title, results={
            key: results[figure.fig_id, key]
            for key in grids[figure.fig_id]})
        figure.build(fig, scale, cfg, runner)
        out[figure.fig_id] = fig
    return out


def run_figure(fig_id: str, scale: float = 1.0,
               cfg: Optional[MachineConfig] = None,
               runner: Optional[BatchRunner] = None) -> FigureResult:
    return run_figures([fig_id], scale, cfg, runner)[fig_id]


def _bar(label: str, res: ExperimentResult) -> Bar:
    return Bar(label, res.utime_s, res.stime_s)


def billed_s(res: ExperimentResult) -> float:
    """The bill of a meter that stamps job boundaries on the local clock:
    it absorbs the run's terminal sync skew (zero without a sync plane;
    already corrected by the estimator when the defense was on)."""
    return res.total_s + res.stats.get("timesync_billed_skew_ns", 0) / 1e9


def billing_error_s(res: ExperimentResult) -> float:
    """How far :func:`billed_s` is from the run's ground truth."""
    return abs(billed_s(res) - res.oracle_own_s())


def _pair_grid(attack_for: Callable[[str], Tuple[str, Dict[str, Any]]],
               default_cfg: Optional[Callable[[], MachineConfig]] = None
               ) -> Callable[..., Grid]:
    """The per-program figures' grid: each paper program normal and under
    ``attack_for(program)``, an (attack name, kwargs) pair, on
    ``default_cfg()`` when no machine is given."""

    def grid(fig_id: str, scale: float,
             cfg: Optional[MachineConfig]) -> Grid:
        if cfg is None and default_cfg is not None:
            cfg = default_cfg()
        points: Grid = {}
        for name, kwargs in paper_workload_params(scale).items():
            attack_name, attack_kwargs = attack_for(name)
            points[f"{name}:normal"] = ExperimentSpec(
                program=name, program_kwargs=kwargs, cfg=cfg,
                label=f"{fig_id}:{name}:normal")
            points[f"{name}:attacked"] = ExperimentSpec(
                program=name, program_kwargs=kwargs,
                attack=attack_name, attack_kwargs=attack_kwargs, cfg=cfg,
                label=f"{fig_id}:{name}:attacked")
        return points

    return grid


def _pair_bars(fig: FigureResult) -> None:
    """Fill ``fig.pairs`` from a pair grid's results."""
    for key, normal in fig.results.items():
        name, _, kind = key.partition(":")
        if kind == "normal":
            fig.pairs[name] = (_bar("normal", normal), _bar(
                "attacked", fig.results[f"{name}:attacked"]))


# ---------------------------------------------------------------------------
# the figures: each build adds its shape checks
# ---------------------------------------------------------------------------

def _build_launch(fig: FigureResult, scale: float,
                  cfg: Optional[MachineConfig], runner) -> None:
    """Figs. 4/5, the launch-time attacks: utime grows by ~the payload for
    every program; stime unaffected."""
    _pair_bars(fig)
    payload_s = LAUNCH_PAYLOAD_CYCLES / (cfg or default_config()).cpu_freq_hz
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
    spread = max(deltas) - min(deltas)
    fig.checks.append(Check(
        "equal growth across programs",
        spread <= 0.35 * max(deltas),
        f"deltas={['%.3f' % d for d in deltas]}"))
    fig.meta["payload_seconds"] = payload_s


def _build_fig6(fig: FigureResult, *_) -> None:
    """Fig. 6: the function-substitution attack (fake malloc/sqrt).

    Inflation is proportional to each program's call count into the
    interposed functions — the amplification the paper highlights.
    """
    _pair_bars(fig)
    for name, (normal, attacked) in fig.pairs.items():
        grew = attacked.utime_s - normal.utime_s
        fig.checks.append(Check(
            f"{name}: utime inflated",
            grew >= 0.03 * max(normal.total_s, 1e-9),
            f"utime: {normal.utime_s:.3f} -> {attacked.utime_s:.3f} "
            f"(+{grew:.3f})"))
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


def _sched_grid(victim: str) -> Callable[..., Grid]:
    """Figs. 7/8: "no attack" — victim and Fork each run alone (the
    leftmost bar pair) — then the nice sweep."""

    def grid(fig_id: str, scale: float,
             cfg: Optional[MachineConfig]) -> Grid:
        forks = max(1, int(SCHED_FORKS * scale))
        victim_kwargs = paper_workload_params(scale)[victim]
        points = {
            "baseline": ExperimentSpec(
                program=victim, program_kwargs=victim_kwargs, cfg=cfg,
                label=f"{fig_id}:baseline"),
            "fork-alone": ExperimentSpec(
                program="fork", program_kwargs={"forks": forks}, cfg=cfg,
                label=f"{fig_id}:fork-alone"),
        }
        for nice in NICE_SWEEP:
            points[f"nice {nice}"] = ExperimentSpec(
                program=victim, program_kwargs=victim_kwargs,
                attack="scheduling",
                attack_kwargs={"nice": nice, "forks": forks},
                cfg=cfg, label=f"{fig_id}:nice {nice}")
        return points

    return grid


def _sched_series(fig: FigureResult, victim: str) -> None:
    alone = fig.results["fork-alone"]
    # Fork's bar includes its reaped children, as time(1) would report.
    cutime = (alone.rusage or {}).get("cutime_ns", 0) / 1e9
    cstime = (alone.rusage or {}).get("cstime_ns", 0) / 1e9
    fig.series.append(("no attack",
                       _bar(victim, fig.results["baseline"]),
                       Bar("Fork", alone.utime_s + cutime,
                           alone.stime_s + cstime)))
    for label, res in list(fig.results.items())[2:]:
        atk = res.attacker_usage
        fig.series.append((label,
                           _bar(victim, res),
                           Bar("Fork", atk.utime_seconds, atk.stime_seconds)))


def _build_fig7(fig: FigureResult, *_) -> None:
    """Fig. 7: the process-scheduling attack on Whetstone.

    Expected shape: W's billed time rises monotonically as the attacker's
    priority rises, the Fork program's falls, and W+Fork stays roughly
    constant (the miscounted time moves between accounts).
    """
    _sched_series(fig, "W")
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


def _build_fig8(fig: FigureResult, *_) -> None:
    """Fig. 8: the scheduling attack on Brute — ineffective on the
    multi-threaded victim."""
    _sched_series(fig, "B")
    baseline = fig.series[0][1].total_s
    victim_totals = [v.total_s for _label, v, _f in fig.series[1:]]
    worst_rel = max(victim_totals) / baseline if baseline else 1.0
    fig.checks.append(Check(
        "attack ineffective on the multi-threaded victim",
        worst_rel <= 1.30,
        f"baseline={baseline:.3f} worst={max(victim_totals):.3f} "
        f"(x{worst_rel:.2f})"))
    fig.meta["worst_relative_inflation"] = worst_rel


def _build_fig9(fig: FigureResult, *_) -> None:
    """Fig. 9: the execution-thrashing attack — mostly stime growth."""
    _pair_bars(fig)
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


def _build_fig10(fig: FigureResult, *_) -> None:
    """Fig. 10: the interrupt-flooding attack — slight stime increase."""
    _pair_bars(fig)
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


def fig11_config() -> MachineConfig:
    """Machine for the exception flood: scaled-down RAM so the hog's
    eviction sweep period relates to the victims' run lengths the way the
    paper's 2 GiB does to its ~minutes-long runs."""
    from ..config import MemoryConfig

    return default_config(memory=MemoryConfig(
        ram_bytes=16 * 1024 * 1024, swap_bytes=128 * 1024 * 1024))


def _build_fig11(fig: FigureResult, *_) -> None:
    """Fig. 11: the exception-flooding attack — stime up from direct
    reclaim, fault handling and swap-I/O completions."""
    _pair_bars(fig)
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


#: Burn fractions swept by the VM scheduling figure.
VM_BURN_FRACTIONS: Tuple[float, ...] = (0.25, 0.5, 0.75, 0.9)


def _vmsched_grid(fig_id: str, scale: float,
                  cfg: Optional[MachineConfig]) -> Grid:
    wkw = paper_workload_params(scale)["W"]
    points = {"baseline": ExperimentSpec(
        program="W", program_kwargs=wkw, attack=None, vm={}, cfg=cfg,
        label="vm:W:none")}
    for fraction in VM_BURN_FRACTIONS:
        points[f"burn={fraction}"] = ExperimentSpec(
            program="W", program_kwargs=wkw, attack="vm-sched",
            attack_kwargs={"burn_fraction": fraction}, vm={}, cfg=cfg,
            label=f"vm:W:burn={fraction}")
    return points


def _build_vmsched(fig: FigureResult, *_) -> None:
    """VM-level analogue of Fig. 7: the hypervisor scheduling attack.

    A victim VM runs Whetstone while a co-resident attacker VM burns a
    rising fraction of each hypervisor accounting tick and sleeps across
    the sampling edge (Zhou et al., arXiv:1103.0759).  Expected shape: the
    victim's *billed* CPU inflates monotonically with the attacker's burn
    fraction while its actually-ran time stays flat, the attacker's bill
    stays pinned near zero however much it burns, and the victim's
    guest-side steal estimator measures the loss the host reports.
    """
    from ..metering.steal import StealVerdict, audit_vm_result
    from ..virt.hypervisor import HypervisorConfig

    tick_ns = HypervisorConfig().tick_ns  # vm={} keeps the default
    results = list(fig.results.values())
    baseline = results[0]
    fig.series.append(("no attack", _bar("victim", baseline),
                       Bar("attacker", 0.0, 0.0)))
    for label, res in list(fig.results.items())[1:]:
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
    audits = [audit_vm_result(r) for r in results[1:]]
    fig.checks.append(Check(
        "tenant audit flags overbilling at the top fraction, never a "
        "misreported steal clock",
        audits[-1].verdict is StealVerdict.OVERBILLED
        and all(a.verdict is not StealVerdict.MISREPORTED for a in audits),
        f"verdicts={[a.verdict.value for a in audits]}"))


#: CPU counts swept by the SMP figure.
SMP_NPROCS: Tuple[int, ...] = (1, 2, 4)

#: Work the dodger performs at every sweep point (~0.2 s at 2.53 GHz).
SMP_DODGE_CYCLES = 506_000_000


def _smp_grid(fig_id: str, scale: float,
              cfg: Optional[MachineConfig]) -> Grid:
    wkw = paper_workload_params(scale)["O"]
    return {f"nproc={nproc}": ExperimentSpec(
        program="O", program_kwargs=wkw, attack="smp-dodge",
        attack_kwargs={"total_cycles": SMP_DODGE_CYCLES},
        cfg=cfg, nproc=nproc, label=f"smp:O:nproc={nproc}")
        for nproc in SMP_NPROCS}


def _build_smp(fig: FigureResult, scale: float,
               cfg: Optional[MachineConfig], runner) -> None:
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
    nominal_ns = (SMP_DODGE_CYCLES * 1_000_000_000
                  // (cfg or default_config()).cpu_freq_hz)
    results = list(fig.results.values())
    errors: List[float] = []
    for label, res in fig.results.items():
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


#: Fault intensities swept by the faultsweep figure.
FAULT_INTENSITIES: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)


def _faultsweep_grid(fig_id: str, scale: float,
                     cfg: Optional[MachineConfig]) -> Grid:
    from ..faults import sweep_plan

    wkw = paper_workload_params(scale)["W"]
    points: Grid = {}
    for intensity in FAULT_INTENSITIES:
        for watchdog in ("on", "off"):
            plan = sweep_plan(intensity, watchdog=watchdog == "on")
            points[f"intensity={intensity}:wd-{watchdog}"] = ExperimentSpec(
                program="W", program_kwargs=wkw, cfg=cfg,
                faults=plan.to_dict(),
                label=f"faultsweep:i={intensity}:wd={watchdog}")
    return points


def _build_faultsweep(fig: FigureResult, scale: float,
                      cfg: Optional[MachineConfig], _runner) -> None:
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
    results = list(fig.results.values())
    pairs = list(zip(results[::2], results[1::2]))
    errors_on = [billing_error_s(on) for on, _off in pairs]
    errors_off = [billing_error_s(off) for _on, off in pairs]
    for intensity, (on, off) in zip(FAULT_INTENSITIES, pairs):
        fig.series.append((f"intensity={intensity}", _bar("watchdog on", on),
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

    # With no faults the watchdog toggle drops out of the plan, so both
    # zero-intensity legs are one point, run once.
    zero = f"intensity={FAULT_INTENSITIES[0]}"
    grid = _faultsweep_grid(fig.fig_id, scale, cfg)
    key_on = spec_key(grid[f"{zero}:wd-on"])
    key_off = spec_key(grid[f"{zero}:wd-off"])
    fig.checks.append(Check(
        "zero intensity: watchdog on and off hash to one spec key",
        key_on == key_off,
        f"on={key_on[:12]} off={key_off[:12]}"))
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


#: Injected clock offsets (ns) swept by the timesync figure.
SYNC_OFFSETS: Tuple[int, ...] = (0, 2_000_000, 5_000_000, 10_000_000)


def _timesync_grid(fig_id: str, scale: float,
                   cfg: Optional[MachineConfig]) -> Grid:
    from ..timesync import sweep_timesync

    wkw = paper_workload_params(scale)["W"]
    points: Grid = {}
    for offset_ns in SYNC_OFFSETS:
        for defense in ("on", "off"):
            sync = sweep_timesync(offset_ns, defense=defense == "on",
                                  scale=scale)
            points[f"offset={offset_ns / 1e6:g}ms:defense-{defense}"] = \
                ExperimentSpec(program="W", program_kwargs=wkw, cfg=cfg,
                               timesync=sync.to_dict(),
                               label=f"timesync:off={offset_ns}:"
                                     f"def={defense}")
    return points


def _build_timesync(fig: FigureResult, *_) -> None:
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
    results = list(fig.results.values())
    pairs = list(zip(results[::2], results[1::2]))
    errors_on = [billing_error_s(on) for on, _off in pairs]
    errors_off = [billing_error_s(off) for _on, off in pairs]
    for offset_ns, (on, off) in zip(SYNC_OFFSETS, pairs):
        fig.series.append((f"offset={offset_ns / 1e6:g}ms",
                           _bar("defense on", on), _bar("defense off", off)))

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
        and abs(errors_on[0] - errors_off[0]) < 1e-9,
        f"on={errors_on[0]:.6f}s off={errors_off[0]:.6f}s"))
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


#: Attacker co-residency rates swept by the fleet figure.
FLEET_PREVALENCES: Tuple[float, ...] = (0.0, 0.2, 0.5)

#: Hosts per fleet point — small enough for a smoke run, large enough
#: that every mix stratum is populated.
FLEET_HOSTS = 12


def _build_fleet(fig: FigureResult, scale: float,
                 cfg: Optional[MachineConfig],
                 runner: Optional[BatchRunner]) -> None:
    """Billing-error distribution vs attacker co-residency, fleet-wide.

    Datacenter view of the paper's per-host attacks: the same seeded
    population of hosts is swept across attacker-prevalence rates, and the
    streaming fleet aggregator reports the per-guest billing-error
    percentiles with the tenant steal-audit's detection/false-positive
    rates overlaid.  The honest population under-bills slightly (tick
    quantisation); the attacked population's error tail grows with
    prevalence; the audit flags overbilled co-residents of tick-dodging
    VM attackers and never flags an honest guest.  One point is re-run
    serially and must reproduce the sharded aggregate bit for bit.  Each
    prevalence is a fleet sweep of its own, run through ``runner``
    (``cfg`` is ignored — fleet hosts always boot the default machine).
    """
    import json as _json

    from ..fleet import FleetSpec, run_fleet

    fleet_scale = max(0.02, 0.25 * scale)

    def fleet_at(prevalence: float) -> FleetSpec:
        return FleetSpec(hosts=FLEET_HOSTS, guests=2,
                         prevalence=prevalence, seed=2010,
                         scale=fleet_scale)

    reports = [run_fleet(fleet_at(prevalence), runner=runner).report()
               for prevalence in FLEET_PREVALENCES]
    p99s: List[float] = []
    detections: List[Optional[float]] = []
    fps: List[Optional[float]] = []
    for prevalence, report in zip(FLEET_PREVALENCES, reports):
        audit = report["audit"]
        p99s.append(report["billing_error"]["all"]["p99"])
        detections.append(audit["detection_rate"])
        fps.append(audit["false_positive_rate"])
        fig.series.append((
            f"prevalence={prevalence}",
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


#: fig id → figure.
FIGURES: Dict[str, Figure] = {figure.fig_id: figure for figure in (
    # Fig. 4: the shell attack on O, P, W, B.
    Figure("fig4", "Shell attack", _pair_grid(
        lambda name: ("shell", {"payload_cycles": LAUNCH_PAYLOAD_CYCLES})),
        _build_launch),
    # Fig. 5: the shared-library constructor attack.
    Figure("fig5", "Shared-library constructor attack", _pair_grid(
        lambda name: ("library-ctor",
                      {"payload_cycles": LAUNCH_PAYLOAD_CYCLES})),
        _build_launch),
    Figure("fig6", "Library function-substitution attack", _pair_grid(
        lambda name: ("library-subst",
                      {"symbols": ("malloc", "sqrt"),
                       "cycles_per_call": SUBST_CYCLES_PER_CALL})),
        _build_fig6),
    Figure("fig7", "Process scheduling attack on Whetstone",
           _sched_grid("W"), _build_fig7),
    Figure("fig8", "Process scheduling attack on Brute",
           _sched_grid("B"), _build_fig8),
    Figure("fig9", "Execution thrashing attack", _pair_grid(
        lambda name: ("thrashing", {"watch_symbol": watched_variable(name)})),
        _build_fig9),
    Figure("fig10", "Interrupt flooding attack", _pair_grid(
        lambda name: ("irq-flood", {"rate_pps": FLOOD_RATE_PPS})),
        _build_fig10),
    Figure("fig11", "Exception flooding attack", _pair_grid(
        lambda name: ("fault-flood", {}), default_cfg=fig11_config),
        _build_fig11),
    Figure("vmsched", "VM scheduling attack: co-resident billing inflation",
           _vmsched_grid, _build_vmsched),
    Figure("faultsweep",
           "Hardware fault injection: metering error vs intensity",
           _faultsweep_grid, _build_faultsweep),
    Figure("smp", "Cross-CPU tick dodging: billing error vs CPU count",
           _smp_grid, _build_smp),
    # Not a spec grid: each prevalence is a fleet sweep of its own.
    Figure("fleet", "Fleet sweep: billing error vs attacker co-residency",
           lambda fig_id, scale, cfg: {}, _build_fleet),
    Figure("timesync",
           "Time-plane attack: cross-host billing error vs injected offset",
           _timesync_grid, _build_timesync),
)}

figure4, figure5, figure6, figure7, figure8, figure9, figure10, figure11 = (
    FIGURES[f"fig{n}"] for n in range(4, 12))


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
