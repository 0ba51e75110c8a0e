"""The two batch workloads: ``paper-figures`` and ``fleet-sweep``.

Both run in the benchmark's own process.  A *pass* is one unit of user
work: one cold regeneration of fig4-fig11, or one fleet sweep.  Every
``run_spec`` point a pass submits is timed by a stopwatch on the runner
entry the pass calls (``submit`` samples), and each point's bill is then
read back through the invoice function the serve layer uses (``read``
samples).  The read-backs are the benchmark's own work, so a pass's
wall time leaves them out.

The host's speed drifts by up to half from one minute to the next, and
every part of a pass slows alike.  After each point the stopwatch also
times a calibration unit, fixed pure-Python work that no repro code
runs.  A pass's timings are reported at the reference host speed: each
is multiplied by :data:`CALIBRATION_REFERENCE_S` over the median
calibration time of the pass (:func:`host_speed`).

Each figure and each sweep starts from a fully collected heap, outside
the timed region.  The garbage collector's pauses then fall on the same
points whatever ran before, so the figure order a seed draws does not
move the point latencies; the pauses themselves stay in the timings.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The paper's evaluation figures, regenerated at the CLI default scale:
#: the smallest scale at which every figure's shape checks pass.
PAPER_FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                 "fig11")
FIGURE_SCALE = 0.4

#: Fleet seeds with a recorded report digest.  A run sweeps them in an
#: order rotated by its own seed, so every run covers the same fleets
#: and run-to-run spread measures the system, not the draw.
FLEET_SEEDS = (0, 1, 2, 3)

#: Median seconds one :func:`calibration_unit` takes on the reference
#: machine (2 vCPU, Python 3.11) in a fast minute.
CALIBRATION_REFERENCE_S = 5.3e-5


def calibration_unit() -> float:
    """Seconds one run of fixed pure-Python work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(1000):
        total += i * i % 7
    return time.perf_counter() - start


def host_speed(calibration_s: List[float]) -> float:
    """The host's speed relative to the reference machine's, from
    calibration samples: below 1 when the host runs slowly."""
    return CALIBRATION_REFERENCE_S / statistics.median(calibration_s)


def fleet_spec(fleet_seed: int):
    from repro.fleet import FleetSpec

    return FleetSpec(hosts=5000, guests=2, prevalence=0.2, scale=0.05,
                     seed=fleet_seed,
                     sync_mix=((0, 0.8), (2_000_000, 0.2)))


def digest(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def figures_digest(figures: Dict[str, Any]) -> str:
    """sha256 of the canonical result documents of every figure point."""
    return digest({fig_id: {key: result.to_dict()
                            for key, result in fig.results.items()}
                   for fig_id, fig in figures.items()})


def fleet_digest(report: Dict[str, Any]) -> str:
    """sha256 of a fleet report without ``fleet_key``: that key hashes the
    repro version into the spec identity, and a version bump must not
    read as a wrong answer."""
    return digest({k: v for k, v in report.items() if k != "fleet_key"})


@dataclass
class Pass:
    """What one pass of a workload measured; times are at the reference
    host speed."""

    wall_s: float
    sim_ns: int
    hosts: int
    submit_s: List[float]
    read_s: List[float]
    attempted: int
    failed: int
    checks: List[Tuple[str, bool, str]]
    digest: str
    #: the host's speed during the pass (:func:`host_speed`)
    speed: float = 1.0
    #: workload-specific exact counts (ticks, distinct runs, ...)
    counts: Dict[str, int] = field(default_factory=dict)

    def at_reference_speed(self, wall_s: float) -> "Pass":
        self.wall_s = wall_s * self.speed
        self.submit_s = [s * self.speed for s in self.submit_s]
        self.read_s = [s * self.speed for s in self.read_s]
        return self


class PointStopwatch:
    """Times every ``run_spec`` call made through one module binding, then
    reads the point's bill back through the invoice function the serve
    layer uses and times that too.  Reads are spread over the whole pass,
    like the points, rather than bunched at its end.  A calibration
    sample follows each read.  ``own_s`` is the time of this work of the
    benchmark's own, which the pass takes out of its wall time.

    Only sums are kept, not the results: holding every result alive
    would grow the heap, and with it the cost of each garbage
    collection, beyond what the program itself pays."""

    def __init__(self, module: Any) -> None:
        self.module = module
        self.submit_s: List[float] = []
        self.read_s: List[float] = []
        self.calibration_s: List[float] = []
        self.own_s = 0.0
        self.sim_ns = 0
        self.ticks = 0
        #: bills whose billed nanoseconds differ from the result's usage
        self.mismatches = 0

    def __enter__(self) -> "PointStopwatch":
        from repro.metering.billing import PER_SECOND_PLAN
        from repro.serve.service import invoice_doc_for

        inner = self.module.run_spec
        perf = time.perf_counter

        def timed(spec):
            start = perf()
            result = inner(spec)
            read = perf()
            invoice = invoice_doc_for(spec.name, result.to_dict(),
                                      PER_SECOND_PLAN)
            end = perf()
            self.submit_s.append(read - start)
            self.read_s.append(end - read)
            self.sim_ns += result.wall_ns
            self.ticks += result.stats.get("ticks", 0)
            if invoice["billed_ns"] != result.usage.total_ns:
                self.mismatches += 1
            self.calibration_s.append(calibration_unit())
            self.own_s += perf() - read
            return result

        self._inner = inner
        self.module.run_spec = timed
        return self

    def __exit__(self, *exc: Any) -> None:
        self.module.run_spec = self._inner


def figures_pass(order: List[str], reference: Optional[str],
                 wrap_figure: Callable[[str, Callable], Callable]
                 = lambda fig_id, fn: fn) -> Pass:
    """Regenerate ``order`` serially, in process, with no cache and no
    runner, then check every shape check and, unless ``reference`` is
    None, the result digest."""
    import repro.analysis.figures as figures_mod

    figures: Dict[str, Any] = {}
    wall = 0.0
    with PointStopwatch(figures_mod) as watch:
        for fig_id in order:
            generate = wrap_figure(fig_id, figures_mod.FIGURES[fig_id])
            gc.collect()
            start = time.perf_counter()
            figures[fig_id] = generate(scale=FIGURE_SCALE, runner=None)
            wall += time.perf_counter() - start
    wall -= watch.own_s
    checks = [(f"{fig_id}: {check.name}", check.passed, check.detail)
              for fig_id in sorted(figures)
              for check in figures[fig_id].checks]
    got = figures_digest(figures)
    if reference is not None:
        checks.append(("result digest equals the recorded scale-0.4 digest",
                       got == reference, got))
    checks.append(("every bill read back equals its result's usage",
                   watch.mismatches == 0, f"{watch.mismatches} mismatches"))
    points = len(watch.submit_s)
    return Pass(
        wall_s=wall,
        sim_ns=watch.sim_ns,
        hosts=points,
        submit_s=watch.submit_s, read_s=watch.read_s,
        attempted=points + len(watch.read_s), failed=0,
        checks=checks, digest=got,
        speed=host_speed(watch.calibration_s),
        counts={"points": points, "ticks": watch.ticks}
    ).at_reference_speed(wall)


def figure_order(seed: int) -> List[str]:
    order = list(PAPER_FIGURES)
    random.Random(seed).shuffle(order)
    return order


def fleet_pass(fleet_seed: int, reference: str) -> Pass:
    """One serial, uncached sweep, then its coverage and digest checks."""
    import repro.runner.pool as pool
    from repro.fleet import run_fleet

    fleet = fleet_spec(fleet_seed)
    gc.collect()
    with PointStopwatch(pool) as watch:
        start = time.perf_counter()
        report = run_fleet(fleet, jobs=1, cache=None).report()
        wall = time.perf_counter() - start - watch.own_s
    got = fleet_digest(report)
    population = fleet.hosts * fleet.guests
    checks = [
        ("no failed runs", report["failed_runs"] == 0,
         f"failed_runs={report['failed_runs']}"),
        ("the whole population is covered and audited",
         report["population"] == population
         and report["audited_weight"] == population
         and "population_covered" not in report,
         f"population={report['population']} "
         f"audited={report['audited_weight']}"),
        (f"report digest equals the one recorded for fleet seed "
         f"{fleet_seed}", got == reference, got),
        ("every bill read back equals its result's usage",
         watch.mismatches == 0, f"{watch.mismatches} mismatches"),
    ]
    points = len(watch.submit_s)
    return Pass(
        wall_s=wall,
        sim_ns=watch.sim_ns,
        hosts=fleet.hosts,
        submit_s=watch.submit_s, read_s=watch.read_s,
        attempted=points + len(watch.read_s),
        failed=report["failed_runs"],
        checks=checks, digest=got,
        speed=host_speed(watch.calibration_s),
        counts={"points": points,
                "distinct_runs": report["distinct_runs"],
                "population": population}
    ).at_reference_speed(wall)


def fleet_order(seed: int, passes: int) -> List[int]:
    start = seed % len(FLEET_SEEDS)
    rotated = FLEET_SEEDS[start:] + FLEET_SEEDS[:start]
    return [rotated[i % len(rotated)] for i in range(passes)]
