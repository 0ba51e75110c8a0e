"""Randomized differential conformance harness.

The invariant checker (:mod:`repro.verify.invariants`) proves conservation
laws *within* one run.  This module generates seeded random scenarios —
workload × attack × HZ × accounting scheme × scheduler × hardware-fault
plan — and checks the properties that only hold *across* runs:

* **serial/batch conformance** — running a scenario directly through
  :func:`~repro.analysis.experiment.run_experiment` and through
  :class:`~repro.runner.BatchRunner` must produce field-identical results
  (the simulator is deterministic given a spec);
* **cross-scheduler agreement** — the victim's ground-truth user+lib CPU
  time is a property of its op stream, not of the scheduling policy, so it
  must agree exactly across CFS, O(1) and round-robin whenever the attack
  itself is schedule-independent;
* **detection soundness** — scenarios may carry a deliberate accounting
  corruption (``inject``); the checker *must* flag those runs (a clean
  pass on a corrupted run is a false negative and counts as a failure).

Every violation is shrunk to a minimal scenario and saved as a replayable
JSON spec; ``repro fuzz --replay FILE`` re-runs it and verifies the
outcome digest bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import random
import weakref
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.figures import paper_workload_params
from ..config import MachineConfig, SchedulerConfig, default_config
from ..runner.pool import BatchRunner
from ..runner.specs import ExperimentSpec, run_spec
from .invariants import InvariantViolation

#: Attacks whose effect on the victim's own user+lib work is independent of
#: the scheduling policy: they tamper with the platform (shell, libraries)
#: before launch, not with timing.  Only these participate in the
#: cross-scheduler oracle-equality check; timing attacks (scheduling,
#: irq-flood, thrashing, fault-flood) legitimately interleave differently
#: per scheduler and are covered by the in-run invariants instead.
SCHEDULE_INDEPENDENT_ATTACKS = frozenset(
    {"none", "shell", "library-ctor", "library-subst"})

DEFAULT_SCHEDULERS: Tuple[str, ...] = ("cfs", "o1", "rr")

#: Corruption kinds understood by :func:`make_injector`.
INJECT_KINDS: Tuple[str, ...] = ("double-tick", "drop-exit", "oracle-skim")


@dataclass(frozen=True)
class Scenario:
    """One fuzz case: everything needed to rebuild the runs, by value."""

    seed: int
    hz: int = 250
    accounting: str = "tick"
    process_aware: bool = False
    charge_switch_to: str = "prev"
    program: str = "O"
    program_kwargs: Dict[str, Any] = field(default_factory=dict)
    attack: str = "none"
    attack_kwargs: Dict[str, Any] = field(default_factory=dict)
    schedulers: Tuple[str, ...] = DEFAULT_SCHEDULERS
    #: When set, a deliberate accounting corruption is installed and the
    #: expectation inverts: the run must *raise* InvariantViolation.
    inject: Optional[str] = None
    #: When set, a :class:`~repro.faults.FaultPlan` mapping of injected
    #: hardware faults — the run must still satisfy every invariant (the
    #: watchdog's catch-up keeps conservation exact; TSC faults are
    #: read-side only).
    faults: Optional[Dict[str, Any]] = None
    #: SMP dimension: runs on an ``nproc``-CPU machine.  Serial/batch and
    #: cross-scheduler conformance must hold there too.
    nproc: int = 1
    #: Time-plane dimension: a :class:`~repro.timesync.TimeSyncSpec`
    #: mapping attaching a (possibly attacked) sync daemon to the host.
    #: Serial/batch conformance and the timesync-conservation invariant
    #: must hold under it.
    timesync: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        doc = asdict(self)
        doc["schedulers"] = list(self.schedulers)
        if doc.get("nproc") == 1:
            # Pre-SMP replay specs (and their digests) carry no nproc key;
            # keep the uniprocessor encoding identical.
            doc.pop("nproc")
        if doc.get("timesync") is None:
            # Same rule for the time plane: sync-free replay specs stay
            # byte-identical to pre-timesync ones.
            doc.pop("timesync")
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Scenario":
        doc = dict(doc)
        doc["schedulers"] = tuple(doc.get("schedulers", DEFAULT_SCHEDULERS))
        doc["program_kwargs"] = dict(doc.get("program_kwargs", {}))
        doc["attack_kwargs"] = dict(doc.get("attack_kwargs", {}))
        doc["faults"] = dict(doc["faults"]) if doc.get("faults") else None
        doc["timesync"] = (dict(doc["timesync"])
                           if doc.get("timesync") else None)
        return cls(**doc)

    def config(self, scheduler: str) -> MachineConfig:
        return default_config(
            hz=self.hz,
            accounting=self.accounting,
            process_aware_irq_accounting=self.process_aware,
            charge_switch_to=self.charge_switch_to,
            seed=self.seed,
            nproc=self.nproc,
            scheduler=SchedulerConfig(kind=scheduler))

    def spec(self, scheduler: str) -> ExperimentSpec:
        return ExperimentSpec(
            program=self.program,
            program_kwargs=dict(self.program_kwargs),
            attack=None if self.attack == "none" else self.attack,
            attack_kwargs=dict(self.attack_kwargs),
            cfg=self.config(scheduler),
            check_invariants=True,
            faults=dict(self.faults) if self.faults else None,
            timesync=dict(self.timesync) if self.timesync else None,
            label=f"fuzz-{self.seed}:{scheduler}")


@dataclass
class ScenarioReport:
    """Outcome of :func:`run_scenario`: per-scheduler results + failures."""

    scenario: Scenario
    #: scheduler → ExperimentResult.to_dict() (or an error record).
    runs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def digest(self) -> str:
        """Stable content hash of the whole outcome — replay compares
        digests, so a replay is bit-identical iff every billed nanosecond,
        oracle bucket and failure message matches."""
        doc = {"scenario": self.scenario.to_dict(), "runs": self.runs,
               "failures": self.failures}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

def generate_scenario(rng: random.Random,
                      inject_probability: float = 0.0) -> Scenario:
    """Draw one random scenario from ``rng`` (fully determined by it)."""
    hz = rng.choice([100, 250, 1000])
    scale = rng.choice([0.01, 0.02, 0.05])
    inject = None
    if rng.random() < inject_probability:
        inject = rng.choice(INJECT_KINDS)
    # Hardware faults ride along on non-corrupted scenarios: the invariants
    # must hold under them, and serial/batch must still agree bit-exactly.
    faults = None
    if inject is None and rng.random() < 0.25:
        faults = _draw_faults(rng)
    if inject is not None:
        # Detection legs must observe the corruption: a workload shorter
        # than one jiffy never ticks, so a tick-level corruption would be
        # vacuously "missed".  Pin a busyloop spanning ~15 jiffies.
        program, program_kwargs = "busyloop", _busyloop_kwargs(hz)
        attack, attack_kwargs = "none", {}
    else:
        program = rng.choice(["O", "P", "W", "B"])
        program_kwargs = dict(paper_workload_params(scale)[program])
        attack, attack_kwargs = _draw_attack(rng, scale)
    scenario = Scenario(
        seed=rng.randrange(1, 2**31),
        hz=hz,
        accounting=rng.choice(["tick", "tsc", "dual"]),
        process_aware=rng.random() < 0.5,
        charge_switch_to=rng.choice(["prev", "next"]),
        program=program,
        program_kwargs=program_kwargs,
        attack=attack,
        attack_kwargs=attack_kwargs,
        inject=inject,
        faults=faults)
    # SMP dimension, drawn *last* so its addition left every earlier draw
    # — and thus every pre-SMP pinned-seed scenario — unchanged.  Fault
    # plans stay on uniprocessors (their injectors target CPU 0's timer).
    if inject is None and faults is None and rng.random() < 0.25:
        scenario = replace(scenario, nproc=rng.choice([2, 4]))
    # Time-plane dimension, drawn after SMP for the same reason: earlier
    # pinned seeds draw identical scenarios.  Uniprocessor hosts only —
    # the sync plane and an SMP host are each plenty of interleaving.
    if inject is None and faults is None and scenario.nproc == 1 \
            and rng.random() < 0.25:
        scenario = replace(scenario, timesync=_draw_timesync(rng))
    return scenario


def _draw_faults(rng: random.Random) -> Dict[str, Any]:
    """Draw a random hardware-fault plan (as a FaultPlan mapping)."""
    from ..faults import sweep_plan

    plan = sweep_plan(rng.choice([0.05, 0.1, 0.2]),
                      watchdog=rng.random() < 0.5).to_dict()
    if rng.random() < 0.3:
        plan["tick_delay_prob"] = 0.2
        plan["tick_delay_max_ns"] = int(rng.choice([500_000, 2_000_000]))
    if rng.random() < 0.3:
        plan["irq_storm_pps"] = float(rng.choice([2_000, 10_000]))
    return plan


def _draw_timesync(rng: random.Random) -> Dict[str, Any]:
    """Draw a random time-plane spec (as a TimeSyncSpec mapping)."""
    kind = rng.choice(["honest", "delay-asym", "master", "tamper", "loss"])
    attack: Dict[str, Any] = {}
    if kind == "delay-asym":
        attack["delay_asymmetry_ns"] = int(
            rng.choice([1_000_000, 4_000_000, 10_000_000]))
    elif kind == "master":
        attack["master_offset_ns"] = int(
            rng.choice([2_000_000, 5_000_000]))
        if rng.random() < 0.5:
            attack["master_drift_ppb"] = 30_000
    elif kind == "tamper":
        attack["tamper_prob"] = 0.3
        attack["tamper_ns"] = 2_000_000
    elif kind == "loss":
        attack["loss_prob"] = float(rng.choice([0.3, 0.7]))
    doc: Dict[str, Any] = {
        "protocol": rng.choice(["ptp", "ntp"]),
        "drift_ppb": int(rng.choice([0, 20_000, 50_000])),
        "link_jitter_ns": int(rng.choice([0, 100_000])),
        "defense": rng.random() < 0.5,
    }
    if attack:
        doc["attack"] = attack
    return doc


def _busyloop_kwargs(hz: int, jiffies: int = 15) -> Dict[str, Any]:
    """Busyloop kwargs sized to run for about ``jiffies`` timer ticks."""
    cfg = default_config(hz=hz)
    total_cycles = cfg.cpu_freq_hz * jiffies // hz
    return {"total_cycles": int(total_cycles), "chunk": 10_000_000}


def _draw_attack(rng: random.Random, scale: float):
    attack = rng.choice([
        "none", "none",  # keep a healthy share of honest-platform runs
        "shell", "library-ctor", "library-subst",
        "scheduling", "irq-flood", "fault-flood",
    ])
    payload = rng.choice([100_000_000, 300_000_000, 506_000_000])
    kwargs = {
        "none": {},
        "shell": {"payload_cycles": payload},
        "library-ctor": {"payload_cycles": payload},
        "library-subst": {"cycles_per_call": rng.choice([100_000, 300_000])},
        "scheduling": {"nice": rng.choice([-20, -10, 0]),
                       "forks": max(1, int(8_000 * scale))},
        "irq-flood": {"rate_pps": float(rng.choice([5_000, 10_000, 20_000]))},
        "fault-flood": {},
    }[attack]
    return attack, kwargs


# ----------------------------------------------------------------------
# deliberate corruption (detection-soundness leg)
# ----------------------------------------------------------------------

def make_injector(kind: str) -> Callable:
    """A ``machine_hook`` installing corruption ``kind`` on a fresh machine.

    Each corruption is detectable under *every* accounting scheme — the
    mutation tests hold the checker to zero false negatives on these.

    A corruption replaces a method on the instance it patches, so the
    replacement must not hold that instance (or the machine) strongly:
    the two would form a cycle that keeps the whole run alive after it
    ends.  It captures the class's function, a weak reference to the
    instance and the plain values it needs.
    """
    if kind == "double-tick":
        def hook(machine):
            acct = machine.kernel.accounting
            on_tick = type(acct).on_tick
            scheme = weakref.ref(acct)

            def dishonest_on_tick(task, mode, cpu=0):
                on_tick(scheme(), task, mode, cpu)
                on_tick(scheme(), task, mode, cpu)

            acct.on_tick = dishonest_on_tick
    elif kind == "drop-exit":
        def hook(machine):
            kernel = machine.kernel
            do_exit = type(kernel).do_exit
            owner = weakref.ref(kernel)
            tick_ns = machine.cfg.tick_ns

            def dishonest_do_exit(task, *args, **kwargs):
                task.acct_stime_ns += tick_ns
                return do_exit(owner(), task, *args, **kwargs)

            kernel.do_exit = dishonest_do_exit
    elif kind == "oracle-skim":
        def hook(machine):
            kernel = machine.kernel
            consume = type(kernel).consume
            owner = weakref.ref(kernel)

            def skimming_consume(task, ns, cycles, user_mode, provenance,
                                 kind_):
                consume(owner(), task, ns, cycles, user_mode, provenance,
                        kind_)
                for bucket, charged in list(task.oracle_ns.items()):
                    if charged > 0:
                        task.oracle_ns[bucket] = charged - 1
                        break

            kernel.consume = skimming_consume
    else:
        raise ValueError(f"unknown inject kind {kind!r}; "
                         f"have {sorted(INJECT_KINDS)}")
    return hook


# ----------------------------------------------------------------------
# execution + differential checks
# ----------------------------------------------------------------------

def run_scenario(scenario: Scenario,
                 batch_leg: bool = True) -> ScenarioReport:
    """Run ``scenario`` under every scheduler and cross-check the results."""
    if scenario.inject is not None:
        return _run_injected(scenario)

    report = ScenarioReport(scenario)
    results: Dict[str, Any] = {}
    for scheduler in scenario.schedulers:
        spec = scenario.spec(scheduler)
        try:
            result = run_spec(spec)
        except InvariantViolation as exc:
            report.failures.append(
                f"invariant[{scheduler}]: {exc.violation.category}: {exc}")
            report.runs[scheduler] = {"error": str(exc)}
            continue
        except Exception as exc:  # noqa: BLE001 - report, don't crash fuzz
            report.failures.append(f"crash[{scheduler}]: {exc!r}")
            report.runs[scheduler] = {"error": repr(exc)}
            continue
        results[scheduler] = result
        report.runs[scheduler] = result.to_dict()

    if results and batch_leg:
        _check_batch_conformance(scenario, report, next(iter(results)))
    _check_cross_scheduler(scenario, report, results)
    return report


def _run_injected(scenario: Scenario) -> ScenarioReport:
    """Detection-soundness leg: the corrupted run must be flagged."""
    report = ScenarioReport(scenario)
    hook = make_injector(scenario.inject)
    scheduler = scenario.schedulers[0]
    spec = scenario.spec(scheduler)
    try:
        result = run_spec_with_hook(spec, hook)
    except InvariantViolation as exc:
        # Expected: corruption caught.  Record *what* was caught so the
        # replay digest pins the detection, not just the fact of it.
        report.runs[scheduler] = {
            "detected": exc.violation.category,
            "pid": exc.violation.pid,
        }
        return report
    except Exception as exc:  # noqa: BLE001
        report.failures.append(f"crash[{scheduler}]: {exc!r}")
        report.runs[scheduler] = {"error": repr(exc)}
        return report
    report.failures.append(
        f"false-negative[{scheduler}]: corruption {scenario.inject!r} "
        f"was not detected")
    report.runs[scheduler] = result.to_dict()
    return report


def run_spec_with_hook(spec: ExperimentSpec, machine_hook):
    """``run_spec`` with a machine hook (used by the corruption leg): the
    same machine ``run_spec`` builds — config, nproc, fault plan, time
    plane and VM host — handed to ``machine_hook`` before it runs.

    The hooked machine is closed when the run ends, also when it raises,
    so a corrupted run frees itself like any other."""
    machines = []

    def hook(machine):
        machines.append(machine)
        machine_hook(machine)

    try:
        return run_spec(spec, machine_hook=hook)
    finally:
        for machine in machines:
            machine.close()


def _check_batch_conformance(scenario: Scenario, report: ScenarioReport,
                             scheduler: str) -> None:
    """Serial vs BatchRunner path must be field-identical."""
    spec = scenario.spec(scheduler)
    outcomes = BatchRunner(jobs=1).run([spec])
    outcome = outcomes[0]
    if not outcome.ok:
        report.failures.append(
            f"batch[{scheduler}]: runner failed: {outcome.failure}")
        return
    direct = report.runs[scheduler]
    batch = outcome.result.to_dict()
    if direct != batch:
        diffs = _dict_diff(direct, batch)
        report.failures.append(
            f"batch[{scheduler}]: serial and BatchRunner results diverge: "
            f"{diffs}")


def _check_cross_scheduler(scenario: Scenario, report: ScenarioReport,
                           results: Dict[str, Any]) -> None:
    """Ground-truth user+lib time is scheduler-invariant for platform
    (non-timing) attacks — up to integer rounding at slice boundaries.

    When the engine splits an op at a preemption or tick boundary, each
    cycles→ns conversion rounds once, so totals may drift by ~1 ns per
    boundary; where the boundaries fall *does* depend on the scheduler.
    The tolerance is therefore one ns per observed tick/context switch.

    Threads racing a page's first touch each take the minor fault, and
    each fault is real kernel work billed to the program's provenance;
    how many threads race depends on the schedule.  So the tolerance also
    admits the spread of minor faults across schedulers, at the cost of
    one minor fault (rounded up to whole ns) each.
    """
    if scenario.attack not in SCHEDULE_INDEPENDENT_ATTACKS:
        return
    if scenario.faults:
        # Fault timing (IRQ storms, delayed ticks) interleaves with the
        # victim differently per scheduler; in-run invariants still apply.
        return
    if scenario.timesync:
        # Sync rounds are events interleaved with the victim's schedule;
        # the timesync-conservation invariant covers these runs instead.
        return
    if len(results) < 2:
        return
    own: Dict[str, int] = {}
    minor_faults: List[int] = []
    tolerance_ns = 64
    for scheduler, result in results.items():
        oracle = result.oracle_seconds
        own[scheduler] = round(
            (oracle.get("user", 0.0) + oracle.get("lib", 0.0)) * 1e9)
        stats = result.stats
        minor_faults.append(stats.get("minor_faults", 0))
        tolerance_ns = max(
            tolerance_ns,
            64 + stats.get("ticks", 0)
            + stats.get("context_switches_total", 0)
            # Each cross-CPU migration is one more op-splitting boundary.
            + stats.get("migrations_total", 0))
    reference_sched = next(iter(own))
    reference = own[reference_sched]
    cfg = scenario.config(reference_sched)
    fault_cycles = cfg.costs.minor_fault_cycles + cfg.costs.page_zero_cycles
    fault_ns = -(-fault_cycles * 1_000_000_000 // cfg.cpu_freq_hz)
    tolerance_ns += (max(minor_faults) - min(minor_faults)) * fault_ns
    for scheduler, value in own.items():
        if abs(value - reference) > tolerance_ns:
            report.failures.append(
                f"cross-scheduler: oracle user+lib differs — "
                f"{reference_sched}={reference}ns vs {scheduler}={value}ns "
                f"(|diff| {abs(value - reference)}ns > {tolerance_ns}ns; "
                f"attack {scenario.attack!r} is schedule-independent)")


def _dict_diff(a: Dict[str, Any], b: Dict[str, Any], prefix: str = "") -> str:
    diffs = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        path = f"{prefix}{key}"
        if isinstance(va, dict) and isinstance(vb, dict):
            diffs.append(_dict_diff(va, vb, prefix=path + "."))
        else:
            diffs.append(f"{path}: {va!r} != {vb!r}")
    return "; ".join(d for d in diffs if d)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------

def shrink_scenario(scenario: Scenario,
                    still_fails: Optional[Callable[[Scenario], bool]] = None,
                    max_steps: int = 12) -> Scenario:
    """Greedy shrink: try simplifications in order, keep any that still
    reproduce a failure.  Each probe is a full re-run, so the step count
    is bounded."""
    if still_fails is None:
        still_fails = lambda s: not run_scenario(s, batch_leg=False).ok

    def candidates(current: Scenario):
        if current.faults:
            # Most failures under faults are fault-handling bugs, but try
            # the fault-free version first: if it still fails, the plan
            # was incidental.
            yield replace(current, faults=None)
        if current.timesync:
            # Same logic for the time plane.
            yield replace(current, timesync=None)
        if current.attack != "none" and current.inject is not None:
            # Injected corruption fails regardless of the attack.
            yield replace(current, attack="none", attack_kwargs={})
        if len(current.schedulers) > 1:
            for scheduler in current.schedulers:
                yield replace(current, schedulers=(scheduler,))
        if current.program != "O":
            yield replace(
                current, program="O",
                program_kwargs=dict(paper_workload_params(0.01)["O"]))
        smaller = _smaller_kwargs(current.program_kwargs)
        if smaller is not None:
            yield replace(current, program_kwargs=smaller)
        if current.hz != 100:
            yield replace(current, hz=100)
        if current.process_aware:
            yield replace(current, process_aware=False)

    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in candidates(scenario):
            steps += 1
            if steps > max_steps:
                break
            if still_fails(candidate):
                scenario = candidate
                improved = True
                break
    return scenario


def _smaller_kwargs(kwargs: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    smaller = {}
    shrunk = False
    for key, value in kwargs.items():
        if isinstance(value, int) and not isinstance(value, bool) \
                and value > 8:
            smaller[key] = value // 2
            shrunk = True
        else:
            smaller[key] = value
    return smaller if shrunk else None


# ----------------------------------------------------------------------
# failure persistence + replay
# ----------------------------------------------------------------------

def failure_spec(report: ScenarioReport) -> Dict[str, Any]:
    """The replayable JSON document for one failing scenario."""
    return {
        "format": "repro-fuzz-failure/1",
        "scenario": report.scenario.to_dict(),
        "failures": list(report.failures),
        "digest": report.digest(),
    }


def save_failure(report: ScenarioReport, path) -> None:
    import os

    directory = os.path.dirname(str(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(failure_spec(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_failure(path) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != "repro-fuzz-failure/1":
        raise ValueError(f"{path}: not a repro fuzz failure spec")
    return doc


def replay_failure(path) -> Tuple[ScenarioReport, bool]:
    """Re-run a saved failure spec.  Returns (report, digest_matches):
    the run is bit-identical to the recorded one iff the digests agree."""
    doc = load_failure(path)
    scenario = Scenario.from_dict(doc["scenario"])
    report = run_scenario(scenario)
    return report, report.digest() == doc["digest"]


# ----------------------------------------------------------------------
# the fuzz loop
# ----------------------------------------------------------------------

@dataclass
class FuzzSummary:
    iterations: int = 0
    failures: List[ScenarioReport] = field(default_factory=list)
    saved: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_fuzz(iterations: int = 50,
             seed: int = 2010,
             schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
             out_dir: Optional[str] = None,
             inject_probability: float = 0.15,
             shrink: bool = True,
             progress: Optional[Callable[[str], None]] = None) -> FuzzSummary:
    """Generate and check ``iterations`` scenarios from master ``seed``.

    Failures are shrunk and (when ``out_dir`` is given) saved as replay
    specs named ``fuzz-<iteration>-<scenario seed>.json``.
    """
    emit = progress or (lambda message: None)
    rng = random.Random(seed)
    summary = FuzzSummary()
    for iteration in range(iterations):
        scenario = generate_scenario(
            rng, inject_probability=inject_probability)
        scenario = replace(scenario, schedulers=tuple(schedulers))
        report = run_scenario(scenario)
        summary.iterations += 1
        if report.ok:
            kind = (f"inject:{scenario.inject}" if scenario.inject
                    else f"{scenario.program}:{scenario.attack}")
            if scenario.faults:
                kind += "+faults"
            if scenario.timesync:
                kind += "+timesync"
            emit(f"[{iteration + 1}/{iterations}] ok   {kind} "
                 f"acct={scenario.accounting} hz={scenario.hz}")
            continue
        emit(f"[{iteration + 1}/{iterations}] FAIL {report.failures[0]}")
        if shrink:
            shrunk = shrink_scenario(scenario)
            if shrunk != scenario:
                report = run_scenario(shrunk, batch_leg=False)
                if report.ok:  # shrink overshot; keep the original
                    report = run_scenario(scenario)
        summary.failures.append(report)
        if out_dir is not None:
            import os

            path = os.path.join(
                out_dir,
                f"fuzz-{iteration + 1}-{report.scenario.seed}.json")
            save_failure(report, path)
            summary.saved.append(path)
            emit(f"    saved replay spec: {path}")
    return summary
