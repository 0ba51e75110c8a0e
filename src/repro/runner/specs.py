"""Declarative, picklable experiment specifications.

``run_experiment`` takes live :class:`Program` and :class:`Attack` objects,
which hold machine references and guest closures — neither survives a trip
through ``pickle`` to a worker process.  An :class:`ExperimentSpec` instead
names the program and attack by registry key and carries only plain
constructor kwargs, so a sweep point can be shipped to a
``ProcessPoolExecutor`` worker, rebuilt there from scratch, and executed
with :func:`run_spec` — producing the exact same result the serial path
would (the simulator is deterministic given the spec's config and seed).

The spec is also the cache identity: :func:`spec_key` hashes the canonical
JSON form of (spec, seed, repro version), so any change to the workload,
the attack parameters, the machine config or the simulator version misses
the cache and re-runs the point.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Type

from .. import __version__
from ..attacks import (
    Attack,
    ExceptionFloodAttack,
    InterruptFloodAttack,
    IrqSteerAttack,
    LibraryConstructorAttack,
    LibrarySubstitutionAttack,
    RuntimeLibraryAttack,
    SchedulingAttack,
    ShellAttack,
    SmpDodgeAttack,
    ThrashingAttack,
)
from ..config import MachineConfig, default_config
from ..errors import ReproError
from ..faults.plan import FaultPlan
from ..plans import FrozenPlan
from ..programs.attackers import make_busyloop, make_fork_attacker
from ..programs.base import Program
from ..programs.workloads import PAPER_PROGRAMS, make_paper_program
from ..timesync.spec import TimeSyncSpec

#: program registry key → factory.  The paper programs go through
#: ``make_paper_program``; the attacker-side programs are addressable too so
#: sweep grids and the scheduling figures can run them standalone.
PROGRAM_FACTORIES: Dict[str, Callable[..., Program]] = {
    **{name: (lambda name: lambda **kw: make_paper_program(name, **kw))(name)
       for name in PAPER_PROGRAMS},
    "fork": make_fork_attacker,
    "busyloop": make_busyloop,
}

#: attack registry key → class.  Keys match the comparison-matrix names.
ATTACK_CLASSES: Dict[str, Callable[..., Attack]] = {
    "shell": ShellAttack,
    "library-ctor": LibraryConstructorAttack,
    "library-subst": LibrarySubstitutionAttack,
    "library-runtime": RuntimeLibraryAttack,
    "scheduling": SchedulingAttack,
    "thrashing": ThrashingAttack,
    "irq-flood": InterruptFloodAttack,
    "fault-flood": ExceptionFloodAttack,
    "smp-dodge": SmpDodgeAttack,
    "irq-steer": IrqSteerAttack,
}


class SpecError(ReproError):
    """An :class:`ExperimentSpec` references an unknown program/attack,
    passes it bad kwargs, or asks its host for what it cannot run."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One point of a sweep: program × attack × config, all by value.

    ``attack=None`` (or ``"none"``) is the honest-platform control run.
    ``cfg=None`` means :func:`repro.config.default_config`.  ``label`` is
    cosmetic — it names the point in telemetry and reports but is excluded
    from the cache key.
    """

    program: str
    program_kwargs: Mapping[str, Any] = field(default_factory=dict)
    attack: Optional[str] = None
    attack_kwargs: Mapping[str, Any] = field(default_factory=dict)
    cfg: Optional[MachineConfig] = None
    run_attacker_to_completion: Optional[bool] = None
    max_ns: Optional[int] = None
    #: None defers to the process-wide default (set by --check-invariants);
    #: True/False pin the runtime invariant checker on/off for this point.
    check_invariants: Optional[bool] = None
    #: Not None → run the point under the hypervisor: the program becomes
    #: the victim VM's workload, ``attack`` names a VM-level attack
    #: (``"vm-sched"``) instead of a process-level one, and the mapping
    #: carries the hypervisor/scenario knobs
    #: (:data:`repro.virt.experiment.VM_PARAM_KEYS`; ``{}`` for defaults).
    vm: Optional[Mapping[str, Any]] = None
    #: Number of CPUs for this point.  The default of 1 is identity-neutral:
    #: it is popped from the canonical cfg document so every pre-SMP cache
    #: key (and cached result) remains valid.  Values > 1 override
    #: ``cfg.nproc`` and join the identity via the config document.
    nproc: int = 1
    #: Not None → a :meth:`repro.faults.FaultPlan.from_dict` mapping of
    #: deterministic hardware faults (plus the watchdog toggle) for this
    #: point.  An *empty* plan is identical to None — including in the
    #: cache key, so zero-fault results remain bit-compatible with runs
    #: from before the fault layer existed.
    faults: Optional[Mapping[str, Any]] = None
    #: Not None → a :meth:`repro.timesync.TimeSyncSpec.from_dict` mapping
    #: attaching the simulated network time plane (protocol, link, drift,
    #: attack plan, defense toggle) to this point.  An *inert* spec is
    #: identical to None — including in the cache key, so sync-free
    #: results remain bit-compatible with runs from before the time plane
    #: existed.
    timesync: Optional[Mapping[str, Any]] = None
    label: str = ""

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        base = f"{self.program}:{self.attack or 'none'}"
        return f"vm:{base}" if self.vm is not None else base

    def resolved_config(self) -> MachineConfig:
        cfg = self.cfg if self.cfg is not None else default_config()
        if self.nproc != 1 and cfg.nproc != self.nproc:
            cfg = cfg.with_(nproc=self.nproc)
        return cfg

    def build_program(self) -> Program:
        try:
            factory = PROGRAM_FACTORIES[self.program]
        except KeyError:
            raise SpecError(f"unknown program {self.program!r}; "
                            f"have {sorted(PROGRAM_FACTORIES)}") from None
        return _construct(factory, self.program_kwargs, "program")

    def build_attack(self) -> Optional[Attack]:
        if self.attack is None or self.attack == "none":
            return None
        registry = ATTACK_CLASSES
        if self.vm is not None:
            # The VM plane loads with the first VM spec, not with this one.
            from ..virt.experiment import VM_ATTACK_CLASSES as registry
        try:
            cls = registry[self.attack]
        except KeyError:
            raise SpecError(f"unknown attack {self.attack!r}; "
                            f"have {sorted(registry)}") from None
        return _construct(cls, self.attack_kwargs, "attack")


def _construct(factory: Callable[..., Any], kwargs: Mapping[str, Any],
               kind: str) -> Any:
    """``factory(**kwargs)``; kwargs it refuses raise :class:`SpecError`."""
    try:
        return factory(**dict(kwargs))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad {kind} kwargs: {exc}") from None


#: Leaf types ``_canonical`` returns untouched.  Exact types only: a
#: subclass still goes through the checks below, as it always did.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _canonical(value: Any) -> Any:
    """Reduce spec fields to a canonical JSON-compatible form (tuples and
    lists collapse to lists; mapping keys are sorted by json.dumps)."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _config_doc(cfg: Any) -> Any:
    """The canonical document of a machine config: the same document
    ``_canonical(dataclasses.asdict(cfg))`` gives, without asdict's deep
    copy of every leaf."""
    if is_dataclass(cfg):
        return {f.name: _config_doc(getattr(cfg, f.name))
                for f in fields(cfg)}
    return _canonical(cfg)


#: Canonical documents of the machine configs seen so far, by ``repr``.
#: Configs are frozen, so a repr names one document; unlike ``==`` (and
#: the hash), it also tells ``hz=250`` from ``hz=250.0``, which the JSON
#: document does too.
_CONFIG_DOCS: Dict[str, Dict[str, Any]] = {}
_CONFIG_DOCS_MAX = 256


def _machine_config_doc(cfg: MachineConfig) -> Dict[str, Any]:
    """A fresh copy of ``cfg``'s canonical document, built once per
    config.  The document nests dicts of scalars one level deep (one per
    config section), so copying two levels leaves the cache untouched
    whatever the caller does with the copy."""
    key = repr(cfg)
    doc = _CONFIG_DOCS.get(key)
    if doc is None:
        if len(_CONFIG_DOCS) >= _CONFIG_DOCS_MAX:
            _CONFIG_DOCS.clear()
        doc = _CONFIG_DOCS[key] = _config_doc(cfg)
    return {name: dict(value) if value.__class__ is dict else value
            for name, value in doc.items()}


#: The spec fields that carry a plan mapping, with the plan type each one
#: normalizes through (an empty plan is identical to None).
PLAN_FIELDS: Tuple[Tuple[str, Type[FrozenPlan]], ...] = (
    ("faults", FaultPlan), ("timesync", TimeSyncSpec))


def spec_identity(spec: ExperimentSpec) -> Dict[str, Any]:
    """The JSON document hashed by :func:`spec_key`.

    Includes everything that can change the outcome: the full machine
    config (which carries the RNG seed) and the repro version, per the
    "results are only reusable for the code that produced them" rule.
    ``check_invariants`` is deliberately excluded — the checker observes
    the run without altering it, so results are interchangeable.
    """
    cfg_doc = _machine_config_doc(spec.resolved_config())
    if cfg_doc.get("nproc") == 1:
        # A single CPU is the pre-SMP machine: drop the field so the
        # document (and hence the cache key) is byte-identical to specs
        # hashed before the SMP layer existed.
        cfg_doc.pop("nproc")
    doc = {
        "program": spec.program,
        "program_kwargs": _canonical(spec.program_kwargs),
        "attack": spec.attack or "none",
        "attack_kwargs": _canonical(spec.attack_kwargs),
        "cfg": cfg_doc,
        "run_attacker_to_completion": spec.run_attacker_to_completion,
        "max_ns": spec.max_ns,
        "vm": _canonical(spec.vm) if spec.vm is not None else None,
        "repro_version": __version__,
    }
    for name, plan_type in PLAN_FIELDS:
        plan = plan_type.normalize(getattr(spec, name))
        if plan is not None:
            # Only an active plan joins the identity: empty plans hash
            # exactly like the spec document from before the plane existed.
            doc[name] = _canonical(plan.to_dict())
    return doc


def spec_key(spec: ExperimentSpec) -> str:
    """Stable content hash of the spec — the cache key."""
    doc = json.dumps(spec_identity(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


#: Fields a wire-format spec document may carry (``repro serve`` job
#: submissions).  ``cfg`` is restricted to the *simple* top-level machine
#: knobs — nested cost/scheduler/memory sections stay server-side.
SPEC_DOC_FIELDS = frozenset({
    "program", "program_kwargs", "attack", "attack_kwargs", "cfg",
    "run_attacker_to_completion", "max_ns", "check_invariants", "vm",
    "nproc", "faults", "timesync", "label",
})

#: The MachineConfig fields a spec document's ``cfg`` mapping may set.
CFG_DOC_FIELDS = frozenset({
    "cpu_freq_hz", "nproc", "hz", "accounting",
    "process_aware_irq_accounting", "charge_switch_to", "seed",
    "max_time_ns",
})


def spec_from_dict(doc: Mapping[str, Any]) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from an untrusted JSON document.

    The inverse of :func:`spec_identity` for the wire: every field is
    validated (unknown keys, unknown program/attack names and malformed
    configs raise :class:`SpecError`) so a tenant submission can never
    reach :func:`run_spec` malformed.
    """
    from ..errors import ConfigError

    if not isinstance(doc, Mapping):
        raise SpecError(f"spec document must be a mapping, got "
                        f"{type(doc).__name__}")
    unknown = set(doc) - SPEC_DOC_FIELDS
    if unknown:
        raise SpecError(f"unknown spec fields {sorted(unknown)}; "
                        f"have {sorted(SPEC_DOC_FIELDS)}")
    if "program" not in doc or not isinstance(doc["program"], str):
        raise SpecError("spec document needs a 'program' name")

    cfg = None
    cfg_doc = doc.get("cfg")
    if cfg_doc is not None:
        if not isinstance(cfg_doc, Mapping):
            raise SpecError("'cfg' must be a mapping of machine knobs")
        bad = set(cfg_doc) - CFG_DOC_FIELDS
        if bad:
            raise SpecError(f"unknown cfg fields {sorted(bad)}; "
                            f"have {sorted(CFG_DOC_FIELDS)}")
        try:
            cfg = default_config(**dict(cfg_doc))
        except (ConfigError, TypeError) as exc:
            raise SpecError(f"bad cfg: {exc}") from None

    attack = doc.get("attack")
    if attack in ("none", ""):
        attack = None
    vm = doc.get("vm")
    if vm is not None and not isinstance(vm, Mapping):
        raise SpecError("'vm' must be a mapping of hypervisor knobs")

    def mapping_field(name):
        value = doc.get(name)
        if value is None:
            return {}
        if not isinstance(value, Mapping):
            raise SpecError(f"{name!r} must be a mapping")
        return dict(value)

    nproc = doc.get("nproc", 1)
    if not isinstance(nproc, int) or isinstance(nproc, bool) or nproc < 1:
        raise SpecError(f"nproc must be a positive integer, got {nproc!r}")
    max_ns = doc.get("max_ns")
    if max_ns is not None and (not isinstance(max_ns, int) or max_ns <= 0):
        raise SpecError(f"max_ns must be a positive integer, got {max_ns!r}")
    plans: Dict[str, Any] = {}
    for name, plan_type in PLAN_FIELDS:
        value = doc.get(name)
        if value is not None:
            if not isinstance(value, Mapping):
                raise SpecError(f"{name!r} must be a {plan_type.__name__} "
                                f"mapping")
            try:
                plan_type.normalize(value)
            except (ReproError, TypeError, ValueError) as exc:
                raise SpecError(f"bad {plan_type.KIND}: {exc}") from None
            value = dict(value)
        plans[name] = value
    spec = ExperimentSpec(
        program=doc["program"],
        program_kwargs=mapping_field("program_kwargs"),
        attack=attack,
        attack_kwargs=mapping_field("attack_kwargs"),
        cfg=cfg,
        run_attacker_to_completion=doc.get("run_attacker_to_completion"),
        max_ns=max_ns,
        check_invariants=doc.get("check_invariants"),
        vm=dict(vm) if vm is not None else None,
        nproc=nproc,
        label=str(doc.get("label", "")),
        **plans,
    )
    # Fail at submission, not deep inside a worker thread: build what the
    # run would build, and check a vm spec's host as the run would.
    spec.build_program()
    spec.build_attack()
    if spec.vm is not None:
        from ..virt.experiment import hypervisor_config

        hypervisor_config(
            spec.vm, spec.resolved_config(), timesync=spec.timesync,
            run_attacker_to_completion=spec.run_attacker_to_completion)
    return spec


def run_spec(spec: ExperimentSpec, machine_hook=None):
    """Execute one spec on a fresh machine — the worker-side entry point.

    Equivalent to building the program/attack by hand and calling
    :func:`repro.analysis.experiment.run_experiment`; the equivalence suite
    (tests/test_runner_equivalence.py) holds this to field-by-field
    equality.  ``machine_hook`` is handed to ``run_experiment`` as is (the
    machine it receives is left open).
    """
    from ..analysis.experiment import DEFAULT_MAX_NS, run_experiment

    return run_experiment(
        spec.build_program(),
        attack=spec.build_attack(),
        cfg=spec.resolved_config(),
        run_attacker_to_completion=spec.run_attacker_to_completion,
        check_invariants=spec.check_invariants,
        machine_hook=machine_hook,
        faults=spec.faults,
        timesync=spec.timesync,
        vm=spec.vm,
        max_ns=spec.max_ns or DEFAULT_MAX_NS)


def grid(programs, attacks, cfg: Optional[MachineConfig] = None,
         **common) -> Tuple[ExperimentSpec, ...]:
    """Cartesian sweep helper: ``programs`` and ``attacks`` are mappings
    name → kwargs; returns one spec per (program, attack) pair."""
    specs = []
    for pname, pkw in programs.items():
        for aname, akw in attacks.items():
            specs.append(ExperimentSpec(
                program=pname, program_kwargs=dict(pkw),
                attack=None if aname == "none" else aname,
                attack_kwargs=dict(akw), cfg=cfg,
                label=f"{pname}:{aname}", **common))
    return tuple(specs)
