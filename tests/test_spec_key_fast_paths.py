"""The spec-key fast paths hash exactly what the plain walk hashes.

``spec_key`` builds the config document without ``dataclasses.asdict``;
``distinct_units`` hashes one key per distinct expansion draw instead of
one per guest slot.  Both are pure speedups: each test here keeps the
plain implementation as a reference and requires identical output.
"""

import hashlib
import json
from dataclasses import asdict, replace
from typing import Any, Mapping

import pytest

from repro import __version__
from repro.config import default_config
from repro.faults import normalize_plan, sweep_plan
from repro.fleet import FleetSpec, distinct_units, expand_fleet
from repro.fleet.expand import UnitGroup, _expand_draws
from repro.runner.specs import ExperimentSpec, spec_key
from repro.timesync import normalize_timesync, sweep_timesync


def reference_canonical(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {str(k): reference_canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_canonical(v) for v in value]
    return value


def reference_spec_key(spec: ExperimentSpec) -> str:
    """spec_key as a plain walk: asdict the whole config on every call."""
    cfg_doc = reference_canonical(asdict(spec.resolved_config()))
    if cfg_doc.get("nproc") == 1:
        cfg_doc.pop("nproc")
    doc = {
        "program": spec.program,
        "program_kwargs": reference_canonical(spec.program_kwargs),
        "attack": spec.attack or "none",
        "attack_kwargs": reference_canonical(spec.attack_kwargs),
        "cfg": cfg_doc,
        "run_attacker_to_completion": spec.run_attacker_to_completion,
        "max_ns": spec.max_ns,
        "vm": reference_canonical(spec.vm) if spec.vm is not None else None,
        "repro_version": __version__,
    }
    plan = normalize_plan(spec.faults) if spec.faults is not None else None
    if plan is not None:
        doc["faults"] = reference_canonical(plan.to_dict())
    sync = (normalize_timesync(spec.timesync)
            if spec.timesync is not None else None)
    if sync is not None:
        doc["timesync"] = reference_canonical(sync.to_dict())
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


SPECS = {
    "cfg=None": ExperimentSpec(program="O"),
    "explicit default": ExperimentSpec(program="O", cfg=default_config()),
    "nproc=2 via spec": ExperimentSpec(program="W", nproc=2),
    "nproc=2 via cfg": ExperimentSpec(program="W",
                                      cfg=default_config(nproc=2)),
    "nproc=2.0 via spec": ExperimentSpec(program="W", nproc=2.0),
    "nproc=True via spec": ExperimentSpec(program="W", nproc=True),
    "nproc=2 over a cfg": ExperimentSpec(
        program="W", nproc=2, cfg=default_config(hz=1000)),
    "faults": ExperimentSpec(
        program="P", faults=sweep_plan(0.1, watchdog=True).to_dict()),
    "empty faults": ExperimentSpec(program="P", faults={}),
    "timesync": ExperimentSpec(
        program="B", timesync=sweep_timesync(2_000_000).to_dict()),
    "vm": ExperimentSpec(program="W", attack="vm-sched",
                         attack_kwargs={"burn_fraction": 0.9}, vm={}),
    "kwargs": ExperimentSpec(program="O", program_kwargs={"n": (1, 2)},
                             attack="scheduling",
                             attack_kwargs={"nice": -20, "forks": 400}),
    "irq flag 1": ExperimentSpec(
        program="O", cfg=default_config(process_aware_irq_accounting=1)),
    "irq flag True": ExperimentSpec(
        program="O", cfg=default_config(process_aware_irq_accounting=True)),
}


class TestSpecKey:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_matches_reference(self, name):
        spec = SPECS[name]
        want = reference_spec_key(spec)
        assert spec_key(spec) == want

    def test_int_and_bool_flags_keep_distinct_keys(self):
        # 1 == True, so a cache keyed on config equality would merge
        # these; the plain walk keeps them apart (json writes 1 and true).
        one = spec_key(SPECS["irq flag 1"])
        true = spec_key(SPECS["irq flag True"])
        assert one == ("82aa2a66a2b11a6afeb6fa7cb891cd5a"
                       "763c0ffb66158f94e047b5289f7e31c3")
        assert true == ("20e2d5eef64b9111d29e37b32aad8e57"
                        "ebaba072fe4772a610ac8323e0d6a982")


def reference_distinct_units(fleet, host_range=None):
    """distinct_units as a plain walk: one spec_key per guest slot."""
    groups, order = {}, []
    for unit in expand_fleet(fleet, host_range=host_range):
        key = reference_spec_key(unit.spec)
        if key in groups:
            groups[key][1] += 1
        else:
            groups[key] = [unit, 1]
            order.append(key)
    result = []
    for key in order:
        unit, weight = groups[key]
        label = (f"fleet:{unit.kind}:{unit.workload}"
                 f"{':attacked' if unit.attacked else ''}"
                 f"{f':i={unit.intensity}' if unit.intensity else ''}"
                 f"{f':sync={unit.sync_offset_ns}' if unit.sync_offset_ns else ''}"
                 f":x{weight}")
        unit = replace(unit, spec=replace(unit.spec, label=label))
        result.append(UnitGroup(key=key, unit=unit, weight=weight))
    return result


#: Shaped like the fleet-sweep benchmark's fleets, at 200 hosts.
BENCH_LIKE = FleetSpec(hosts=200, guests=2, prevalence=0.2, scale=0.05,
                       seed=0, sync_mix=((0, 0.8), (2_000_000, 0.2)))


class TestDistinctUnits:
    @pytest.mark.parametrize("fleet,host_range", [
        (BENCH_LIKE, None),
        (BENCH_LIKE, (37, 151)),
        (FleetSpec(hosts=60, guests=3, prevalence=0.5, seed=7,
                   fault_mix=((0.0, 0.5), (0.1, 0.3), (0.3, 0.2)),
                   nproc_mix=((1, 0.3), (2, 0.3), (4, 0.4))), None),
    ])
    def test_matches_per_slot_grouping(self, fleet, host_range):
        got = distinct_units(fleet, host_range=host_range)
        want = reference_distinct_units(fleet, host_range=host_range)
        assert [(g.key, g.weight) for g in got] \
            == [(g.key, g.weight) for g in want]
        # Representatives too: host/guest coordinates, spec and label.
        assert got == want

    @pytest.mark.parametrize("fleet", [
        BENCH_LIKE,
        FleetSpec(hosts=80, guests=2, prevalence=0.5, vm_fraction=0.5,
                  seed=3, fault_mix=((0.0, 0.5), (0.1, 0.5)),
                  burn_mix=((0.5, 0.5), (0.9, 0.5)),
                  nproc_mix=((1, 0.5), (2, 0.5)),
                  sync_mix=((0, 0.5), (2_000_000, 0.5))),
    ])
    def test_equal_draw_keys_have_equal_spec_keys(self, fleet):
        seen = {}
        for draw_key, unit in _expand_draws(fleet, None):
            key = reference_spec_key(unit.spec)
            assert seen.setdefault(draw_key, key) == key
        # The mixes above do draw repeats, so the check is not vacuous.
        assert len(seen) < fleet.hosts * fleet.guests
