"""nproc=1 bit-identity with the pre-SMP tree.

The SMP layer's contract (docs/smp.md) is that a single-CPU machine is
*structurally* the pre-SMP machine: ``Machine.step`` dispatches to the
original uniprocessor body, ``spec_identity`` pops the ``nproc`` field,
and every gated stats/snapshot key stays absent.  These tests pin that
contract to golden SHA-256 digests captured from the tree immediately
before the SMP layer landed — cache keys, full experiment results, a
fuzz-scenario outcome and a trace log must all reproduce byte for byte.

If one of these fails after an *intentional* accounting change, the
change has invalidated every pre-existing cache entry and replay spec;
regenerate the digests deliberately (the recipe is each test body) and
say so in the changelog.  If it fails after an SMP change, the SMP
layer has leaked into the uniprocessor path — that is a bug.
"""

import hashlib
import json
import random

from dataclasses import replace

import pytest

from repro.analysis.experiment import run_experiment
from repro.analysis.figures import paper_workload_params
from repro.programs.workloads import make_paper_program
from repro.runner import ExperimentSpec, run_spec, spec_key
from repro.verify.fuzz import generate_scenario, run_scenario

SCALE = 0.05

#: spec_key() of the pinned specs.  Identity hashes cover repro_version,
#: so these are re-stamped at every version bump
#: (1.4.0 -> 1.5.0 -> ... -> 1.8.0 -> 1.9.0) after verifying they
#: matched the pre-SMP tree at equal version; the version-free checks
#: below (key neutrality, result/fuzz/trace digests) are the pre-SMP
#: goldens verbatim.  Every pinned spec also pins its full result
#: document below.
GOLDEN_SPEC_KEYS = {
    "O:none": "bcf1f6853804cab45ca25a6d70d8d5e04e3df752a9be346b6ce31301efc6d1a3",
    "W:none": "6aaee4f28b9b56543bf7e7f71f19204e6d03beecf91c33eafbfdb566fd536b20",
    "O:shell": "aa993b5fab2db5833b78fc7135807790a190815ebfce5465fdde12eb490305de",
    "W:scheduling":
        "8111cb618f143ef6ed1daf087137e9b4524a8155d7dd2442ccddc77de724d2c8",
    "vm:W:none":
        "62e281f1ec803639c41398d63a9d3e0c844e7e5f6363d17acfe0ecb8845e6bad",
    "vm:W:vm-sched":
        "f1ffe95a519ce0ef0a73dd95ee7b39e3b967c4aac3ceefdb182d3e65a82a4db3",
    "vm:W:vm-sched:steal-lie":
        "3d6a96e00934b52ad5c6ff782bed7a4a4bfdcb1efe5a945f849b06ad6dbc02e2",
    "vm:W:vm-sched:1ms-slices":
        "9d79801e124ac0ade051313bf5cd07856aaf051b310f42e9f2e66a0882fd6ec2",
}

#: sha256 over json.dumps(result.to_dict(), sort_keys, compact) — every
#: billed nanosecond, oracle bucket, stat and invoice line of the run.
GOLDEN_RESULT_DIGESTS = {
    "O:none": "6b544c05892ea6ef8290845be30c7fb5a690e2de222468d81a7abfbf4ca5ca5d",
    "W:none": "3e8c3eae07dd295b4d8fb6c03d2ead16c9e78be98e494af93b2a64162b574885",
    "O:shell": "fc4b443340626515b9c1634f9cc0baf6febbdbf85eaf9393a3065be8f6fed0b1",
    "W:scheduling":
        "4dbc31766c3b39f90c036c40e4b32248c36e4f11767c71e496d0732447d8a280",
    # Hypervisor runs, recorded before vCPU slices ran through
    # Machine.step: a guest CPU must bill exactly as its own loop did.
    # The 1 ms slices (947 vCPU switches) end most guest engine runs at
    # the slice boundary rather than at a guest event.
    "vm:W:none":
        "b12b1d4f8b889de51107fe8fe8cedb321871b5ca433ea2b150be77eaa6af51a3",
    "vm:W:vm-sched":
        "4bc48962f4fe2c507830f4769eb67a9954974c3358c1588721acc4c038f04525",
    "vm:W:vm-sched:steal-lie":
        "f128fad454fc59c569b8590f15e7be69d1a77b64a80049e49a2c4c39083ec8e6",
    "vm:W:vm-sched:1ms-slices":
        "5cd49e42e3a378a10dde37af2981a2b981c23db54cf450039d2f961e78e8428c",
}

#: ScenarioReport.digest() for the scenario random.Random(777) draws.
GOLDEN_FUZZ_DIGEST = \
    "ec0eaf7997b1908dd585dfa6c358c0ddd478bb6907a6ffd7c68cd6c9c39a14c6"

#: Canonical trace-log JSON for O at scale 0.05 with the "task" category.
GOLDEN_TRACE_DIGEST = \
    "4aabd3d78177e467c0a5fc471d20f48966164866ad282eb50c5789c1176b0771"
GOLDEN_TRACE_RECORDS = 3


def _pinned_specs():
    params = paper_workload_params(SCALE)
    return {
        "O:none": ExperimentSpec(program="O", program_kwargs=params["O"]),
        "W:none": ExperimentSpec(program="W", program_kwargs=params["W"]),
        "O:shell": ExperimentSpec(
            program="O", program_kwargs=params["O"], attack="shell",
            attack_kwargs={"payload_cycles": 50_000_000}),
        "W:scheduling": ExperimentSpec(
            program="W", program_kwargs=params["W"], attack="scheduling",
            attack_kwargs={"nice": -20, "forks": 400}),
        "vm:W:none": ExperimentSpec(
            program="W", program_kwargs=params["W"], vm={}),
        "vm:W:vm-sched": ExperimentSpec(
            program="W", program_kwargs=params["W"], vm={},
            attack="vm-sched"),
        "vm:W:vm-sched:steal-lie": ExperimentSpec(
            program="W", program_kwargs=params["W"], vm={},
            attack="vm-sched", faults={"steal_lie_factor": 0.5},
            check_invariants=True),
        "vm:W:vm-sched:1ms-slices": ExperimentSpec(
            program="W", program_kwargs=params["W"],
            vm={"slice_ns": 1_000_000, "tick_ns": 333_333},
            attack="vm-sched", check_invariants=True),
    }


def test_spec_keys_bit_identical_to_pre_smp_seed():
    """Cache keys must survive the SMP layer: nproc=1 hashes without the
    field, so every result cached before the layer existed still hits."""
    keys = {name: spec_key(spec) for name, spec in _pinned_specs().items()}
    assert keys == GOLDEN_SPEC_KEYS


def test_explicit_nproc_1_is_key_neutral():
    """Spelling nproc=1 out loud is the same spec as omitting it."""
    params = paper_workload_params(SCALE)
    implicit = ExperimentSpec(program="O", program_kwargs=params["O"])
    explicit = ExperimentSpec(program="O", program_kwargs=params["O"],
                              nproc=1)
    assert spec_key(implicit) == spec_key(explicit)
    assert spec_key(
        ExperimentSpec(program="O", program_kwargs=params["O"], nproc=2)
    ) != spec_key(implicit)


@pytest.mark.parametrize("name", sorted(GOLDEN_RESULT_DIGESTS))
def test_results_bit_identical_to_pre_smp_seed(name):
    """The full result document — invoices, oracle ledger, stats — must be
    byte-identical to the pre-SMP tree for uniprocessor runs."""
    result = run_spec(_pinned_specs()[name])
    doc = json.dumps(result.to_dict(), sort_keys=True,
                     separators=(",", ":"))
    digest = hashlib.sha256(doc.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_RESULT_DIGESTS[name], (
        f"{name}: nproc=1 result drifted from the pre-SMP seed")
    # The SMP stats keys are gated on nproc > 1 — they must not appear.
    for key in ("nproc", "migrations_total", "balance_moves",
                "attacker_oracle_ns"):
        assert key not in result.stats


def test_fuzz_scenario_bit_identical_to_pre_smp_seed():
    """Pinned-seed fuzz scenarios replay bit-identically.

    Ride-along dimensions (SMP's nproc, then timesync) are drawn *after*
    every pre-SMP field in generate_scenario, so those fields are
    identical for a given master seed; at nproc=1 with no time plane the
    encoding (and hence the digest) carries neither key.
    """
    scenario = generate_scenario(random.Random(777))
    if scenario.nproc != 1:  # the ride-along draw may pick 2 or 4
        scenario = replace(scenario, nproc=1)
    if scenario.timesync is not None:  # ditto the timesync ride-along
        scenario = replace(scenario, timesync=None)
    doc = scenario.to_dict()
    assert "nproc" not in doc
    assert "timesync" not in doc
    assert doc == {
        "seed": 1336257386,
        "hz": 100,
        "accounting": "dual",
        "process_aware": True,
        "charge_switch_to": "next",
        "program": "W",
        "program_kwargs": {"loops": 160},
        "attack": "scheduling",
        "attack_kwargs": {"nice": -10, "forks": 160},
        "schedulers": ["cfs", "o1", "rr"],
        "inject": None,
        "faults": None,
    }
    report = run_scenario(scenario)
    assert report.ok, report.failures
    assert report.digest() == GOLDEN_FUZZ_DIGEST


def test_trace_json_bit_identical_to_pre_smp_seed():
    """Structured trace output (category, message, pid, data payload) is
    part of the replay surface and must not drift at nproc=1."""
    params = paper_workload_params(SCALE)
    box = {}
    run_experiment(make_paper_program("O", **params["O"]), trace=("task",),
                   machine_hook=lambda m: box.__setitem__("m", m))
    log = box["m"].trace_log
    records = log.records()
    assert len(records) == GOLDEN_TRACE_RECORDS
    doc = json.dumps(
        [{"t": r.time_ns, "c": r.category, "m": str(r.message),
          "pid": r.pid, "data": [[k, repr(v)] for k, v in r.data]}
         for r in records],
        sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(doc.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_TRACE_DIGEST
