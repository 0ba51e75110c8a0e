"""End-to-end tests for the VM scheduling attack, the steal estimator and
audit, spec/cache integration, and the ``repro vm`` CLI."""

import json
from http.client import HTTPConnection

import pytest

from repro.__main__ import main
from repro.metering.steal import (
    StealVerdict,
    audit_steal,
    audit_vm_result,
)
from repro.runner import ExperimentSpec
from repro.runner.specs import (
    SpecError,
    run_spec,
    spec_from_dict,
    spec_identity,
    spec_key,
)
from repro.timesync import sweep_timesync

WKW = {"loops": 800}
TICK = 10_000_000


def run_vm(**fields):
    """One VM spec for W at ``WKW`` (``vm={}`` unless given)."""
    fields.setdefault("vm", {})
    return run_spec(ExperimentSpec(program="W", program_kwargs=WKW,
                                   **fields))


@pytest.fixture(scope="module")
def baseline():
    return run_vm(check_invariants=True)


@pytest.fixture(scope="module")
def attacked():
    return run_vm(attack="sched", attack_kwargs={"burn_fraction": 0.75},
                  check_invariants=True)


class TestVmSchedAttack:
    def test_baseline_bill_tracks_run_time(self, baseline):
        assert baseline.attack == "none"
        assert abs(baseline.usage.total_ns
                   - baseline.stats["victim_ran_ns"]) <= 2 * TICK

    def test_victim_bill_inflates(self, baseline, attacked):
        assert attacked.usage.total_ns >= 2 * baseline.usage.total_ns

    def test_victim_work_did_not_change(self, baseline, attacked):
        base_ran = baseline.stats["victim_ran_ns"]
        assert attacked.stats["victim_ran_ns"] == pytest.approx(
            base_ran, rel=0.05)

    def test_attacker_billed_nearly_nothing(self, attacked):
        assert attacked.attacker_usage.total_ns <= 2 * TICK
        # ... while genuinely burning CPU.
        assert attacked.stats["attacker_ran_ns"] > 5 * TICK
        assert attacked.stats["attacker_iterations"] > 3

    def test_conservation_exact(self, baseline, attacked):
        assert baseline.stats["conservation_gap_ns"] == 0
        assert attacked.stats["conservation_gap_ns"] == 0

    def test_estimator_matches_reported_steal(self, attacked):
        est = attacked.stats["est_steal_ns"]
        rep = attacked.stats["reported_steal_ns"]
        assert attacked.stats["steal_samples"] > 0
        assert rep > 0
        assert abs(est - rep) <= max(4_000_000, 0.05 * rep)

    def test_unknown_vm_param_rejected(self):
        with pytest.raises(SpecError):
            run_vm(vm={"tick_nss": 1})

    def test_unknown_vm_attack_rejected(self):
        with pytest.raises(SpecError):
            run_vm(attack="shell")

    def test_unknown_attack_kwarg_rejected(self):
        with pytest.raises(SpecError):
            run_vm(attack="sched", attack_kwargs={"burn": 0.5})


class TestStealAudit:
    def test_attack_is_flagged_overbilled(self, attacked):
        report = audit_vm_result(attacked)
        assert report.verdict is StealVerdict.OVERBILLED
        assert report.overbilling_ns > 0
        assert "overbilled" in report.render()

    def test_baseline_is_consistent(self, baseline):
        assert audit_vm_result(baseline).verdict is StealVerdict.CONSISTENT

    def test_lying_steal_clock_flagged(self):
        report = audit_steal(est_steal_ns=500_000_000,
                             reported_steal_ns=0,
                             billed_ns=100, ran_ns=100)
        assert report.verdict is StealVerdict.MISREPORTED

    def test_non_vm_result_rejected(self, baseline):
        from dataclasses import replace

        not_vm = replace(baseline, stats={"exit_code": 0})
        with pytest.raises(ValueError):
            audit_vm_result(not_vm)


class TestVmSpecs:
    def _spec(self, **kw):
        base = dict(program="W", program_kwargs=WKW, attack="vm-sched",
                    attack_kwargs={"burn_fraction": 0.5}, vm={})
        base.update(kw)
        return ExperimentSpec(**base)

    def test_vm_key_in_identity(self):
        spec = self._spec(vm={"tick_ns": 5_000_000})
        identity = spec_identity(spec)
        assert identity["vm"] == {"tick_ns": 5_000_000}
        assert spec_identity(self._spec())["vm"] == {}

    def test_vm_knob_changes_cache_key(self):
        assert spec_key(self._spec()) != spec_key(
            self._spec(vm={"tick_ns": 5_000_000}))
        assert spec_key(self._spec()) != spec_key(self._spec(vm=None))

    def test_run_spec_dispatches_to_hypervisor(self):
        result = run_spec(self._spec())
        assert result.attack == "vm-sched"
        assert "victim_steal_ns" in result.stats

    def test_spec_name_prefixed(self):
        assert self._spec(label="").name == "vm:W:vm-sched"

    def test_deterministic_and_bit_identical(self):
        a = run_spec(self._spec())
        b = run_spec(self._spec())
        assert (json.dumps(a.to_dict(), sort_keys=True)
                == json.dumps(b.to_dict(), sort_keys=True))

    def test_custom_hypervisor_tick(self):
        result = run_spec(self._spec(vm={"tick_ns": 5_000_000}))
        # Finer tick → bill quantised to the finer grid.
        assert result.usage.total_ns % 5_000_000 == 0


#: VM spec documents a submission must refuse, as it refuses the same
#: mistakes on a bare spec.
BAD_VM_DOCS = {
    "unknown-program": {"program": "nope", "vm": {}},
    "bad-program-kwargs": {"program": "W", "vm": {},
                           "program_kwargs": {"bogus": 1}},
    "bad-attack-kwargs": {"program": "W", "vm": {}, "attack": "vm-sched",
                          "attack_kwargs": {"bogus": 1}},
    "nproc-2": {"program": "W", "vm": {}, "nproc": 2},
    "negative-tick": {"program": "W", "vm": {"tick_ns": -5}},
    "active-timesync": {"program": "W", "vm": {},
                        "timesync": sweep_timesync(1_000_000).to_dict()},
}


class TestVmSpecDocuments:
    @pytest.mark.parametrize("name", sorted(BAD_VM_DOCS))
    def test_rejected_at_submission(self, name):
        with pytest.raises(SpecError):
            spec_from_dict(BAD_VM_DOCS[name])

    def test_good_vm_doc_accepted(self):
        spec = spec_from_dict({"program": "W", "program_kwargs": WKW,
                               "vm": {"tick_ns": 5_000_000},
                               "attack": "sched",
                               "attack_kwargs": {"burn_fraction": 0.5}})
        assert spec.vm == {"tick_ns": 5_000_000}

    def test_serve_post_is_400(self, tmp_path):
        from repro.serve import MeteringService, ReproServer, UsageStore

        service = MeteringService(UsageStore(str(tmp_path / "u.db")), jobs=1)
        server = ReproServer(service)
        server.start_background()
        try:
            tid = service.register_tenant("alpha")["tenant_id"]
            conn = HTTPConnection("127.0.0.1", server.server_address[1],
                                  timeout=30)
            conn.request("POST", f"/v1/tenants/{tid}/jobs", json.dumps(
                {"spec": BAD_VM_DOCS["negative-tick"], "wait": True}),
                {"Content-Type": "application/json"})
            response = conn.getresponse()
            doc = json.loads(response.read())
            conn.close()
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert response.status == 400, doc
        assert "tick_ns" in doc["error"]


class TestVmFigure:
    def test_registered(self):
        from repro.analysis.figures import FIGURES, PAPER_REFERENCE

        assert "vmsched" in FIGURES
        assert "vmsched" in PAPER_REFERENCE

    def test_small_scale_passes(self):
        from repro.analysis.figures import run_figure

        fig = run_figure("vmsched", scale=0.1)
        assert fig.passed, fig.failed_checks()
        assert len(fig.series) == 5  # baseline + 4 burn fractions


class TestVmCli:
    def test_parse(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["vm", "--attack", "sched", "--burn-fraction", "0.5",
             "--scale", "0.1", "--check-invariants"])
        assert args.attack == "sched"
        assert args.burn_fraction == 0.5

    def test_end_to_end_with_report(self, tmp_path, capsys):
        out = tmp_path / "vm-report.json"
        rc = main(["vm", "--attack", "sched", "--scale", "0.1",
                   "--check-invariants", "--json", str(out)])
        captured = capsys.readouterr().out
        assert rc == 0, captured
        assert "STEAL AUDIT" in captured
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["attack"] == "vm-sched"
        assert doc["audit"]["verdict"] in ("overbilled", "consistent")
        assert all(c["passed"] for c in doc["checks"])

    def test_no_attack_mode(self, capsys):
        rc = main(["vm", "--attack", "none", "--scale", "0.1"])
        captured = capsys.readouterr().out
        assert rc == 0, captured
        assert "baseline" in captured
