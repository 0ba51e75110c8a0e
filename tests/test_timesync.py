"""The network time plane: sync protocol model, clock-offset attacks,
guest-side defense, and the identity/billing contracts around them.

Covers the attack plan's serialization and cache-identity contract, the
two-way exchange math, servo convergence (PTP and NTP), the exact-integer
conservation laws, the offset estimator's correction + trust grades, the
Machine/run_spec integration, the fleet sync mix, and the fuzz dimension.
See docs/timesync.md.
"""

import pytest

from repro.config import default_config
from repro.errors import ConfigError, SimulationError
from repro.fleet import FleetSpec
from repro.fleet.expand import distinct_units, expand_fleet
from repro.fleet.spec import fleet_from_dict
from repro.metering.billing import TrustReport
from repro.runner import ExperimentSpec, run_spec, spec_key
from repro.runner.specs import SpecError
from repro.sim.rng import DeterministicRng
from repro.timesync import (
    PTP_STEP_THRESHOLD_NS,
    LinkModel,
    LocalClock,
    OffsetEstimator,
    SyncAttackPlan,
    SyncNetwork,
    TimeSyncError,
    TimeSyncSpec,
    normalize_sync_plan,
    normalize_timesync,
    sweep_sync_plan,
    sweep_timesync,
)

SEC = 1_000_000_000


def _network(attack=None, jitter=0, seed=7, start_ns=0):
    return SyncNetwork(DeterministicRng(seed), attack=attack,
                       link=LinkModel(base_delay_ns=500_000,
                                      jitter_ns=jitter),
                       start_ns=start_ns)


def _busyloop_spec(jiffies=40, timesync=None, **kw):
    cfg = default_config()
    total = cfg.cpu_freq_hz * jiffies * cfg.tick_ns // SEC
    return ExperimentSpec(program="busyloop",
                          program_kwargs={"total_cycles": int(total),
                                          "chunk": 10_000_000},
                          timesync=timesync, **kw)


# ---------------------------------------------------------------------------
# the attack plan
# ---------------------------------------------------------------------------

class TestSyncAttackPlan:
    def test_roundtrip(self):
        plan = SyncAttackPlan(delay_asymmetry_ns=4_000_000,
                              master_offset_ns=1_000_000,
                              master_drift_ppb=30_000,
                              tamper_prob=0.2, tamper_ns=500_000,
                              loss_prob=0.1)
        assert SyncAttackPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_key_fails_loudly(self):
        with pytest.raises(ConfigError, match="delay_asym"):
            SyncAttackPlan.from_dict({"delay_asym": 1})

    @pytest.mark.parametrize("kwargs", [
        {"delay_asymmetry_ns": -1},
        {"tamper_prob": 1.5},
        {"tamper_prob": 0.2},        # no tamper_ns
        {"tamper_ns": -5},
        {"loss_prob": -0.1},
        {"loss_prob": 2.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SyncAttackPlan(**kwargs)

    def test_normalize_collapses_empty_to_none(self):
        assert normalize_sync_plan(None) is None
        assert normalize_sync_plan({}) is None
        assert normalize_sync_plan(SyncAttackPlan()) is None
        assert normalize_sync_plan(
            {"loss_prob": 0.5}) == SyncAttackPlan(loss_prob=0.5)

    def test_injected_offset(self):
        assert SyncAttackPlan(
            delay_asymmetry_ns=10_000_000).injected_offset_ns() == -5_000_000
        assert SyncAttackPlan(
            master_offset_ns=3_000_000).injected_offset_ns() == 3_000_000

    def test_sweep_targets_the_requested_offset(self):
        assert sweep_sync_plan(5_000_000).injected_offset_ns() == -5_000_000


# ---------------------------------------------------------------------------
# clocks and ledgers
# ---------------------------------------------------------------------------

class TestLocalClock:
    def test_drift_lands_in_the_drift_ledger(self):
        clock = LocalClock(drift_ppb=40_000)
        clock.advance_to(10 * SEC)
        assert clock.drift_ledger_ns == 400_000
        assert clock.offset_ns == 400_000
        assert clock.read(10 * SEC) == 10 * SEC + 400_000
        assert clock.conservation_error_ns() == 0

    def test_step_and_slew_use_separate_ledgers(self):
        clock = LocalClock()
        clock.step(-1_000_000, SEC)
        clock.set_freq(100_000, SEC)
        clock.advance_to(2 * SEC)
        assert clock.servo_step_ledger_ns == -1_000_000
        assert clock.servo_freq_ledger_ns == 100_000
        assert clock.offset_ns == -900_000
        assert clock.conservation_error_ns() == 0

    def test_backwards_advance_rejected(self):
        clock = LocalClock()
        clock.advance_to(SEC)
        with pytest.raises(TimeSyncError):
            clock.advance_to(SEC - 1)


# ---------------------------------------------------------------------------
# the exchange and the servo
# ---------------------------------------------------------------------------

class TestExchange:
    def test_honest_symmetric_link_estimates_zero(self):
        net = _network()
        daemon = net.add_host("h", drift_ppb=0)
        assert net.exchange(daemon, SEC) == 0
        assert daemon.clock.offset_ns == 0

    def test_delay_asymmetry_steers_to_the_injected_offset(self):
        net = _network(attack=sweep_sync_plan(5_000_000))
        daemon = net.add_host("h", drift_ppb=0)
        net.run(5 * SEC)
        assert daemon.clock.offset_ns == -5_000_000

    def test_byzantine_master_steers_exactly(self):
        net = _network(attack=SyncAttackPlan(master_offset_ns=2_000_000))
        daemon = net.add_host("h", drift_ppb=0)
        net.run(5 * SEC)
        assert daemon.clock.offset_ns == 2_000_000

    def test_ptp_servo_holds_a_drifting_clock_near_zero(self):
        net = _network()
        daemon = net.add_host("h", drift_ppb=40_000)
        net.run(30 * SEC)
        # Undisciplined, 40ppm over 30s is 1.2ms; the servo holds it to
        # well under a step threshold.
        assert abs(daemon.clock.offset_ns) < PTP_STEP_THRESHOLD_NS
        assert abs(daemon.clock.offset_ns) < 1_200_000 // 4

    def test_ntp_polls_slower_and_still_converges(self):
        net = _network(attack=sweep_sync_plan(5_000_000))
        ptp = net.add_host("p", protocol="ptp")
        ntp = net.add_host("n", protocol="ntp")
        net.run(10 * SEC)
        assert ntp.rounds < ptp.rounds
        assert ntp.clock.offset_ns == -5_000_000

    def test_loss_starves_rounds(self):
        net = _network(attack=SyncAttackPlan(loss_prob=0.7))
        daemon = net.add_host("h", drift_ppb=40_000)
        net.run(10 * SEC)
        assert daemon.lost_rounds > 0
        # lost rounds never reach the servo, but they are still attempts
        # on the grid: the two counters partition the schedule
        assert daemon.rounds + daemon.lost_rounds >= 90

    def test_tampering_is_deterministic(self):
        def terminal():
            net = _network(attack=SyncAttackPlan(tamper_prob=0.5,
                                                 tamper_ns=2_000_000),
                           seed=11)
            daemon = net.add_host("h")
            net.run(10 * SEC)
            return daemon.clock.offset_ns

        assert terminal() == terminal()
        assert terminal() != 0  # the lies landed


class TestConservation:
    @pytest.mark.parametrize("attack", [
        None,
        sweep_sync_plan(5_000_000),
        SyncAttackPlan(master_offset_ns=2_000_000, master_drift_ppb=30_000),
        SyncAttackPlan(tamper_prob=0.4, tamper_ns=1_000_000),
        SyncAttackPlan(loss_prob=0.5),
    ])
    def test_exact_under_every_attack(self, attack):
        net = _network(attack=attack, jitter=200_000)
        net.add_host("p", drift_ppb=40_000, protocol="ptp")
        net.add_host("n", drift_ppb=-20_000, protocol="ntp")
        net.run(10 * SEC)  # run() ends with check_conservation

    def test_corrupted_ledger_raises(self):
        net = _network()
        daemon = net.add_host("h")
        net.run(2 * SEC)
        daemon.issued_step_ns += 1
        with pytest.raises(TimeSyncError, match="issued"):
            net.check_conservation(2 * SEC)


# ---------------------------------------------------------------------------
# the defense
# ---------------------------------------------------------------------------

class TestOffsetEstimator:
    def test_honest_host_is_never_corrected(self):
        net = _network()
        daemon = net.add_host("h", drift_ppb=40_000)
        est = OffsetEstimator(daemon, start_ns=0)
        flight = net.max_flight_ns()
        due = daemon.interval_ns
        while due + flight <= 30 * SEC:
            net.exchange(daemon, due)
            est.observe_round(due + flight)
            due += daemon.interval_ns
        assert est.correction_ns(30 * SEC) == 0
        assert est.untrusted_rounds == 0

    def test_attack_is_estimated_graded_and_bounded(self):
        net = _network(attack=sweep_sync_plan(5_000_000))
        daemon = net.add_host("h", drift_ppb=40_000)
        est = OffsetEstimator(daemon, start_ns=0)
        flight = net.max_flight_ns()
        due = daemon.interval_ns
        while due + flight <= 30 * SEC:
            net.exchange(daemon, due)
            est.observe_round(due + flight)
            due += daemon.interval_ns
        daemon.clock.advance_to(30 * SEC)
        assert est.untrusted_rounds > 0
        correction = est.correction_ns(30 * SEC)
        residual = daemon.clock.offset_ns - correction
        assert abs(residual) <= est.uncertainty_ns(30 * SEC)
        # the correction recovers everything beyond the honest-oscillator
        # envelope: what's left is the envelope plus natural drift
        assert abs(residual) <= est.plausible_ns(30 * SEC) \
            + abs(daemon.clock.drift_ledger_ns)
        assert correction != 0


# ---------------------------------------------------------------------------
# spec + cache identity
# ---------------------------------------------------------------------------

class TestTimeSyncSpec:
    def test_roundtrip(self):
        spec = TimeSyncSpec(attack=sweep_sync_plan(2_000_000),
                            protocol="ntp", drift_ppb=10_000,
                            link_jitter_ns=50_000, defense=False)
        assert TimeSyncSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_fails_loudly(self):
        with pytest.raises(ConfigError, match="protocl"):
            TimeSyncSpec.from_dict({"protocl": "ptp"})

    def test_normalize_collapses_inert_to_none(self):
        assert normalize_timesync(None) is None
        assert normalize_timesync({}) is None
        assert normalize_timesync({"drift_ppb": 0}) is None
        assert normalize_timesync(
            {"drift_ppb": 1000}) == TimeSyncSpec(drift_ppb=1000)


class TestZeroTimesyncIdentity:
    def test_inert_specs_share_the_pre_timesync_cache_key(self):
        base = _busyloop_spec()
        assert spec_key(_busyloop_spec(timesync=None)) == spec_key(base)
        assert spec_key(_busyloop_spec(timesync={})) == spec_key(base)
        assert spec_key(
            _busyloop_spec(timesync={"drift_ppb": 0})) == spec_key(base)

    def test_active_spec_changes_the_key(self):
        base = _busyloop_spec()
        active = _busyloop_spec(timesync=sweep_timesync(5_000_000).to_dict())
        assert spec_key(active) != spec_key(base)

    def test_inert_spec_result_is_bit_identical(self):
        clean = run_spec(_busyloop_spec(jiffies=10))
        inert = run_spec(_busyloop_spec(jiffies=10, timesync={}))
        assert inert.to_dict() == clean.to_dict()

    def test_clean_runs_carry_no_timesync_stats(self):
        result = run_spec(_busyloop_spec(jiffies=10))
        assert not any(k.startswith("timesync") for k in result.stats)

    def test_unsteered_timekeeper_snapshot_has_no_walltime_key(self):
        from repro.hw.machine import Machine

        machine = Machine(default_config())
        assert "walltime_offset_ns" not in \
            machine.kernel.timekeeper.snapshot()

    def test_vm_specs_reject_timesync(self):
        with pytest.raises(SpecError, match="timesync"):
            run_spec(ExperimentSpec(
                program="busyloop",
                program_kwargs={"total_cycles": 1_000_000},
                vm={}, timesync=sweep_timesync(1_000_000).to_dict()))

    def test_bad_timesync_doc_rejected_at_parse(self):
        from repro.runner.specs import spec_from_dict

        doc = {"program": "busyloop",
               "program_kwargs": {"total_cycles": 1_000_000},
               "timesync": {"nonsense": 1}}
        with pytest.raises(SpecError, match="timesync"):
            spec_from_dict(doc)


# ---------------------------------------------------------------------------
# machine integration
# ---------------------------------------------------------------------------

class TestTimesyncExperiments:
    def _run(self, defense, jiffies=60):
        sync = sweep_timesync(5_000_000, defense=defense)
        return run_spec(_busyloop_spec(jiffies=jiffies,
                                       timesync=sync.to_dict()))

    def test_attack_steers_the_host_clock(self):
        result = self._run(defense=False)
        assert result.stats["timesync_rounds"] > 0
        assert result.stats["timesync_offset_ns"] == \
            pytest.approx(-5_000_000, abs=100_000)

    def test_undefended_bill_absorbs_the_skew(self):
        result = self._run(defense=False)
        assert result.stats["timesync_billed_skew_ns"] == \
            result.stats["timesync_offset_ns"]
        assert "timesync_uncertainty_ns" not in result.stats

    def test_defense_corrects_and_bounds_the_skew(self):
        result = self._run(defense=True)
        skew = result.stats["timesync_billed_skew_ns"]
        assert abs(skew) <= result.stats["timesync_uncertainty_ns"]
        assert abs(skew) < abs(result.stats["timesync_offset_ns"]) // 10

    def test_defense_degrades_trust(self):
        trust = TrustReport.from_stats(self._run(defense=True).stats)
        assert not trust.is_trusted
        assert trust.uncertainty_ns > 0
        assert trust.intervals_untrusted > 0

    def test_timesync_run_is_deterministic(self):
        assert self._run(defense=True, jiffies=20).to_dict() == \
            self._run(defense=True, jiffies=20).to_dict()

    def test_invariants_hold_under_sync_attack(self):
        sync = sweep_timesync(5_000_000)
        run_spec(_busyloop_spec(jiffies=20, timesync=sync.to_dict(),
                                check_invariants=True))

    def test_steered_timekeeper_exposes_walltime(self):
        result = self._run(defense=False, jiffies=20)
        # the steering leaves its mark in the cached snapshot stats
        assert result.stats["timesync_offset_ns"] != 0

    def test_timesync_figure_passes_its_shape_checks(self):
        from repro.analysis.figures import run_figure

        fig = run_figure("timesync", scale=0.1)
        assert fig.checks
        assert fig.passed, fig.failed_checks()


# ---------------------------------------------------------------------------
# fleet sync mix
# ---------------------------------------------------------------------------

class TestFleetSyncMix:
    def test_default_mix_attaches_no_time_plane(self):
        fleet = FleetSpec(hosts=12, seed=3)
        for unit in expand_fleet(fleet):
            assert unit.sync_offset_ns == 0
            assert unit.spec.timesync is None

    def test_arming_sync_does_not_reshuffle_the_population(self):
        base = FleetSpec(hosts=16, seed=3)
        armed = FleetSpec(hosts=16, seed=3,
                          sync_mix=((0, 0.5), (5_000_000, 0.5)))
        for plain, synced in zip(expand_fleet(base), expand_fleet(armed)):
            assert (plain.host, plain.guest) == (synced.host, synced.guest)
            assert plain.attacked == synced.attacked
            assert plain.kind == synced.kind
            assert plain.workload == synced.workload
            assert plain.intensity == synced.intensity

    def test_sync_attacks_land_on_bare_hosts_only(self):
        fleet = FleetSpec(hosts=40, seed=3,
                          sync_mix=((0, 0.2), (5_000_000, 0.8)))
        synced = [u for u in expand_fleet(fleet) if u.sync_offset_ns]
        assert synced, "0.8 prevalence over 40 hosts must hit someone"
        for unit in synced:
            assert unit.kind == "bare"
            assert unit.spec.timesync is not None
        labels = [g.unit.spec.label for g in distinct_units(fleet)]
        assert any(":sync=5000000:" in label for label in labels)

    def test_sync_mix_roundtrips_and_validates(self):
        fleet = FleetSpec(sync_mix=((0, 0.9), (1_000_000, 0.1)))
        assert fleet_from_dict(fleet.to_dict()) == fleet
        with pytest.raises(Exception, match="sync_mix"):
            FleetSpec(sync_mix=((-5, 1.0),))


# ---------------------------------------------------------------------------
# fuzz dimension
# ---------------------------------------------------------------------------

class TestFuzzTimesync:
    def test_scenarios_draw_the_dimension(self):
        import random

        from repro.verify.fuzz import generate_scenario

        rng = random.Random(2010)
        drawn = [generate_scenario(rng) for _ in range(60)]
        assert any(s.timesync for s in drawn)

    def test_sync_free_replay_doc_is_byte_identical(self):
        from repro.verify.fuzz import Scenario

        doc = Scenario(seed=1).to_dict()
        assert "timesync" not in doc
        assert "nproc" not in doc
        assert Scenario.from_dict(doc) == Scenario(seed=1)

    def test_timesync_scenario_replays_bit_identically(self):
        from repro.verify.fuzz import Scenario, run_scenario

        scenario = Scenario(
            seed=99, program="busyloop",
            program_kwargs={"total_cycles": 40_000_000,
                            "chunk": 10_000_000},
            schedulers=("cfs",),
            timesync=sweep_timesync(2_000_000).to_dict())
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.ok, first.failures
        assert first.digest() == second.digest()
