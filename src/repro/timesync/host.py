"""Glue between a :class:`~repro.hw.machine.Machine` and the time plane.

:class:`MachineTimeSync` hangs one disciplined host off a
:class:`SyncNetwork`, drives exchange rounds from the machine's own event
queue (so sync traffic interleaves deterministically with ticks, packets
and disk completions), mirrors every servo action into the kernel's
:class:`~repro.kernel.timekeeping.TimeKeeper` via ``walltime_offset_ns``,
and at finalize cross-checks the whole ledger against the true-time
oracle — reporting any mismatch through the invariant checker as the
``timesync-conservation`` law.

The *billing* consequence is modelled the way a real cross-host metering
pipeline fails: the meter stamps a job's start on the coordinator
(master) clock and its end on the local synced clock, so the bill
absorbs the host's terminal clock offset.  With the defense armed, the
guest-side :class:`OffsetEstimator` supplies a correction (its servo
ledger clipped to the honest-oscillator envelope) and a declared
uncertainty; without it the skew lands on the invoice silently.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .netplane import LinkModel, OffsetEstimator, SyncNetwork
from .plan import normalize_sync_plan
from .spec import TimeSyncSpec


class MachineTimeSync:
    """Per-machine time-plane driver.  Constructed only when the run has
    an active (non-inert) :class:`TimeSyncSpec`; a machine without one
    contains none of this — bit-identical to the pre-timesync simulator."""

    def __init__(self, spec: TimeSyncSpec, machine) -> None:
        self.spec = spec
        # The parts of the machine this driver uses, not the machine:
        # the machine owns this driver, and a reference back would tie
        # the two into a cycle.  The checker and the watchdog are
        # installed before the time plane.
        self._clock = machine.clock
        self._events = machine.events
        self._timekeeper = machine.kernel.timekeeper
        self._checker = machine.invariant_checker
        self._watchdog = machine.watchdog
        self.network = SyncNetwork(
            machine.rng,
            attack=normalize_sync_plan(spec.attack),
            link=LinkModel(base_delay_ns=spec.link_delay_ns,
                           jitter_ns=spec.link_jitter_ns),
            start_ns=machine.clock.now)
        self.daemon = self.network.add_host(
            "guest", drift_ppb=spec.drift_ppb, protocol=spec.protocol,
            interval_ns=spec.interval_ns)
        self.estimator: Optional[OffsetEstimator] = (
            OffsetEstimator(self.daemon, start_ns=machine.clock.now)
            if spec.defense else None)
        self._finalized_at: Optional[int] = None
        self._timekeeper.sync_steered = True
        self._schedule_next()

    # -- the event-driven exchange grid ------------------------------------

    def _schedule_next(self) -> None:
        when = self._clock.now + self.daemon.interval_ns
        self._events.schedule(when, self._round, name="timesync-round")

    def _round(self) -> None:
        now = self._clock.now
        self.network.exchange(self.daemon, now)
        self._steer()
        if self.estimator is not None:
            self.estimator.observe_round(self._clock.now)
        self._schedule_next()

    def _steer(self) -> None:
        """Mirror the disciplined clock into the kernel's timekeeper, the
        way settimeofday/adjtimex land on CLOCK_REALTIME."""
        self._timekeeper.walltime_offset_ns = \
            self.daemon.clock.offset_ns

    # -- end of run --------------------------------------------------------

    def finalize(self, now_ns: int) -> None:
        """Settle the clock at the end of the run, run the conservation
        cross-check, and freeze the terminal offset for billing."""
        clock = self.daemon.clock
        # The last exchange may have committed the clock slightly past the
        # victim's exit instant (packet flight time); never rewind.
        clock.advance_to(max(now_ns, clock._committed_ns))
        self._steer()
        self._finalized_at = max(now_ns, clock._committed_ns)
        checker = self._checker
        if checker is not None:
            try:
                self.network.check_conservation(self._finalized_at)
            except Exception as exc:  # reported, not raised: checker policy
                checker.report("timesync-conservation", str(exc))
        else:
            self.network.check_conservation(self._finalized_at)

    # -- billing consequence -----------------------------------------------

    def billed_skew_ns(self) -> int:
        """Signed ns the cross-host bill is off by: the terminal clock
        offset, minus the estimator's correction when the defense is on."""
        end = self._finalized_at if self._finalized_at is not None \
            else self._clock.now
        skew = self.daemon.clock.offset_ns
        if self.estimator is not None:
            skew -= self.estimator.correction_ns(end)
        return skew

    def stats(self) -> Dict[str, Any]:
        """Integer counters for ``ExperimentResult.stats``; keys exist
        only on timesync-active runs, like fault and SMP stats."""
        end = self._finalized_at if self._finalized_at is not None \
            else self._clock.now
        doc: Dict[str, Any] = {
            "timesync_rounds": self.daemon.rounds,
            "timesync_lost_rounds": self.daemon.lost_rounds,
            "timesync_offset_ns": self.daemon.clock.offset_ns,
            "timesync_billed_skew_ns": self.billed_skew_ns(),
            "timesync_defense": int(self.estimator is not None),
        }
        if self.estimator is not None:
            est = self.estimator
            uncertainty = est.uncertainty_ns(end)
            watchdog = self._watchdog
            if watchdog is not None and watchdog.unstable:
                # Cross-check against the clocksource watchdog: when the
                # local time base itself was caught lying, the estimator's
                # ledger rests on it — widen and stop trusting.
                uncertainty += watchdog.total_uncertainty_ns()
            doc.update({
                "timesync_est_offset_ns": est.est_offset_ns(),
                "timesync_correction_ns": est.correction_ns(end),
                "timesync_uncertainty_ns": uncertainty,
                "timesync_trusted": est.trusted_rounds,
                "timesync_degraded": est.degraded_rounds,
                "timesync_untrusted": est.untrusted_rounds
                + (1 if watchdog is not None and watchdog.unstable else 0),
            })
        return doc
