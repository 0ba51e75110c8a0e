"""Declarative, seeded, spec-serializable network time-sync attack plans.

A :class:`SyncAttackPlan` describes every deliberate misbehaviour of the
*network time plane* a run should suffer — the attack surface "Breaking
Precision Time: OS Vulnerability Exploits Against IEEE 1588" maps out for
PTP deployments:

* **delay asymmetry** — extra one-way delay injected on the master→slave
  path only.  Two-way exchange protocols assume symmetric paths, so an
  asymmetry of ``a`` biases every offset estimate by ``a/2`` and the servo
  faithfully steers the victim's clock that far off true time;
* **malicious (byzantine) master** — the grandmaster itself lies: its
  timestamps carry a constant offset and/or drift, and every slave follows;
* **timestamp tampering** — an on-path attacker rewrites individual
  protocol timestamps (t1/t4, the master-side pair that crosses the wire);
* **sync-packet loss** — exchange rounds are dropped, starving the servo.

The plan is a :class:`~repro.plans.FrozenPlan` like every other plane's:
plain frozen data, JSON round-trip with unknown-key rejection, an
``is_empty()`` notion collapsed by :func:`normalize_sync_plan` so the
no-attack path (and every pre-timesync cache key) stays bit-identical, and
a one-knob :func:`sweep_sync_plan` for figures and the CLI.

Determinism: probabilistic pieces (tamper draws, loss draws, link jitter)
read dedicated named RNG streams (``timesync:*``) of the run's
:class:`~repro.sim.rng.DeterministicRng`, so a plan plus a config seed
always reproduces the same sync history and never perturbs the draws any
other subsystem sees.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..plans import FrozenPlan


@dataclass(frozen=True)
class SyncAttackPlan(FrozenPlan):
    """One run's worth of deliberate time-plane misbehaviour.

    All-defaults is the *empty* plan: no attack hook is armed and the sync
    exchange is bit-identical to one without an attack layer at all.
    """

    # -- delay-asymmetry injection ----------------------------------------
    #: Extra one-way delay (ns) added to every master→slave packet.  The
    #: slave's offset estimate is biased by half of this, steering its
    #: clock *behind* true time by ``delay_asymmetry_ns / 2``.
    delay_asymmetry_ns: int = 0

    # -- malicious / byzantine master -------------------------------------
    #: Constant lie added to every timestamp the master produces; slaves
    #: converge onto the lie (their clocks end up *ahead* by this much).
    master_offset_ns: int = 0
    #: Frequency lie of the master's claimed time, in parts per billion;
    #: slaves are dragged along at this rate.
    master_drift_ppb: int = 0

    # -- timestamp tampering ----------------------------------------------
    #: Per-timestamp tampering probability for the wire-crossing stamps
    #: (t1 and t4 independently); draws come from ``timesync:tamper``.
    tamper_prob: float = 0.0
    #: Maximum magnitude of one tampered stamp's perturbation (uniform in
    #: ``[-tamper_ns, +tamper_ns]``).
    tamper_ns: int = 0

    # -- sync-packet loss --------------------------------------------------
    #: Probability an entire exchange round is lost (no servo update);
    #: draws come from ``timesync:loss``.
    loss_prob: float = 0.0

    KIND = "sync attack plan"
    UNIT_FIELDS = ("tamper_prob", "loss_prob")
    NONNEGATIVE_FIELDS = ("delay_asymmetry_ns", "tamper_ns")
    NEEDS_POSITIVE = (("tamper_prob", "tamper_ns"),)

    # -- structure queries -------------------------------------------------

    def is_empty(self) -> bool:
        """True when the plan attacks nothing."""
        return not (self.delay_asymmetry_ns or self.master_offset_ns
                    or self.master_drift_ppb or self.tamper_prob > 0
                    or self.loss_prob > 0)

    #: Steady-state clock offset (ns, signed) the deterministic attack
    #: components steer a converged slave to: the servo drives the offset
    #: *estimate* to zero, which plants the true offset at the estimate's
    #: bias.  Tampering and loss are noise, not bias, and contribute 0.
    def injected_offset_ns(self) -> int:
        return self.master_offset_ns - self.delay_asymmetry_ns // 2

    def describe(self) -> str:
        """Short human summary of the armed attack components."""
        parts = []
        if self.delay_asymmetry_ns:
            parts.append(f"delay-asym {self.delay_asymmetry_ns}ns")
        if self.master_offset_ns:
            parts.append(f"byzantine-master {self.master_offset_ns:+}ns")
        if self.master_drift_ppb:
            parts.append(f"master-drift {self.master_drift_ppb}ppb")
        if self.tamper_prob > 0:
            parts.append(f"tamper p={self.tamper_prob:g}"
                         f"<={self.tamper_ns}ns")
        if self.loss_prob > 0:
            parts.append(f"sync-loss p={self.loss_prob:g}")
        return ", ".join(parts) if parts else "no sync attack"


#: Coerce an attack argument (None, mapping or plan) to an active
#: :class:`SyncAttackPlan`, collapsing empty plans to None so the no-attack
#: exchange stays byte-identical to one without an attack layer.
normalize_sync_plan = SyncAttackPlan.normalize


def sweep_sync_plan(offset_ns: int) -> SyncAttackPlan:
    """The canonical one-knob plan used by the ``timesync`` figure and the
    timesync CLI: a pure delay-asymmetry attack steering the victim's
    clock ``offset_ns`` behind true time (the classic, hardest-to-detect
    IEEE 1588 attack — no packet is malformed, no timestamp is forged)."""
    if offset_ns < 0:
        raise ConfigError("sync sweep offset must be >= 0")
    return SyncAttackPlan(delay_asymmetry_ns=2 * offset_ns)
