"""Deterministic expansion of a :class:`FleetSpec` into experiment specs.

:func:`expand_fleet` walks the population host by host, drawing each
host's fate from its own seeded RNG stream (``fleet:<seed>:host:<i>``, so
host 17 of a 10k-host fleet is the same host in an 8-host prefix sweep),
and yields one :class:`FleetUnit` per metered guest slot.

The simulator is deterministic given a spec, so a population drawn from
finite mixes collapses to a *small* number of distinct spec identities no
matter how many hosts it covers — :func:`distinct_units` folds the
expansion stream into (unit, multiplicity) groups keyed by
:func:`~repro.runner.specs.spec_key`.  That is the trick that makes a
10k-host sweep tractable: run each distinct identity once, weight its
contribution by how many guests drew it.  Peak memory is bounded by the
mix cross-product, never by the host count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.figures import paper_workload_params
from ..errors import ReproError
from ..faults.plan import sweep_plan
from ..runner.specs import ExperimentSpec, spec_key
from ..timesync.spec import sweep_timesync
from .spec import FleetSpec


def check_host_range(fleet: FleetSpec,
                     host_range: Optional[Tuple[int, int]]
                     ) -> Optional[Tuple[int, int]]:
    """Validate a ``[lo, hi)`` host restriction against the fleet.

    ``None`` means the whole fleet and is passed through untouched — the
    unsharded paths never see a range at all, which is what keeps them
    byte-identical to the pre-sharding code.  An empty range (``lo ==
    hi``) is legal: it is the zero-coverage seed a shard merge starts
    from.
    """
    if host_range is None:
        return None
    try:
        lo, hi = int(host_range[0]), int(host_range[1])
    except (TypeError, ValueError, IndexError):
        raise ReproError(f"host_range must be a [lo, hi) pair, "
                         f"got {host_range!r}") from None
    if not 0 <= lo <= hi <= fleet.hosts:
        raise ReproError(f"host_range {[lo, hi]} out of bounds for a "
                         f"{fleet.hosts}-host fleet")
    return (lo, hi)

#: Process-level attack mounted on attacked bare-metal hosts (the paper's
#: §IV-B1 priority/fork scheduling attack); forks scale with the workload.
BARE_ATTACK = "scheduling"
BARE_ATTACK_NICE = -20
BARE_ATTACK_FORKS = 8_000


@dataclass(frozen=True)
class FleetUnit:
    """One metered guest slot: where it lives and what it runs."""

    host: int
    guest: int
    #: ``"vm"`` (hypervisor host) or ``"bare"`` (bare-metal host).
    kind: str
    workload: str
    #: An attacker is co-resident on this unit's host.
    attacked: bool
    #: Hardware-fault intensity drawn for the host (0.0 = honest).
    intensity: float
    spec: ExperimentSpec
    #: Network sync-attack target offset drawn for the host (0 = no
    #: time plane attached).
    sync_offset_ns: int = 0


def _draw(rng: random.Random, mix: Sequence[Tuple[Any, float]]) -> Any:
    """Weighted draw — one ``rng.random()`` per call, deterministic."""
    total = sum(weight for _, weight in mix)
    x = rng.random() * total
    acc = 0.0
    for value, weight in mix:
        acc += weight
        if x < acc:
            return value
    return mix[-1][0]


def _host_rng(fleet: FleetSpec, host: int) -> random.Random:
    # Seeding from a string hashes it through sha512 (random.seed
    # version 2): stable across processes, platforms and PYTHONHASHSEED.
    return random.Random(f"fleet:{fleet.seed}:host:{host}")


def _sync_active(fleet: FleetSpec) -> bool:
    """True when the sync mix can actually draw a nonzero offset."""
    return any(offset > 0 and weight > 0
               for offset, weight in fleet.sync_mix)


def expand_fleet(fleet: FleetSpec,
                 host_range: Optional[Tuple[int, int]] = None
                 ) -> Iterator[FleetUnit]:
    """Yield every guest slot of the population, in (host, guest) order.

    ``host_range`` restricts the walk to hosts ``[lo, hi)``.  Per-host
    draws come from each host's *own* seeded stream, so a restricted
    expansion yields exactly the same units those hosts produce in the
    full walk — shards of one fleet are prefix-stable by construction.

    A generator on purpose: expansion is O(1) memory regardless of the
    host count.  Draw order per host is fixed (attacked, kind, nproc,
    intensity, burn, then one workload per guest) so adding a mix never
    reshuffles the draws of unrelated dimensions.  The sync-attack
    offset draws from its own derived stream
    (``fleet:<seed>:host:<i>:sync``) — and only when the mix can draw a
    nonzero offset — so arming the time plane changes *which hosts are
    sync-attacked* without reshuffling who is attacked, what anyone
    runs, or any all-zero-mix population.
    """
    return (unit for _draw_key, unit in _expand_draws(fleet, host_range))


def _expand_draws(fleet: FleetSpec,
                  host_range: Optional[Tuple[int, int]]
                  ) -> Iterator[Tuple[Tuple[str, str], FleetUnit]]:
    """The walk behind :func:`expand_fleet`, yielding ``(draw key,
    unit)``.

    Every spec is built from its workload plus one per-host mapping of
    the other spec arguments, and the draw key is the workload plus the
    ``repr`` of that same mapping (the label aside, and ``program_kwargs``
    is fixed per workload within one fleet).  So two slots with equal
    keys have equal spec keys.  ``repr`` rather than equality, because
    ``-0.0 == 0.0`` and ``1 == True``, yet each pair hashes to
    different spec documents.
    """
    workload_params = paper_workload_params(fleet.scale)
    forks = max(1, int(BARE_ATTACK_FORKS * fleet.scale))
    sync_active = _sync_active(fleet)
    host_range = check_host_range(fleet, host_range)
    lo, hi = host_range if host_range is not None else (0, fleet.hosts)

    for host in range(lo, hi):
        rng = _host_rng(fleet, host)
        attacked = rng.random() < fleet.prevalence
        kind = "vm" if rng.random() < fleet.vm_fraction else "bare"
        nproc = _draw(rng, fleet.nproc_mix)
        intensity = float(_draw(rng, fleet.fault_mix))
        burn = float(_draw(rng, fleet.burn_mix))
        faults = (sweep_plan(intensity, watchdog=True).to_dict()
                  if intensity > 0 else None)
        sync_offset = 0
        if sync_active and kind == "bare":
            sync_rng = random.Random(f"fleet:{fleet.seed}:host:{host}:sync")
            sync_offset = int(_draw(sync_rng, fleet.sync_mix))
        timesync = (sweep_timesync(sync_offset).to_dict()
                    if sync_offset > 0 else None)
        if kind == "vm":
            host_args = dict(
                attack="vm-sched" if attacked else None,
                attack_kwargs={"burn_fraction": burn} if attacked else {},
                vm={}, faults=faults)
        else:
            host_args = dict(
                attack=BARE_ATTACK if attacked else None,
                attack_kwargs=({"nice": BARE_ATTACK_NICE, "forks": forks}
                               if attacked else {}),
                nproc=nproc, faults=faults, timesync=timesync)
        host_key = repr(host_args)
        for guest in range(fleet.guests):
            workload = _draw(rng, fleet.workload_mix)
            label = (f"fleet:h{host}:g{guest}:{kind}:{workload}"
                     f"{':attacked' if attacked else ''}"
                     f"{f':sync={sync_offset}' if sync_offset else ''}")
            spec = ExperimentSpec(
                program=workload,
                program_kwargs=dict(workload_params[workload]),
                label=label, **host_args)
            yield (host_key, workload), FleetUnit(
                host=host, guest=guest, kind=kind, workload=workload,
                attacked=attacked, intensity=intensity, spec=spec,
                sync_offset_ns=sync_offset)


@dataclass(frozen=True)
class UnitGroup:
    """All guest slots sharing one spec identity."""

    key: str
    unit: FleetUnit  # the first-seen representative
    weight: int      # guest slots drawing this identity


def distinct_units(fleet: FleetSpec,
                   host_range: Optional[Tuple[int, int]] = None
                   ) -> List[UnitGroup]:
    """Fold the expansion stream into distinct-identity groups.

    First-seen order, so the downstream run/aggregate order is a pure
    function of the fleet spec (and host range, when sharded).  The
    representative keeps the first unit's host/guest coordinates; its
    label is rewritten to carry the group's weight instead, since it now
    stands for many slots.

    ``spec_key`` is hashed once per distinct draw, not once per slot: a
    10k-slot fleet drawing from the default mixes has under a hundred.
    """
    groups: Dict[str, List[Any]] = {}
    order: List[str] = []
    keys: Dict[Tuple[str, str], str] = {}
    for draw_key, unit in _expand_draws(fleet, host_range):
        key = keys.get(draw_key)
        if key is None:
            key = keys[draw_key] = spec_key(unit.spec)
        entry = groups.get(key)
        if entry is None:
            groups[key] = [unit, 1]
            order.append(key)
        else:
            entry[1] += 1
    result: List[UnitGroup] = []
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
