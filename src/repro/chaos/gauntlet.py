"""The chaos gauntlet: prove the resilience claims against live faults.

``repro chaos`` boots one *real* serve daemon per shard — each with the
chaos plan's store/worker/HTTP fault injectors installed — points the
sharded fleet client at them with one endpoint deliberately dead, and
asserts the properties docs/chaos.md promises, live:

* the sweep completes: every live shard comes home despite injected
  store errors, worker crashes and HTTP faults (absorbed), and the dark
  shard is *declared* in the merged report's coverage section;
* crash-and-retry never double-bills — every surviving store passes its
  integrity check (conservation law included);
* chaos changes *when* answers arrive, never *what* they are: each
  surviving shard's aggregate state is bit-identical to a chaos-free
  in-process run of the same host span;
* the empty plan is an identity: ``normalize_chaos`` collapses it to
  None, and a fully-covered sharded sweep reproduces the serial report
  byte for byte.

Every observation lands in the same ``[PASS]/[FAIL]`` check list the
serve selftest uses, and ``repro chaos`` exits non-zero on any failure.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from typing import Any, Dict, List, Optional

from ..checks import CheckList
from ..fleet import FleetSpec, fleet_key, run_fleet
from ..fleet.shard import ShardClient, ShardOutcome, merged_report, \
    shard_fleet_local, shard_ranges
from ..serve.api import ReproServer
from ..serve.service import MeteringService
from ..serve.store import UsageStore
from ..verify.chaos import check_chaos_report
from .inject import ChaosInjector, ChaosStoreProxy
from .plan import ChaosPlan, gauntlet_plan, normalize_chaos
from .resilience import BackoffPolicy, ResilientStore

#: Gauntlet fleet specs: small enough for CI, rich enough to populate
#: every mix stratum and make the fault probabilities bite many times.
QUICK_FLEET = dict(hosts=6, guests=1, prevalence=0.4, seed=7, scale=0.02)
FULL_FLEET = dict(hosts=10, guests=2, prevalence=0.3, seed=11, scale=0.04)


def _canon(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True)


def _dead_endpoint() -> str:
    """An address nothing listens on (bound once to reserve, then freed) —
    the gauntlet's hard-down shard endpoint."""
    sock = socket.socket()
    try:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    finally:
        sock.close()
    return f"http://127.0.0.1:{port}"


class _ChaoticServer:
    """One serve daemon with the full chaos stack installed:
    ``UsageStore → ChaosStoreProxy → ResilientStore → MeteringService``,
    plus HTTP- and worker-level injection from the same seeded injector."""

    def __init__(self, index: int, db: str, plan: ChaosPlan) -> None:
        self.index = index
        self.base_store = UsageStore(db)
        self.injector = ChaosInjector(plan, scope=f"gauntlet{index}")
        resilient = ResilientStore.from_plan(
            ChaosStoreProxy(self.base_store, self.injector), plan)
        self.service = MeteringService(resilient, jobs=2,
                                       chaos=self.injector)
        self.server = ReproServer(self.service, chaos=self.injector)
        self.server.start_background()

    @property
    def endpoint(self) -> str:
        return self.server.address

    def close(self) -> None:
        self.server.close()


def run_gauntlet(db_dir: str, intensity: float = 0.4, shards: int = 3,
                 seed: int = 2010, quick: bool = False,
                 quiet: bool = False) -> Dict[str, Any]:
    """Run the full gauntlet; return the report doc (``passed``,
    ``checks``, the plan, coverage and injected-fault counts)."""
    checks = CheckList(echo=None if quiet else print)

    os.makedirs(db_dir, exist_ok=True)
    fleet = FleetSpec(**(QUICK_FLEET if quick else FULL_FLEET))
    down = shards - 1
    plan = gauntlet_plan(intensity, seed=seed, down_shards=(down,))
    ranges = shard_ranges(fleet.hosts, shards)

    servers: List[Optional[_ChaoticServer]] = []
    endpoints: List[str] = []
    for index in range(shards):
        if index in plan.down_shards:
            servers.append(None)
            endpoints.append(_dead_endpoint())
        else:
            server = _ChaoticServer(
                index, os.path.join(db_dir, f"shard{index}.db"), plan)
            servers.append(server)
            endpoints.append(server.endpoint)

    client = ShardClient(endpoints, policy=BackoffPolicy.from_plan(plan),
                         deadline_s=60.0 if quick else 180.0,
                         poll_interval_s=0.02, failover=False)
    outcomes: List[Optional[ShardOutcome]] = [None] * shards

    def run_one(index: int) -> None:
        outcomes[index] = client.run_shard(fleet, index, ranges[index])

    try:
        threads = [threading.Thread(target=run_one, args=(i,),
                                    name=f"gauntlet-shard-{i}")
                   for i in range(shards)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done = [o for o in outcomes if o is not None]
        report = merged_report(fleet, done, shards)

        live = [o for o in done if o.index not in plan.down_shards]
        dark = [o for o in done if o.index in plan.down_shards]
        checks.add("every live shard completes under chaos",
                   all(o.status == "ok" for o in live),
                   "; ".join(f"shard {o.index}: {o.status}"
                             f" ({o.error or 'clean'})" for o in live))
        checks.add("the dark shard fails within its bounded budget",
                   all(o.status == "failed" for o in dark),
                   f"statuses={[o.status for o in dark]}")

        injected = {f"shard{s.index}": s.injector.injected_by_site()
                    for s in servers if s is not None}
        injected_total = sum(sum(counts.values())
                             for counts in injected.values())
        absorbed = sum(o.faults_absorbed for o in live)
        checks.add("faults were actually injected",
                   injected_total > 0,
                   f"{injected_total} injected: {injected}")
        checks.add("client absorbed faults on the way",
                   absorbed > 0, f"{absorbed} absorbed across live shards")

        coverage = report["coverage"]
        dark_hosts = sum(hi - lo for i, (lo, hi) in enumerate(ranges)
                         if i in plan.down_shards)
        checks.add("report declares the coverage gap",
                   coverage["grade"] == "PARTIAL"
                   and coverage["hosts_covered"] == fleet.hosts - dark_hosts
                   and report.get("population_covered")
                   == coverage["population_covered"],
                   f"grade={coverage['grade']} "
                   f"hosts={coverage['hosts_covered']}/"
                   f"{coverage['hosts_total']}")
        problems = check_chaos_report(report)
        checks.add("coverage arithmetic verifies", not problems,
                   f"problems={problems}" if problems else
                   "check_chaos_report found nothing")

        for server in servers:
            if server is None:
                continue
            integrity = server.base_store.integrity_check()
            checks.add(f"shard {server.index} store: no double billing",
                       integrity["ok"], f"problems={integrity['problems']}")

        for outcome in live:
            reference = run_fleet(fleet, host_range=outcome.host_range)
            checks.add(f"shard {outcome.index} state bit-identical to "
                       f"chaos-free run",
                       outcome.state is not None
                       and _canon(outcome.state)
                       == _canon(reference.to_state()),
                       f"hosts {outcome.host_range[0]}-"
                       f"{outcome.host_range[1]}, "
                       f"{outcome.faults_absorbed} faults absorbed on the way")
    finally:
        for server in servers:
            if server is not None:
                server.close()

    # -- empty-plan identity (no servers involved) -------------------------
    checks.add("empty plan normalises to None (identity path)",
               normalize_chaos(ChaosPlan(seed=seed)) is None
               and normalize_chaos(None) is None
               and normalize_chaos(plan) is plan,
               "normalize_chaos keeps the chaos-free path wrapper-free")
    checks.add("unsharded fleet key unchanged by the sharding plumbing",
               fleet_key(fleet) == fleet_key(fleet, host_range=None),
               fleet_key(fleet)[:16])

    serial = run_fleet(fleet).report()
    local = shard_fleet_local(fleet, shards)
    local_coverage = local.pop("coverage")
    # distinct_runs / failed_runs count simulations *executed*, which
    # depends on how the hosts were partitioned (one identity can appear
    # in several shards); every population statistic must be exact.
    execution_telemetry = ("distinct_runs", "failed_runs")
    serial_stats = {k: v for k, v in serial.items()
                    if k not in execution_telemetry}
    local_stats = {k: v for k, v in local.items()
                   if k not in execution_telemetry}
    checks.add("fully-covered sharded statistics byte-identical to serial",
               _canon(local_stats) == _canon(serial_stats)
               and local_coverage["grade"] == "TRUSTED",
               f"grade={local_coverage['grade']}, "
               f"{len(_canon(serial_stats))} bytes compared")

    passed = checks.passed
    return {
        "command": "chaos",
        "quick": quick,
        "intensity": intensity,
        "shards": shards,
        "plan": plan.to_dict(),
        "passed": passed,
        "checks": checks.to_dicts(),
        "coverage": report["coverage"],
        "injected": injected,
    }
