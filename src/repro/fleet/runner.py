"""Drive a fleet sweep: expand, dedup, fan out, aggregate streamingly.

:func:`run_fleet` is the one entry point everything above it (CLI, figure,
serve endpoint, perfbench) shares.  It folds the population into distinct
spec identities (bounded by the mix cross-product, not the host count),
runs them in fixed-size chunks through the ordinary
:class:`~repro.runner.BatchRunner` — so fleet sweeps get the same result
cache, per-point timeouts, bounded retries and progress telemetry as every
other sweep — and streams each chunk's outcomes into a
:class:`FleetAggregator`.  At no point does a per-host result list exist:
peak memory is O(distinct identities + chunk), independent of ``hosts``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..runner.cache import ResultCache
from ..runner.pool import BatchRunner
from .aggregate import FleetAggregator
from .expand import UnitGroup, distinct_units
from .spec import FleetSpec

# A sweep's hosts run the fault, network-time and hypervisor planes.  They
# load with the entry point, so no module loads inside a sweep.
from ..faults import injectors as _fault_injectors  # noqa: F401
from ..timesync import host as _timesync_host  # noqa: F401
from ..virt import experiment as _vm_experiment  # noqa: F401

#: Specs submitted to the batch runner per chunk — small enough that the
#: in-flight outcome list stays trivial, large enough to keep a wide pool
#: busy between chunk barriers.
DEFAULT_CHUNK = 64


def run_fleet(fleet: FleetSpec,
              jobs: int = 1,
              cache: Optional[ResultCache] = None,
              timeout_s: Optional[float] = None,
              retries: int = 0,
              progress: Optional[object] = None,
              chunk_size: int = DEFAULT_CHUNK,
              runner: Optional[BatchRunner] = None,
              host_range: Optional[Tuple[int, int]] = None
              ) -> FleetAggregator:
    """Run the whole fleet and return its loaded aggregator.

    The caller renders ``.report()`` — kept separate so the serve layer
    can also bill from the aggregate totals.  Passing ``runner`` (the
    figures do) overrides the other runner knobs wholesale.
    ``host_range`` runs one shard (hosts ``[lo, hi)``) and returns a
    partial aggregator whose :meth:`~FleetAggregator.to_state` another
    process can merge — the cross-machine sharding path (docs/chaos.md).
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    groups = distinct_units(fleet, host_range=host_range)
    aggregator = FleetAggregator(fleet, host_range=host_range)
    if runner is None:
        runner = BatchRunner(jobs=jobs, cache=cache, timeout_s=timeout_s,
                             retries=retries, progress=progress)
    for start in range(0, len(groups), chunk_size):
        chunk: List[UnitGroup] = groups[start:start + chunk_size]
        outcomes = runner.run([group.unit.spec for group in chunk])
        for group, outcome in zip(chunk, outcomes):
            aggregator.add(group, outcome)
    return aggregator
