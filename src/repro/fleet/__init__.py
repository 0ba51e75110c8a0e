"""Datacenter-scale population sweeps with streaming aggregation.

``repro.fleet`` turns a small declarative :class:`FleetSpec` (N hosts × M
guests, attacker prevalence, workload / fault / CPU-count mixes — all
seeded) into a deterministic simulated datacenter, runs the distinct spec
identities it collapses to through the standard batch runner, and folds
the population-weighted results into mergeable sketches so the report for
10k hosts costs the memory of 10.  See ``docs/fleet.md``.
"""

from .._lazy import lazy_exports
from .aggregate import (
    FLEET_REPORT_SCHEMA,
    FLEET_STATE_SCHEMA,
    FleetAggregator,
)
from .expand import (
    FleetUnit,
    UnitGroup,
    check_host_range,
    distinct_units,
    expand_fleet,
)
from .runner import run_fleet
from .sketch import SKETCH_SCHEMA, HistogramSketch
from .spec import (
    FLEET_SCHEMA,
    FleetSpec,
    FleetSpecError,
    fleet_from_dict,
    fleet_identity,
    fleet_key,
)

# The shard client speaks HTTP to remote daemons: it loads on first use,
# so a local sweep never pays for http.client, urllib or the chaos plane.
__getattr__, __dir__, _shard_names = lazy_exports(__name__, {
    ".shard": ("FLEET_COVERAGE_SCHEMA", "GRADE_DEGRADED", "GRADE_PARTIAL",
               "GRADE_TRUSTED", "REPORT_GRADES", "ShardClient", "ShardError",
               "ShardOutcome", "ShardRequestError", "merged_report",
               "shard_fleet", "shard_fleet_local", "shard_ranges"),
})

__all__ = [
    "FLEET_REPORT_SCHEMA",
    "FLEET_SCHEMA",
    "FLEET_STATE_SCHEMA",
    "SKETCH_SCHEMA",
    "FleetAggregator",
    "FleetSpec",
    "FleetSpecError",
    "FleetUnit",
    "HistogramSketch",
    "UnitGroup",
    "check_host_range",
    "distinct_units",
    "expand_fleet",
    "fleet_from_dict",
    "fleet_identity",
    "fleet_key",
    "run_fleet",
] + _shard_names
