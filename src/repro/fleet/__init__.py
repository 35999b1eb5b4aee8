"""Recurring-job fleet: cross-run profile store, online profile learning,
and drift-aware model refresh.

Production Jockey profiles a job *once*, then serves every later run of
the recurring template from that model.  This package closes the loop:

| module | contents |
|---|---|
| ``store`` | on-disk, versioned :class:`ProfileStore` of profile lineages |
| ``update`` | update policies (latest / EWMA) + drift detector |
| ``driver`` | N templates x M simulated days under the control loop |

Every completed run is re-profiled (:meth:`JobProfile.from_trace`) and
appended to its template's lineage; a KS/mean-shift drift test gates the
expensive C(p, a) rebuild so calm days ride the warm cache.
"""

from repro.fleet.driver import (
    MODEL_MODES,
    FleetConfig,
    FleetResult,
    FleetRunRecord,
    FleetTemplate,
    TemplateSummary,
    fleet_spec_from_dict,
    load_fleet_spec,
    run_fleet,
)
from repro.fleet.store import FleetError, FleetSpecError, Generation, ProfileStore
from repro.fleet.update import (
    UPDATE_POLICIES,
    DriftReport,
    StageDrift,
    detect_drift,
    ks_statistic,
    resolve_profile,
)

__all__ = [
    "DriftReport",
    "FleetConfig",
    "FleetError",
    "FleetResult",
    "FleetRunRecord",
    "FleetSpecError",
    "FleetTemplate",
    "Generation",
    "MODEL_MODES",
    "ProfileStore",
    "StageDrift",
    "TemplateSummary",
    "UPDATE_POLICIES",
    "detect_drift",
    "fleet_spec_from_dict",
    "ks_statistic",
    "load_fleet_spec",
    "resolve_profile",
    "run_fleet",
]
