"""Deterministic chaos injection for SLO runs.

| module | contents |
|---|---|
| ``spec`` | declarative, JSON round-trippable chaos schedules |
| ``injectors`` | one injector class per fault family |
| ``engine`` | validation + wiring of a schedule into one run |

A schedule composes correlated rack failures, eviction storms,
token-supply shocks, profile drift, and control-plane faults (dropped or
delayed allocator ticks, predictor blackouts).  Every injector draws from
its own derived RNG substream, so a chaos run replays bit-identically for
a fixed (seed, spec) at any worker count.
"""

from repro.chaos.engine import ChaosEngine
from repro.chaos.injectors import drifted_profile
from repro.chaos.spec import (
    ChaosError,
    ChaosSpec,
    ControlFaults,
    EvictionStorm,
    ProfileDrift,
    RackFailure,
    TokenShock,
    spec_from_dict,
    spec_to_dict,
)

__all__ = [
    "ChaosEngine",
    "ChaosError",
    "ChaosSpec",
    "ControlFaults",
    "EvictionStorm",
    "ProfileDrift",
    "RackFailure",
    "TokenShock",
    "drifted_profile",
    "spec_from_dict",
    "spec_to_dict",
]
