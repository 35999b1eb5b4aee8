"""Declarative chaos schedules.

A :class:`ChaosSpec` is a plain frozen dataclass describing every fault a
run should suffer: correlated rack failures, eviction storms, token-supply
shocks, profile drift, and control-plane faults.  Being declarative (and
JSON round-trippable via :mod:`repro.persist`), the same schedule can be
attached to an experiment config, shipped to worker processes, checked into
a scenario library, or passed to the CLI as ``repro run --chaos spec.json``.

The ``intensity`` field is a global dial: :meth:`ChaosSpec.effective`
folds it into every injector's magnitude (failure counts, demand
fractions, drift factors, fault probabilities, blackout durations), so an
experiment can sweep one number from "calm" (0) past "as configured" (1)
into "worse than configured" (>1) without editing the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Sequence, Tuple

from repro import persist
from repro.settable import Amount, Fraction, NonNegative, Positive, check, refuse


class ChaosError(ValueError):
    """Raised for malformed or unsatisfiable chaos specifications."""


def _scaled_window(start: float, end: float, intensity: float) -> Tuple[float, float]:
    """Scale a window's *duration* (anchored at its start) by ``intensity``."""
    return (start, start + (end - start) * intensity)


@dataclass(frozen=True)
class RackFailure:
    """Fail a batch of machines at once — a rack/PDU/switch loss, not the
    independent Poisson crashes :class:`~repro.cluster.failures.FailureInjector`
    already models."""

    at: NonNegative
    #: An amount, not a count: ``intensity`` 0 rounds it to 0.
    count: Amount = 4
    #: Explicit machine ids; empty means "a contiguous block of ``count``
    #: machines starting at ``first_machine`` (or a seeded random start)".
    machines: Tuple[int, ...] = ()
    first_machine: Optional[Amount] = None
    repair_seconds: Positive = 300.0

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        check(self, ChaosError)


@dataclass(frozen=True)
class EvictionStorm:
    """A heavyweight competitor floods the spare-token market during
    [start, end): the SLO job's spare-token tasks get squeezed out."""

    start: NonNegative
    end: NonNegative
    #: Peak demand as a fraction of pool capacity.
    demand_fraction: Fraction = 0.5
    weight: Positive = 2000.0

    def __post_init__(self):
        check(self, ChaosError)
        if self.end < self.start:
            raise ChaosError(f"bad storm window [{self.start}, {self.end})")


@dataclass(frozen=True)
class TokenShock:
    """A competing reservation grabs *guaranteed* tokens during
    [start, end), shrinking the headroom the arbiter can grant the SLO
    job — its allocation requests come back clamped."""

    start: NonNegative
    end: NonNegative
    #: Guaranteed tokens seized, as a fraction of pool capacity.
    guaranteed_fraction: Fraction = 0.4

    def __post_init__(self):
        check(self, ChaosError)
        if self.end < self.start:
            raise ChaosError(f"bad shock window [{self.start}, {self.end})")


@dataclass(frozen=True)
class ProfileDrift:
    """At time ``at`` the live job's task costs drift away from the trained
    profile by ``factor`` (input growth, hot data node, code regression)."""

    at: NonNegative
    factor: Positive = 1.5
    #: Stages to scale; empty means every stage.
    stages: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        check(self, ChaosError)


@dataclass(frozen=True)
class ControlFaults:
    """Control-plane misbehaviour: allocator ticks dropped or delayed, and
    windows where the C(p, a) predictor is unreachable entirely."""

    drop_tick_prob: Fraction = 0.0
    delay_tick_prob: Fraction = 0.0
    delay_seconds: NonNegative = 20.0
    #: [start, end) windows where the predictor raises
    #: :class:`~repro.core.control.PredictorUnavailable`.
    blackouts: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "blackouts", tuple((float(s), float(e)) for s, e in self.blackouts)
        )
        check(self, ChaosError)
        if self.drop_tick_prob + self.delay_tick_prob > 1:
            raise ChaosError("drop_tick_prob + delay_tick_prob exceeds 1")
        # Written so a NaN end fails it: the injector drops a window it
        # cannot order, and the run would silently have no blackout.
        if not all(0 <= start <= end < math.inf for start, end in self.blackouts):
            refuse(self, "blackouts", "[start, end) windows with "
                   "0 <= start <= end, both finite", ChaosError)


@dataclass(frozen=True)
class ChaosSpec:
    """A full chaos schedule for one run."""

    name: str = "chaos"
    intensity: NonNegative = 1.0
    rack_failures: Tuple[RackFailure, ...] = ()
    eviction_storms: Tuple[EvictionStorm, ...] = ()
    token_shocks: Tuple[TokenShock, ...] = ()
    profile_drifts: Tuple[ProfileDrift, ...] = ()
    control_faults: ControlFaults = field(default_factory=ControlFaults)

    def __post_init__(self):
        for attr in ("rack_failures", "eviction_storms", "token_shocks",
                     "profile_drifts"):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))
        check(self, ChaosError)

    # ------------------------------------------------------------------

    def effective(self) -> "ChaosSpec":
        """The schedule with ``intensity`` folded into every magnitude
        (and reset to 1).  ``intensity=0`` yields a no-op schedule."""
        x = self.intensity
        if x == 1.0:
            return self
        cf = self.control_faults
        drop = min(1.0, cf.drop_tick_prob * x)
        delay = min(1.0 - drop, cf.delay_tick_prob * x)
        return replace(
            self,
            intensity=1.0,
            rack_failures=tuple(
                replace(
                    rf,
                    count=int(round(rf.count * x)),
                    machines=rf.machines[: int(round(len(rf.machines) * x))],
                )
                for rf in self.rack_failures
            ),
            eviction_storms=tuple(
                replace(s, demand_fraction=min(1.0, s.demand_fraction * x))
                for s in self.eviction_storms
            ),
            token_shocks=tuple(
                replace(s, guaranteed_fraction=min(1.0, s.guaranteed_fraction * x))
                for s in self.token_shocks
            ),
            profile_drifts=tuple(
                replace(d, factor=max(0.05, 1.0 + (d.factor - 1.0) * x))
                for d in self.profile_drifts
            ),
            control_faults=replace(
                cf,
                drop_tick_prob=drop,
                delay_tick_prob=delay,
                blackouts=tuple(
                    _scaled_window(s, e, x) for s, e in cf.blackouts
                ),
            ),
        )

    def validate(
        self,
        *,
        num_machines: Optional[int] = None,
        stage_names: Optional[Sequence[str]] = None,
    ) -> None:
        """Cross-check the schedule against a concrete cluster/job.  Raises
        :class:`ChaosError` naming the offending reference."""
        if num_machines is not None:
            for rf in self.rack_failures:
                for machine in rf.machines:
                    if not 0 <= machine < num_machines:
                        raise ChaosError(
                            f"rack failure references unknown machine "
                            f"{machine} (cluster has {num_machines})"
                        )
                if rf.first_machine is not None and rf.first_machine >= num_machines:
                    raise ChaosError(
                        f"rack failure starts at unknown machine "
                        f"{rf.first_machine} (cluster has {num_machines})"
                    )
        if stage_names is not None:
            known = set(stage_names)
            for drift in self.profile_drifts:
                for stage in drift.stages:
                    if stage not in known:
                        raise ChaosError(
                            f"profile drift references unknown stage "
                            f"{stage!r} (job has {sorted(known)})"
                        )


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------

def _item_to_dict(item) -> Dict:
    out = {}
    for f in fields(item):
        value = getattr(item, f.name)
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out[f.name] = value
    return out


def spec_to_dict(spec: ChaosSpec) -> Dict:
    """Serialize a :class:`ChaosSpec` to a JSON-ready dict."""
    return {
        "name": spec.name,
        "intensity": spec.intensity,
        "rack_failures": [_item_to_dict(rf) for rf in spec.rack_failures],
        "eviction_storms": [_item_to_dict(s) for s in spec.eviction_storms],
        "token_shocks": [_item_to_dict(s) for s in spec.token_shocks],
        "profile_drifts": [_item_to_dict(d) for d in spec.profile_drifts],
        "control_faults": _item_to_dict(spec.control_faults),
    }


def spec_from_dict(data: Dict) -> ChaosSpec:
    """Parse a dict produced by :func:`spec_to_dict` (or hand-written
    JSON): every field is typed by its dataclass annotation
    (:func:`repro.persist.spec_object`).  Raises :class:`ChaosError` on
    any malformed content."""
    return persist.spec_object(data, ChaosSpec, ChaosError)


__all__ = [
    "ChaosError",
    "ChaosSpec",
    "ControlFaults",
    "EvictionStorm",
    "ProfileDrift",
    "RackFailure",
    "TokenShock",
    "spec_from_dict",
    "spec_to_dict",
]
