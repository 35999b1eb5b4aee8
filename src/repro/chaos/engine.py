"""The chaos engine: validates a schedule, wires injectors into one run.

Construction folds the spec's global ``intensity`` into every injector's
magnitude, validates all machine/stage references against the concrete
cluster and job, and derives one named RNG substream per randomized
injector from the engine seed — the same discipline the model-building
pipeline uses, so a chaos run is a pure function of (seed, spec) at any
worker count.

    engine = ChaosEngine(spec, sim=sim, cluster=cluster,
                         manager=manager, policy=policy, seed=seed)
    engine.install()
    ...
    digest = engine.summary()
"""

from __future__ import annotations

from typing import Dict

from repro.chaos.injectors import (
    ControlFaultInjector,
    EvictionStormInjector,
    ProfileDriftInjector,
    RackFailureInjector,
    TokenShockInjector,
)
from repro.chaos.spec import ChaosSpec
from repro.cluster.cluster import Cluster
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry


class ChaosEngine:
    """Owns every injector for one run."""

    def __init__(
        self,
        spec: ChaosSpec,
        *,
        sim: Simulator,
        cluster: Cluster,
        manager,
        policy=None,
        seed: int = 0,
    ):
        self.spec = spec
        effective = spec.effective()
        effective.validate(
            num_machines=cluster.config.num_machines,
            stage_names=manager.graph.stage_names
            if hasattr(manager.graph, "stage_names")
            else [s.name for s in manager.graph.stages],
        )
        rng = RngRegistry(seed)
        self.rack_failures = RackFailureInjector(
            effective.rack_failures, sim, cluster, rng.stream("chaos:rack")
        )
        self.eviction_storms = EvictionStormInjector(
            effective.eviction_storms, sim, cluster
        )
        self.token_shocks = TokenShockInjector(
            effective.token_shocks, sim, cluster
        )
        self.profile_drifts = ProfileDriftInjector(
            effective.profile_drifts, sim, manager
        )
        self.control_faults = ControlFaultInjector(
            effective.control_faults, sim, policy, rng.stream("chaos:control")
        )
        self._manager = manager
        self._policy = policy
        self._installed = False

    def install(self) -> None:
        """Schedule every injector onto the event loop (idempotent)."""
        if self._installed:
            return
        self._installed = True
        self.rack_failures.install()
        self.eviction_storms.install()
        self.token_shocks.install()
        self.profile_drifts.install()
        self.control_faults.install()

    def tick_disposition(self):
        """Consulted by the runner before each control tick; see
        :meth:`ControlFaultInjector.tick_disposition`."""
        return self.control_faults.tick_disposition()

    def summary(self) -> Dict[str, float]:
        """Flat counters for digests and the run report's chaos section."""
        out: Dict[str, float] = {
            "spec_name": self.spec.name,
            "intensity": self.spec.intensity,
            "rack_batches": self.rack_failures.batches_fired,
            "machines_failed": self.rack_failures.machines_failed,
            "eviction_storms": self.eviction_storms.storms_started,
            "token_shocks": self.token_shocks.shocks_started,
            "tokens_seized_peak": self.token_shocks.tokens_seized_peak,
            "profile_drifts": self.profile_drifts.drifts_applied,
        }
        out.update(self.control_faults.counters())
        controller = getattr(self._policy, "controller", None)
        degraded = getattr(controller, "degraded_ticks", None)
        if degraded is not None:
            out["degraded_ticks"] = degraded
        manager = self._manager
        for attr in ("allocation_deficits", "allocation_retries"):
            value = getattr(manager, attr, None)
            if value is not None:
                out[attr] = value
        return out


__all__ = ["ChaosEngine"]
