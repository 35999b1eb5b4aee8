"""The cluster facade: machines + token pool + background load + failures.

Plays the role of the production Cosmos cluster in the paper's evaluation:
a shared, oversubscribed environment whose spare capacity fluctuates outside
the SLO job's control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.cluster.background import BackgroundLoad, LoadEpisode, SpareSoaker
from repro.cluster.failures import FailureInjector
from repro.cluster.machine import MachinePark
from repro.cluster.tokens import TokenPool
from repro.settable import Amount, Count, Fraction, NonNegative, Positive, check
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for the simulated cluster.

    Defaults give a 400-slot cluster where background work is guaranteed
    300 tokens but *wants* ~380 on average, sometimes more than the whole
    cluster (statistical multiplexing and over-subscription, §2.1): spare
    capacity for SLO jobs is scarce and bursty, and the paper's 100-token
    guaranteed slice (§5.1) is exactly what remains reservable for them.
    """

    num_machines: Count = 100
    slots_per_machine: Count = 4
    background_guaranteed: Amount = 300
    background_mean_demand: Optional[NonNegative] = 430.0
    background_min_demand: Amount = 280
    background_max_demand: Optional[Amount] = 620
    background_volatility: NonNegative = 0.20
    background_mean_reversion: Fraction = 0.3
    background_resample_seconds: Positive = 45.0
    machine_mtbf_seconds: Optional[Positive] = 200_000.0
    repair_seconds: Positive = 300.0
    #: Aggregate fair-share weight of all *other* jobs with pending tasks;
    #: they compete with SLO jobs for spare tokens (0 disables).
    spare_soaker_weight: NonNegative = 400.0
    #: Tokens guarantee a task's CPU and memory but *not* network bandwidth
    #: or disk queue priority (§2.1).  When aggregate demand oversubscribes
    #: the cluster, every task — guaranteed or spare — slows down:
    #: runtime multiplier = 1 + coeff * max(0, demand/capacity - threshold).
    contention_coeff: NonNegative = 1.3
    contention_threshold: NonNegative = 1.0

    def __post_init__(self):
        check(self, ValueError)

    @property
    def total_slots(self) -> int:
        return self.num_machines * self.slots_per_machine


class Cluster:
    """Wires the substrate together and relays machine-failure events."""

    def __init__(
        self,
        sim: Simulator,
        config: ClusterConfig = ClusterConfig(),
        *,
        rng: Optional[RngRegistry] = None,
        episodes: Sequence[LoadEpisode] = (),
    ):
        self.sim = sim
        self.config = config
        self.rng = rng if rng is not None else RngRegistry(0)
        self.machines = MachinePark(
            config.num_machines, config.slots_per_machine, clock=lambda: sim.now
        )
        self.pool = TokenPool(self.machines.capacity, clock=lambda: sim.now)
        self.machines.listeners.append(self._on_machine_change)
        self._machine_down_listeners: List[Callable[[int], None]] = []
        #: Current task-runtime multiplier from cluster oversubscription
        #: (network/disk contention, which tokens do not shield, §2.1/§2.4).
        #: Kept by :meth:`_refresh_contention`, which runs whenever the
        #: background demand or the pool capacity changes.
        self.contention_factor = 1.0
        self.background: Optional[BackgroundLoad] = None
        if config.background_guaranteed > 0:
            self.background = BackgroundLoad(
                sim,
                self.pool,
                self.rng.stream("background"),
                guaranteed=config.background_guaranteed,
                mean_demand=config.background_mean_demand,
                min_demand=config.background_min_demand,
                max_demand=(
                    config.background_max_demand
                    if config.background_max_demand is not None
                    else config.total_slots
                ),
                volatility=config.background_volatility,
                mean_reversion=config.background_mean_reversion,
                resample_mean_seconds=config.background_resample_seconds,
                episodes=episodes,
                on_demand=lambda demand: self._refresh_contention(
                    demand, self.pool.capacity
                ),
            )
        self.spare_soaker: Optional[SpareSoaker] = None
        if config.spare_soaker_weight > 0:
            self.spare_soaker = SpareSoaker(
                self.pool, weight=config.spare_soaker_weight
            )
        self.failures = FailureInjector(
            sim,
            self.machines,
            self.rng.stream("machine-failures"),
            machine_mtbf_seconds=config.machine_mtbf_seconds,
            repair_seconds=config.repair_seconds,
        )

    def on_machine_down(self, callback: Callable[[int], None]) -> None:
        """Register to learn when a machine dies (to kill its tasks)."""
        self._machine_down_listeners.append(callback)

    def _on_machine_change(self, machine_id: int, is_up: bool) -> None:
        capacity = self.machines.capacity
        if self.background is not None:
            self._refresh_contention(self.background.current_demand, capacity)
        self.pool.set_capacity(capacity)
        if not is_up:
            for listener in list(self._machine_down_listeners):
                listener(machine_id)

    def guaranteed_headroom(self) -> int:
        """Tokens that can still be guaranteed to SLO jobs."""
        return self.pool.guaranteed_headroom()

    def _refresh_contention(self, demand: int, capacity: int) -> None:
        """Set :attr:`contention_factor` for the background ``demand`` and pool
        ``capacity`` about to take effect.  Both callers run it *before*
        the pool hears of the change: the pass that follows notifies
        consumers, and a grant callback may start tasks at once."""
        if self.config.contention_coeff <= 0:
            return
        load = demand / max(capacity, 1)
        excess = max(0.0, load - self.config.contention_threshold)
        self.contention_factor = 1.0 + self.config.contention_coeff * excess


__all__ = ["Cluster", "ClusterConfig"]
