"""Machine park: commodity servers contributing task slots.

The experiments only need machine granularity for two things: total slot
capacity (which shrinks while machines are down) and correlated task death
(a server failure kills every task placed on it, §2.4).  Placement is
therefore tracked as a task -> machine id map; rack/network locality is out
of scope (documented in DESIGN.md).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

_FAILURES = _metrics.REGISTRY.counter(
    "repro_cluster_machine_failures_total", "Machines marked down"
)
_REPAIRS = _metrics.REGISTRY.counter(
    "repro_cluster_machine_repairs_total", "Machines brought back up"
)
_UP = _metrics.REGISTRY.gauge(
    "repro_cluster_machines_up", "Machines currently up"
)


class MachineError(RuntimeError):
    """Raised on invalid machine operations."""


class MachinePark:
    """A fixed fleet of machines, each with the same number of slots."""

    def __init__(
        self,
        num_machines: int,
        slots_per_machine: int,
        *,
        clock: Optional[Callable[[], float]] = None,
    ):
        if num_machines < 1 or slots_per_machine < 1:
            raise MachineError(
                f"need >= 1 machine and slot, got {num_machines}x{slots_per_machine}"
            )
        self.num_machines = num_machines
        self.slots_per_machine = slots_per_machine
        self._down: Set[int] = set()
        self._clock = clock
        #: Observers called with (machine_id, is_up) on state changes.
        self.listeners: List[Callable[[int, bool], None]] = []
        _UP.set(num_machines)

    def _ts(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    @property
    def capacity(self) -> int:
        """Total slots across machines currently up."""
        return (self.num_machines - len(self._down)) * self.slots_per_machine

    @property
    def up_count(self) -> int:
        return self.num_machines - len(self._down)

    def is_up(self, machine_id: int) -> bool:
        self._check_id(machine_id)
        return machine_id not in self._down

    def pick_up_machine(self, below: Callable[[int], int]) -> int:
        """Uniformly choose an up machine for task placement: redraw
        ``below(num_machines)`` until it names one.  ``below`` is the
        caller's stream, bound once (``scalar_draws(rng)[1]``, the draws of
        ``int(rng.integers(0, n))``)."""
        if len(self._down) == self.num_machines:
            raise MachineError("no machines up")
        while True:
            m = below(self.num_machines)
            if m not in self._down:
                return m

    def fail(self, machine_id: int) -> bool:
        """Mark a machine down. Returns False if it was already down."""
        self._check_id(machine_id)
        if machine_id in self._down:
            return False
        self._down.add(machine_id)
        _FAILURES.inc()
        _UP.set(self.up_count)
        rec = _trace.RECORDER
        if rec.enabled:
            rec.emit(self._ts(), "machine.down",
                     machine=machine_id, up=self.up_count)
        for listener in list(self.listeners):
            listener(machine_id, False)
        return True

    def repair(self, machine_id: int) -> bool:
        """Bring a machine back up. Returns False if it was already up."""
        self._check_id(machine_id)
        if machine_id not in self._down:
            return False
        self._down.remove(machine_id)
        _REPAIRS.inc()
        _UP.set(self.up_count)
        rec = _trace.RECORDER
        if rec.enabled:
            rec.emit(self._ts(), "machine.up",
                     machine=machine_id, up=self.up_count)
        for listener in list(self.listeners):
            listener(machine_id, True)
        return True

    def _check_id(self, machine_id: int) -> None:
        if not 0 <= machine_id < self.num_machines:
            raise MachineError(
                f"machine id {machine_id} out of range [0, {self.num_machines})"
            )


__all__ = ["MachineError", "MachinePark"]
