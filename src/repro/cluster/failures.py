"""Failure injection: machine crashes and correlated multi-task failures.

Per-task failures (a task independently dying partway through) are sampled
by the job runtime itself from the profile's ``failure_prob``.  This module
injects the *correlated* events the paper calls out (§1: "failures, be they
at task, server or network granularity"): whole-machine crashes with repair
delays, which both shrink cluster capacity and kill co-located tasks.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cluster.machine import MachinePark
from repro.settable import is_positive_finite
from repro.simkit.events import Simulator
from repro.simkit.random import scalar_draws
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

_SCRIPTED = _metrics.REGISTRY.counter(
    "repro_cluster_scripted_failures_total",
    "Machines killed by scripted (non-Poisson) failure injection",
)


def _check_seconds(field: str, value) -> None:
    if not is_positive_finite(value):
        raise ValueError(
            f"FailureInjector {field} must be positive and finite, got {value!r}"
        )


class FailureInjector:
    """Poisson machine failures with deterministic repair times."""

    def __init__(
        self,
        sim: Simulator,
        machines: MachinePark,
        rng: np.random.Generator,
        *,
        machine_mtbf_seconds: Optional[float] = None,
        repair_seconds: float = 300.0,
    ):
        if machine_mtbf_seconds is not None:
            _check_seconds("machine_mtbf_seconds", machine_mtbf_seconds)
        _check_seconds("repair_seconds", repair_seconds)
        self._sim = sim
        self._machines = machines
        self._rng = rng
        self._below = scalar_draws(rng)[1]
        self._mtbf = machine_mtbf_seconds
        self._repair = repair_seconds
        self.failures_injected = 0
        self.scripted_failures = 0
        if self._mtbf is not None:
            self._schedule_next()

    def _fleet_rate_interval(self) -> float:
        """Expected seconds between failures across the whole fleet."""
        assert self._mtbf is not None
        up = max(self._machines.up_count, 1)
        return self._mtbf / up

    def _schedule_next(self) -> None:
        delay = float(self._rng.exponential(self._fleet_rate_interval()))
        self._sim.call_after(max(delay, 1.0), self._fire)

    def _fire(self) -> None:
        if self._machines.up_count > 1:
            machine = self._machines.pick_up_machine(self._below)
            if self._machines.fail(machine):
                self.failures_injected += 1
                self._sim.call_after(self._repair, self._machines.repair, machine)
        self._schedule_next()

    def fail_now(self, machine_id: int, repair_seconds: Optional[float] = None) -> bool:
        """Scripted failure (used by failure-injection tests/scenarios).

        Unlike the organic Poisson path, scripted kills announce themselves:
        a ``machine.scripted_kill`` trace event and a dedicated metric make
        them distinguishable in any recorded timeline."""
        if repair_seconds is not None:
            _check_seconds("repair_seconds", repair_seconds)
        if not self._machines.fail(machine_id):
            return False
        self.failures_injected += 1
        self.scripted_failures += 1
        _SCRIPTED.inc()
        delay = self._repair if repair_seconds is None else repair_seconds
        rec = _trace.RECORDER
        if rec.enabled:
            rec.emit(self._sim.now, "machine.scripted_kill",
                     machine=machine_id, repair_seconds=delay)
        self._sim.call_after(delay, self._machines.repair, machine_id)
        return True

    def fail_batch(
        self,
        machine_ids: Sequence[int],
        repair_seconds: Optional[float] = None,
    ) -> int:
        """Scripted correlated failure: kill a batch of machines at once
        (rack/PDU loss).  Returns how many actually went down."""
        return sum(
            1 for m in machine_ids if self.fail_now(m, repair_seconds)
        )


__all__ = ["FailureInjector"]
