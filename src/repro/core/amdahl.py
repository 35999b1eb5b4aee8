"""The Amdahl's-Law completion-time model (paper §4.1).

The alternative to the simulator: if the remaining serial part (critical
path) takes ``S_t`` and the remaining parallel work ``P_t``, then finishing
with ``a`` tokens takes about ``S_t + P_t / a``.  Running estimates use only
per-stage constants precomputable from a prior run:

    S_t = max over stages with f_s < 1 of (1 − f_s) l_s + L_s
    P_t = sum over stages with f_s < 1 of (1 − f_s) T_s

where ``l_s`` is the stage's longest task, ``L_s`` the longest path from the
stage to the end of the job, and ``T_s`` the stage's total CPU time.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.jobs.profiles import JobProfile


class AmdahlModel:
    """Implements the Predictor protocol: ``remaining_seconds(fractions, a)``
    and its ``remaining_seconds_batch`` over a grid of allocations."""

    name = "amdahl"

    def __init__(self, profile: JobProfile):
        self._longest_task = profile.longest_task_seconds()  # l_s
        self._path_after = profile.longest_path_after()      # L_s
        self._total_exec = profile.total_exec_seconds()      # T_s
        self._stage_names = tuple(profile.stage_names)

    def remaining_seconds(
        self, fractions: Mapping[str, float], allocation: float
    ) -> float:
        return self.remaining_seconds_batch(fractions, (allocation,))[0]

    def remaining_seconds_batch(
        self, fractions: Mapping[str, float], allocations: Sequence[float]
    ) -> List[float]:
        """The control tick's whole candidate grid from one S_t, P_t pass
        (neither depends on the allocation).  Element ``i`` equals
        ``remaining_seconds(fractions, allocations[i])`` exactly."""
        for a in allocations:
            if a <= 0:
                raise ValueError(f"allocation must be positive, got {a!r}")
        serial = 0.0
        parallel = 0.0
        for s in self._stage_names:
            f = min(max(fractions[s], 0.0), 1.0)
            if f < 1.0:
                serial = max(
                    serial, (1.0 - f) * self._longest_task[s] + self._path_after[s]
                )
                parallel += (1.0 - f) * self._total_exec[s]
        return [serial + parallel / a for a in allocations]

    def predicted_duration(self, allocation: float) -> float:
        """Full-job latency estimate at a steady allocation."""
        zero = {s: 0.0 for s in self._stage_names}
        return self.remaining_seconds(zero, allocation)


__all__ = ["AmdahlModel"]
