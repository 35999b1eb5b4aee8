"""The four allocation policies compared in the evaluation (§5.1-5.2).

* **Jockey** — simulator-backed C(p, a) predictions, adapting every period.
* **Jockey w/o adaptation** — the same model picks one a-priori allocation
  that maximizes utility; never adjusted (the static-quota strawman, §3.2).
* **Jockey w/o simulator** — adapts every period but predicts with the
  Amdahl's-Law model.
* **Max allocation** — guarantees the whole experimental slice for the
  job's entire life.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.core.adaptive import AdaptiveCpaPredictor, make_monitor
from repro.core.amdahl import AmdahlModel
from repro.core.control import ControlConfig, CpaPredictor, JockeyController
from repro.core.cpa import CpaTable
from repro.core.utility import PiecewiseLinearUtility
from repro.jobs.profiles import JobProfile
from repro.runtime.jobmanager import JobSnapshot
from repro.telemetry.audit import TickRecord


class AllocationPolicy(abc.ABC):
    """What the experiment runner drives: an initial allocation plus a
    per-period decision."""

    name: str = "policy"
    #: Whether the policy adapts at runtime (controls whether the runner
    #: installs a periodic control task).
    adaptive: bool = True

    @abc.abstractmethod
    def initial_allocation(self) -> int: ...

    @abc.abstractmethod
    def on_tick(self, snapshot: JobSnapshot) -> Optional[int]:
        """New allocation for this period, or None to leave it unchanged."""

    def change_utility(self, utility: PiecewiseLinearUtility) -> None:
        """React to a mid-run deadline change; default: unsupported no-op."""


class ControllerPolicy(AllocationPolicy):
    """An adaptive policy that is its :class:`JockeyController` and nothing
    more: every call forwards to ``self.controller``, whose ``audit`` is
    what the run leaves behind."""

    adaptive = True
    controller: JockeyController

    def initial_allocation(self) -> int:
        return self.controller.initial_allocation()

    def on_tick(self, snapshot: JobSnapshot) -> Optional[int]:
        return self.controller.decide(
            snapshot.stage_fractions, snapshot.elapsed
        ).allocation

    def change_utility(self, utility: PiecewiseLinearUtility) -> None:
        self.controller.set_utility(utility)

    def refresh_model(self, table=None, indicator=None) -> None:
        """Swap in a relearned C(p, a) table / indicator pair (the fleet's
        drift-aware refresh)."""
        self.controller.refresh_model(table=table, indicator=indicator)

    def reset_run_state(self) -> None:
        """Clear per-run controller state so this policy instance can drive
        another run of the same recurring job."""
        self.controller.reset_run_state()


def _table_controller(
    predictor, table: CpaTable, utility, config, profile
) -> JockeyController:
    """A controller over a C(p, a)-backed predictor, its candidate grid
    floored at the table's smallest simulated allocation."""
    return JockeyController(
        predictor, utility, config,
        stage_names=profile.stage_names if profile is not None else (),
        grid_floor=min(table.allocations),
    )


class JockeyPolicy(ControllerPolicy):
    """Full Jockey: simulator model + dynamic control."""

    name = "jockey"

    def __init__(
        self,
        table: CpaTable,
        indicator,
        utility: PiecewiseLinearUtility,
        config: ControlConfig = ControlConfig(),
        *,
        profile: Optional[JobProfile] = None,
        percentile: float = 0.6,
    ):
        self.controller = _table_controller(
            CpaPredictor(table, indicator, percentile=percentile),
            table, utility, config, profile,
        )


class NoAdaptationPolicy(AllocationPolicy):
    """Jockey w/o adaptation: the simulator picks a static allocation.
    Takes :class:`JockeyPolicy`'s arguments; its controller is private, so
    a static policy leaves no audit behind."""

    name = "jockey-no-adapt"
    adaptive = False

    def __init__(self, *args, **kwargs):
        self._controller = JockeyPolicy(*args, **kwargs).controller
        self._fixed: Optional[int] = None

    def initial_allocation(self) -> int:
        if self._fixed is None:
            self._fixed = self._controller.initial_allocation()
        return self._fixed

    def on_tick(self, snapshot: JobSnapshot) -> Optional[int]:
        return None


class AmdahlPolicy(ControllerPolicy):
    """Jockey w/o simulator: dynamic control over the Amdahl model."""

    name = "jockey-no-sim"

    def __init__(
        self,
        profile: JobProfile,
        utility: PiecewiseLinearUtility,
        config: ControlConfig = ControlConfig(),
    ):
        self.controller = JockeyController(
            AmdahlModel(profile), utility, config, stage_names=profile.stage_names
        )


class AdaptiveModelPolicy(ControllerPolicy):
    """Jockey plus online model correction (paper §5.6, implemented).

    Identical to :class:`JockeyPolicy` except that C(p, a) predictions are
    scaled by a live estimate of how much heavier this run is than the
    trained model (see :mod:`repro.core.adaptive`), so divergence — an
    oversized input, a cluster-wide slowdown — is countered minutes before
    deadline-lateness alone would force a reaction.
    """

    name = "jockey-online-model"

    def __init__(
        self,
        table: CpaTable,
        indicator,
        utility: PiecewiseLinearUtility,
        config: ControlConfig = ControlConfig(),
        *,
        profile: JobProfile,
        percentile: float = 0.6,
    ):
        self._profile = profile
        self.monitor = make_monitor(profile)
        self._predictor = AdaptiveCpaPredictor(
            table, indicator, self.monitor, percentile=percentile
        )
        self.controller = _table_controller(
            self._predictor, table, utility, config, profile
        )

    def on_tick(self, snapshot: JobSnapshot) -> Optional[int]:
        progress = self._predictor.progress(snapshot.stage_fractions)
        self.monitor.observe(progress, snapshot.consumed_token_seconds)
        return super().on_tick(snapshot)

    def reset_run_state(self) -> None:
        """Also restart the inflation estimate: one run's divergence must
        not carry into the next."""
        super().reset_run_state()
        self.monitor = self._predictor.monitor = make_monitor(self._profile)


class MaxAllocationPolicy(AllocationPolicy):
    """Guarantee the entire slice for the whole run."""

    name = "max-allocation"
    adaptive = False

    def __init__(self, tokens: int = 100):
        if tokens < 1:
            raise ValueError(f"tokens must be >= 1, got {tokens!r}")
        self._tokens = tokens

    def initial_allocation(self) -> int:
        return self._tokens

    def on_tick(self, snapshot: JobSnapshot) -> Optional[int]:
        return None


#: Every policy kind, in the order the CLI lists them: the one tuple under
#: argparse ``choices``, the experiment suite and the live service.
POLICY_KINDS = (
    "jockey", "jockey-online-model", "jockey-no-adapt", "jockey-no-sim",
    "max-allocation",
)
_TABLE_POLICIES = {
    cls.name: cls
    for cls in (JockeyPolicy, AdaptiveModelPolicy, NoAdaptationPolicy)
}


class PolicyError(ValueError):
    """An unknown policy kind, or one asked to run without what it needs."""


def build_policy(
    kind: str,
    *,
    table: Optional[CpaTable],
    indicator,
    profile: Optional[JobProfile],
    utility: PiecewiseLinearUtility,
    control: ControlConfig,
) -> AllocationPolicy:
    """The one place a kind name becomes a policy (fresh controller state).
    ``control.max_tokens`` is the job's slice: every controller's candidates
    stop there, and max-allocation guarantees it.  Only max-allocation runs
    without a learned ``profile`` (a live command job has none), and only it
    and jockey-no-sim without a C(p, a) ``table``."""
    if kind not in POLICY_KINDS:
        raise PolicyError(
            f"unknown policy {kind!r} (choose from {', '.join(POLICY_KINDS)})"
        )
    if kind == "max-allocation":
        return MaxAllocationPolicy(control.max_tokens)
    if profile is None:
        raise PolicyError(
            f"policy {kind!r} needs a trained profile; a job without one "
            "supports only max-allocation"
        )
    if kind == "jockey-no-sim":
        return AmdahlPolicy(profile, utility, control)
    if table is None:
        raise PolicyError(
            f"policy {kind!r} needs a C(p, a) table and the bundle has none; "
            "use jockey-no-sim or max-allocation"
        )
    return _TABLE_POLICIES[kind](
        table, indicator, utility, control, profile=profile
    )


def run_artifacts(policy: AllocationPolicy) -> List[TickRecord]:
    """What a finished policy leaves for reports and SLO analytics: its
    decision audit records, each carrying the slack it was decided with
    and its tick's interval forecast; a static policy has no controller,
    so none."""
    controller = getattr(policy, "controller", None)
    if controller is None:
        return []
    return list(controller.audit)


__all__ = [
    "POLICY_KINDS",
    "AdaptiveModelPolicy",
    "AllocationPolicy",
    "AmdahlPolicy",
    "ControllerPolicy",
    "JockeyPolicy",
    "MaxAllocationPolicy",
    "NoAdaptationPolicy",
    "PolicyError",
    "build_policy",
    "run_artifacts",
]
