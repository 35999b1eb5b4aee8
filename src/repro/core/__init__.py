"""Jockey proper: the offline job simulator, C(p, a) tables, progress
indicators, predictors, utility functions, the control loop and the four
evaluation policies.  (Admission and inter-job arbitration live in
:mod:`repro.market`.)"""

from repro.core.adaptive import (
    AdaptiveCpaPredictor,
    ModelErrorMonitor,
    make_monitor,
)
from repro.core.amdahl import AmdahlModel
from repro.core.control import (
    ControlConfig,
    ControlError,
    CpaPredictor,
    JockeyController,
    Predictor,
)
from repro.core.cpa import DEFAULT_ALLOCATIONS, CpaError, CpaTable
from repro.core.oracle import oracle_allocation
from repro.core.policies import (
    AdaptiveModelPolicy,
    AllocationPolicy,
    AmdahlPolicy,
    JockeyPolicy,
    MaxAllocationPolicy,
    NoAdaptationPolicy,
)
from repro.core.progress import (
    INDICATOR_NAMES,
    CriticalPathIndicator,
    MinStageIndicator,
    ProgressError,
    WeightedWorkIndicator,
    build_indicator,
    totalwork,
    totalwork_with_q,
    vertexfrac,
)
from repro.core.simulator import (
    SimulatedRun,
    SimulatorError,
    simulate_job,
    simulate_relative_spans,
)
from repro.core.utility import PiecewiseLinearUtility, UtilityError, deadline_utility

__all__ = [
    "AdaptiveCpaPredictor",
    "AdaptiveModelPolicy",
    "AllocationPolicy",
    "AmdahlModel",
    "AmdahlPolicy",
    "ControlConfig",
    "ControlError",
    "CpaError",
    "CpaPredictor",
    "CpaTable",
    "CriticalPathIndicator",
    "DEFAULT_ALLOCATIONS",
    "INDICATOR_NAMES",
    "JockeyController",
    "JockeyPolicy",
    "MaxAllocationPolicy",
    "ModelErrorMonitor",
    "MinStageIndicator",
    "NoAdaptationPolicy",
    "PiecewiseLinearUtility",
    "Predictor",
    "ProgressError",
    "SimulatedRun",
    "SimulatorError",
    "UtilityError",
    "WeightedWorkIndicator",
    "build_indicator",
    "deadline_utility",
    "make_monitor",
    "oracle_allocation",
    "simulate_job",
    "simulate_relative_spans",
    "totalwork",
    "totalwork_with_q",
    "vertexfrac",
]
