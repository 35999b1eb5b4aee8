"""The settable-value census: every ``*Config`` dataclass under
``src/repro`` and the fields it lets a caller set.

A knob added or removed anywhere shows up here as a one-line diff of
:data:`CONFIG_FIELDS`, so each change states what it did to the count.
"""

import dataclasses
import importlib
import pkgutil

import repro

#: ``module.Class`` -> its field names, in declaration order.
CONFIG_FIELDS = {
    "repro.cluster.cluster.ClusterConfig": (
        "num_machines", "slots_per_machine", "background_guaranteed",
        "background_mean_demand", "background_min_demand",
        "background_max_demand", "background_volatility",
        "background_mean_reversion", "background_resample_seconds",
        "machine_mtbf_seconds", "repair_seconds", "spare_soaker_weight",
        "contention_coeff", "contention_threshold",
    ),
    "repro.cluster.workload_background.WorkloadBackgroundConfig": (
        "interarrival_seconds", "tasks_median", "tasks_sigma",
        "task_median_seconds", "task_sigma", "guaranteed_range",
        "reserve_headroom",
    ),
    "repro.core.control.ControlConfig": (
        "period_seconds", "slack", "hysteresis", "dead_zone_seconds",
        "min_tokens", "max_tokens", "allocation_step",
        "fallback_staleness_seconds", "degraded_fallback",
    ),
    "repro.experiments.runner.RunConfig": (
        "deadline_seconds", "seed", "runtime_scale", "cluster", "episodes",
        "control_period", "deadline_changes", "sample_cluster_day",
        "speculation", "chaos",
    ),
    "repro.fleet.driver.FleetConfig": (
        "days", "model_mode", "drift", "scale", "deadline_trim", "seed",
        "store_root", "keep_last_result",
    ),
    "repro.market.engine.MarketConfig": (
        "capacity", "mode", "tick_seconds", "slack", "max_ticks",
    ),
    "repro.runtime.speculation.SpeculationConfig": (
        "check_period_seconds", "slowdown_factor", "min_task_seconds",
        "min_observations", "max_duplicate_fraction",
    ),
    "repro.service.loadgen.LoadgenConfig": (
        "jobs", "seed", "templates", "tenant", "policy", "mean_interarrival",
        "deadline_factors", "timeout",
    ),
    "repro.service.server.ServiceConfig": (
        "host", "port", "capacity_tokens", "tick_seconds", "time_scale",
        "heartbeat_timeout", "max_task_attempts", "seed", "tenants",
        "control", "control_faults",
    ),
    "repro.service.worker.WorkerConfig": (
        "url", "name", "slots", "command_timeout", "max_connect_failures",
    ),
}


def config_dataclasses():
    """``module.Class`` -> field names of every dataclass named ``*Config``
    defined in a module under ``repro``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and name.endswith("Config")
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                found[f"{module.__name__}.{name}"] = tuple(
                    f.name for f in dataclasses.fields(obj)
                )
    return found


def test_config_fields_are_the_census():
    assert config_dataclasses() == CONFIG_FIELDS
