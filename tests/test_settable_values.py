"""The settable-value census: every ``*Config`` dataclass under
``src/repro`` and the fields it lets a caller set, and the kind each
numeric one declares.

A knob added or removed anywhere shows up here as a one-line diff of
:data:`CONFIG_FIELDS`, so each change states what it did to the count.

A new ``int`` or ``float`` field must declare its kind in its annotation
(``slots: Count = 20``, from :mod:`repro.settable`) and its class's
``__post_init__`` must call ``settable.check``: the probe test below feeds
NaN, ±inf and −1 to every such field (and 2.5 to every integer one) of
the census and of the chaos schedule's dataclasses, and a field with no
kind fails it.
"""

import dataclasses
import importlib
import math
import pkgutil
import typing
from typing import Optional

import pytest

import repro
from repro import persist, settable
from repro.chaos.spec import ChaosError
from repro.core.control import ControlError
from repro.fleet.store import FleetError
from repro.market.tenant import MarketError
from repro.service.loadgen import LoadgenError
from repro.service.server import ServiceError

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


#: ``module.Class`` -> the error its ``__post_init__`` raises, for every
#: census class and the chaos schedule's dataclasses.
ERRORS = {
    "repro.cluster.cluster.ClusterConfig": ValueError,
    "repro.core.control.ControlConfig": ControlError,
    "repro.experiments.runner.RunConfig": ValueError,
    "repro.fleet.driver.FleetConfig": FleetError,
    "repro.market.engine.MarketConfig": MarketError,
    "repro.runtime.speculation.SpeculationConfig": ValueError,
    "repro.service.loadgen.LoadgenConfig": LoadgenError,
    "repro.service.server.ServiceConfig": ServiceError,
    "repro.service.worker.WorkerConfig": ValueError,
    "repro.chaos.spec.RackFailure": ChaosError,
    "repro.chaos.spec.EvictionStorm": ChaosError,
    "repro.chaos.spec.TokenShock": ChaosError,
    "repro.chaos.spec.ProfileDrift": ChaosError,
    "repro.chaos.spec.ControlFaults": ChaosError,
    "repro.chaos.spec.ChaosSpec": ChaosError,
}

#: The fields a class needs set to construct at all.
REQUIRED = {
    "RunConfig": dict(deadline_seconds=3600.0),
    "WorkerConfig": dict(url="http://127.0.0.1:9"),
    "RackFailure": dict(at=10.0),
    "EvictionStorm": dict(start=0.0, end=60.0),
    "TokenShock": dict(start=0.0, end=60.0),
    "ProfileDrift": dict(at=10.0),
}


def resolve(path):
    module, name = path.rsplit(".", 1)
    return getattr(importlib.import_module(module), name)


def scalar_numbers(cls):
    """``(field, is an integer)`` for each ``int``/``float`` field of
    ``cls``, ``Optional`` or not, by its plain type."""
    found = []
    for name, tp in typing.get_type_hints(cls).items():
        args = typing.get_args(tp)
        if typing.get_origin(tp) is typing.Union and type(None) in args:
            (tp,) = [a for a in args if a is not type(None)]
        if tp in (int, float):
            found.append((name, tp is int))
    return found


def probes():
    for path in ERRORS:
        cls = resolve(path)
        for name, integer in scalar_numbers(cls):
            for value in (math.nan, math.inf, -math.inf, -1) + ((2.5,) if integer else ()):
                yield pytest.param(path, name, value, id=f"{cls.__name__}.{name}={value!r}")


def test_the_probed_classes_are_the_census_and_the_chaos_schedule():
    assert set(CONFIG_FIELDS) <= set(ERRORS)
    assert len(ERRORS) == len(CONFIG_FIELDS) + 6


@pytest.mark.parametrize("path", sorted(ERRORS))
def test_every_scalar_number_declares_a_kind_and_the_defaults_construct(path):
    cls = resolve(path)
    kinds = typing.get_type_hints(cls, include_extras=True)
    bare = [
        name for name, _integer in scalar_numbers(cls)
        if typing.Annotated not in (
            typing.get_origin(kinds[name]),
            *map(typing.get_origin, typing.get_args(kinds[name])),
        )
    ]
    assert bare == [], f"{cls.__name__} fields with no kind: {bare}"
    cls(**REQUIRED.get(cls.__name__, {}))


@pytest.mark.parametrize("path, field, value", list(probes()))
def test_a_value_outside_its_kind_is_refused_naming_the_field(path, field, value):
    cls, error = resolve(path), ERRORS[path]
    with pytest.raises(error) as excinfo:
        cls(**{**REQUIRED.get(cls.__name__, {}), field: value})
    assert type(excinfo.value) is error
    message = str(excinfo.value)
    assert message.startswith(f"{cls.__name__}.{field} must be "), message
    assert message.endswith(f", got {value!r}"), message


@dataclasses.dataclass(frozen=True)
class Kinds:
    count: settable.Count = 1
    amount: settable.Amount = 0
    positive: settable.Positive = 1e-9
    non_negative: settable.NonNegative = 0.0
    fraction: settable.Fraction = 1.0
    optional: Optional[settable.Count] = None
    plain: float = math.nan

    def __post_init__(self):
        settable.check(self, ValueError)


@pytest.mark.parametrize("field, value, words", [
    ("count", 0, "an integer >= 1"),
    ("count", 1.5, "an integer >= 1"),
    ("amount", -1, "an integer >= 0"),
    ("positive", 0.0, "positive and finite"),
    ("non_negative", -1e-9, ">= 0 and finite"),
    ("fraction", 1.5, "in [0, 1]"),
    ("optional", 0, "an integer >= 1"),
    ("count", "3", "an integer >= 1"),
    ("positive", "3", "positive and finite"),
])
def test_each_kind_admits_its_edge_and_refuses_past_it(field, value, words):
    Kinds()
    with pytest.raises(ValueError) as excinfo:
        Kinds(**{field: value})
    assert str(excinfo.value) == f"Kinds.{field} must be {words}, got {value!r}"


def test_the_spec_reader_decodes_by_the_plain_type():
    schema = persist.spec_schema(resolve("repro.market.engine.MarketConfig"))
    assert schema["capacity"] is int and schema["tick_seconds"] is float
    schema = persist.spec_schema(resolve("repro.chaos.spec.RackFailure"))
    assert schema["first_machine"] == Optional[int]
