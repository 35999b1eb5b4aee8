"""The one spec reader (``persist.spec_fields`` / ``spec_object``) under
the chaos, fleet and market spec files.

Three checks:

* the malformed-input table: for each spec kind and each field class it
  has (float, int, str, list, optional, pair; a market spec has no
  optional field, only chaos has pairs) a bool, a numeric string, NaN,
  ±inf, a fraction where an integer is due, a string where a list is due,
  a wrong-arity blackout pair and an unknown field are refused with the
  kind's own error, naming the path and the field; once per kind through
  the CLI, exiting 2 with ``cannot load <kind> spec`` and the usage line;
* a differential against the three hand-written parsers the reader
  replaced, kept verbatim below (only their two ``_SPEC_FIELDS`` tables
  are renamed apart): every well-typed spec decodes to an equal object;
* the three worked examples in EXPERIMENTS.md decode, through
  ``persist.read_spec``, to what those parsers produced.
"""

import copy
import io
import json
import math
import pathlib
from dataclasses import fields
from typing import Dict, List, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.chaos.spec as chaos_spec
import repro.fleet.driver as fleet_driver
import repro.market.spec as market_spec
from repro import persist
from repro.chaos.spec import (
    ChaosError,
    ChaosSpec,
    ControlFaults,
    EvictionStorm,
    ProfileDrift,
    RackFailure,
    TokenShock,
)
from repro.cli import main
from repro.experiments.scenarios import SCALES
from repro.fleet.driver import MODEL_MODES, FleetConfig, FleetTemplate
from repro.fleet.store import FleetSpecError
from repro.market.engine import MARKET_MODES, MarketConfig
from repro.market.spec import MarketSpecError
from repro.market.tenant import JobSpec, MarketError, Tenant

EXPERIMENTS_MD = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"


# ----------------------------------------------------------------------
# The parsers the reader replaced, verbatim
# ----------------------------------------------------------------------

_EVENT_TYPES = {
    "rack_failures": RackFailure,
    "eviction_storms": EvictionStorm,
    "token_shocks": TokenShock,
    "profile_drifts": ProfileDrift,
}


def _item_from_dict(cls, data: Dict, context: str):
    if not isinstance(data, dict):
        raise ChaosError(f"{context}: expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ChaosError(f"{context}: unknown field(s) {sorted(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ChaosError(f"{context}: {exc}") from exc


def spec_from_dict(data: Dict) -> ChaosSpec:
    """Parse a dict produced by :func:`spec_to_dict` (or hand-written
    JSON).  Raises :class:`ChaosError` on any malformed content."""
    if not isinstance(data, dict):
        raise ChaosError(f"chaos spec: expected an object, got {type(data).__name__}")
    known = {"name", "intensity", "control_faults", *_EVENT_TYPES}
    unknown = set(data) - known
    if unknown:
        raise ChaosError(f"chaos spec: unknown field(s) {sorted(unknown)}")
    kwargs = {}
    if "name" in data:
        if not isinstance(data["name"], str):
            raise ChaosError("chaos spec: name must be a string")
        kwargs["name"] = data["name"]
    if "intensity" in data:
        if not isinstance(data["intensity"], (int, float)) or isinstance(
            data["intensity"], bool
        ):
            raise ChaosError("chaos spec: intensity must be a number")
        kwargs["intensity"] = float(data["intensity"])
    for key, cls in _EVENT_TYPES.items():
        items = data.get(key, [])
        if not isinstance(items, list):
            raise ChaosError(f"chaos spec: {key} must be a list")
        kwargs[key] = tuple(
            _item_from_dict(cls, item, f"{key}[{i}]")
            for i, item in enumerate(items)
        )
    if "control_faults" in data:
        kwargs["control_faults"] = _item_from_dict(
            ControlFaults, data["control_faults"], "control_faults"
        )
    return ChaosSpec(**kwargs)


_FLEET_SPEC_FIELDS = {
    "templates", "days", "mode", "deadline_trim", "seed", "scale", "drift",
}
_DRIFT_FIELDS = {"day", "factor", "stages"}


def fleet_spec_from_dict(data: Dict) -> Tuple[List[FleetTemplate], FleetConfig]:
    """Parse a fleet spec dict; unknown fields and bad shapes raise
    :class:`FleetSpecError` (a *usage* error — the CLI exits 2)."""
    from repro.experiments.scenarios import SCALES

    if not isinstance(data, dict):
        raise FleetSpecError(f"fleet spec must be an object, got {type(data).__name__}")
    unknown = set(data) - _FLEET_SPEC_FIELDS
    if unknown:
        raise FleetSpecError(
            f"unknown fleet spec field(s) {sorted(unknown)} "
            f"(known: {sorted(_FLEET_SPEC_FIELDS)})"
        )
    raw_templates = data.get("templates", ["A", "C"])
    if not isinstance(raw_templates, list) or not raw_templates:
        raise FleetSpecError("'templates' must be a non-empty list")
    templates: List[FleetTemplate] = []
    for item in raw_templates:
        if isinstance(item, str):
            templates.append(FleetTemplate(name=item))
        elif isinstance(item, dict):
            extra = set(item) - {"name", "job"}
            if extra or "name" not in item:
                raise FleetSpecError(
                    f"template entries take 'name' (required) and 'job', "
                    f"got {sorted(item)}"
                )
            templates.append(
                FleetTemplate(name=str(item["name"]), job=item.get("job"))
            )
        else:
            raise FleetSpecError(
                f"template entries must be strings or objects, "
                f"got {type(item).__name__}"
            )
    drift = None
    raw_drift = data.get("drift")
    if raw_drift is not None:
        if not isinstance(raw_drift, dict):
            raise FleetSpecError("'drift' must be an object")
        extra = set(raw_drift) - _DRIFT_FIELDS
        if extra:
            raise FleetSpecError(
                f"unknown drift field(s) {sorted(extra)} "
                f"(known: {sorted(_DRIFT_FIELDS)})"
            )
        try:
            drift = ProfileDrift(
                at=float(raw_drift.get("day", 0)),
                factor=float(raw_drift.get("factor", 1.5)),
                stages=tuple(raw_drift.get("stages", ())),
            )
        except (TypeError, ValueError) as exc:
            raise FleetSpecError(f"malformed drift: {exc}") from exc
    scale_name = data.get("scale", "smoke")
    if scale_name not in SCALES:
        raise FleetSpecError(
            f"unknown scale {scale_name!r} (choose from {sorted(SCALES)})"
        )
    try:
        config = FleetConfig(
            days=int(data.get("days", 5)),
            model_mode=str(data.get("mode", "ewma")),
            drift=drift,
            scale=SCALES[scale_name],
            deadline_trim=float(data.get("deadline_trim", 0.85)),
            seed=int(data.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        # FleetError subclasses ValueError: config validation failures in a
        # spec file are usage errors too.
        raise FleetSpecError(f"malformed fleet spec: {exc}") from exc
    return templates, config


_MARKET_SPEC_FIELDS = {
    "tenants", "jobs", "capacity", "mode", "tick_seconds", "slack",
    "max_ticks",
}
_TENANT_FIELDS = {"name", "quota"}
_JOB_FIELDS = {
    "name", "tenant", "work", "width", "deadline_seconds", "submit_seconds",
}


def _require_list(data: Dict, key: str) -> List:
    raw = data.get(key)
    if not isinstance(raw, list) or not raw:
        raise MarketSpecError(f"{key!r} must be a non-empty list")
    return raw


def _number(raw, what: str) -> float:
    """A JSON number (not a bool or a string) as a float."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise MarketSpecError(f"{what} must be a number, got {raw!r}")
    return float(raw)


def _integer(raw, what: str) -> int:
    """A JSON integer: a fraction is refused, not truncated."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise MarketSpecError(f"{what} must be an integer, got {raw!r}")
    return raw


def market_spec_from_dict(
    data: Dict,
) -> Tuple[List[Tenant], List[JobSpec], MarketConfig]:
    """Parse a market spec dict; unknown fields and bad shapes raise
    :class:`MarketSpecError`."""
    if not isinstance(data, dict):
        raise MarketSpecError(
            f"market spec must be an object, got {type(data).__name__}"
        )
    unknown = set(data) - _MARKET_SPEC_FIELDS
    if unknown:
        raise MarketSpecError(
            f"unknown market spec field(s) {sorted(unknown)} "
            f"(known: {sorted(_MARKET_SPEC_FIELDS)})"
        )
    tenants: List[Tenant] = []
    for item in _require_list(data, "tenants"):
        if not isinstance(item, dict):
            raise MarketSpecError(
                f"tenant entries must be objects, got {type(item).__name__}"
            )
        if set(item) != _TENANT_FIELDS:
            raise MarketSpecError(
                f"tenant entries take exactly 'name' and 'quota', "
                f"got {sorted(item)}"
            )
        name = str(item["name"])
        try:
            tenants.append(Tenant(
                name=name, quota=_integer(item["quota"], f"tenant {name!r}: 'quota'")
            ))
        except MarketError as exc:
            raise MarketSpecError(f"malformed tenant: {exc}") from exc
    jobs: List[JobSpec] = []
    for item in _require_list(data, "jobs"):
        if not isinstance(item, dict):
            raise MarketSpecError(
                f"job entries must be objects, got {type(item).__name__}"
            )
        extra = set(item) - _JOB_FIELDS
        missing = {"name", "tenant", "work", "width", "deadline_seconds"} \
            - set(item)
        if extra or missing:
            raise MarketSpecError(
                f"job entries take {sorted(_JOB_FIELDS)} "
                f"('submit_seconds' optional), got {sorted(item)}"
            )
        name = str(item["name"])
        job = f"job {name!r}:"
        try:
            jobs.append(JobSpec(
                name=name,
                tenant=str(item["tenant"]),
                work=_number(item["work"], f"{job} 'work'"),
                width=_integer(item["width"], f"{job} 'width'"),
                deadline_seconds=_number(
                    item["deadline_seconds"], f"{job} 'deadline_seconds'"
                ),
                submit_seconds=_number(
                    item.get("submit_seconds", 0.0), f"{job} 'submit_seconds'"
                ),
            ))
        except MarketError as exc:
            raise MarketSpecError(f"malformed job: {exc}") from exc
    try:
        config = MarketConfig(
            capacity=_integer(data.get("capacity", 200), "'capacity'"),
            mode=str(data.get("mode", "pooled")),
            tick_seconds=_number(data.get("tick_seconds", 60.0), "'tick_seconds'"),
            slack=_number(data.get("slack", 1.2), "'slack'"),
            max_ticks=_integer(data.get("max_ticks", 200_000), "'max_ticks'"),
        )
    except MarketError as exc:
        raise MarketSpecError(f"malformed market spec: {exc}") from exc
    return tenants, jobs, config


#: Each kind: (the reader's decoder, the replaced parser, the kind's error).
KINDS = {
    "chaos": (chaos_spec.spec_from_dict, spec_from_dict, ChaosError),
    "fleet": (fleet_driver.fleet_spec_from_dict, fleet_spec_from_dict,
              FleetSpecError),
    "market": (market_spec.market_spec_from_dict, market_spec_from_dict,
               MarketSpecError),
}


# ----------------------------------------------------------------------
# The malformed-input table
# ----------------------------------------------------------------------

BASE = {
    "chaos": {
        "name": "t",
        "intensity": 1.0,
        "rack_failures": [{"at": 10.0, "count": 2, "machines": [1, 2],
                           "first_machine": None}],
        "profile_drifts": [{"at": 5.0, "factor": 1.5, "stages": ["s"]}],
        "control_faults": {"blackouts": [[1.0, 2.0]]},
    },
    "fleet": {
        "templates": ["A", {"name": "etl", "job": "mapreduce"}],
        "days": 2, "mode": "ewma", "deadline_trim": 0.8, "seed": 1,
        "scale": "smoke",
        "drift": {"day": 1, "factor": 1.5, "stages": ["s"]},
    },
    "market": {
        "capacity": 120, "mode": "pooled", "tick_seconds": 60.0,
        "slack": 1.2, "max_ticks": 1000,
        "tenants": [{"name": "acme", "quota": 40}],
        "jobs": [{"name": "etl", "tenant": "acme", "work": 9000.0,
                  "width": 16, "deadline_seconds": 1800.0,
                  "submit_seconds": 0.0}],
    },
}

FLOAT_BAD = [True, "1.5", math.nan, math.inf, -math.inf]
INT_BAD = [True, "3", 2.5, math.nan]
STR_BAD = [True, 5]
LIST_BAD = ["ab", True]
OPTIONAL_INT_BAD = [True, "3", 2.5]
OPTIONAL_STR_BAD = [True, 5]
PAIR_BAD = [[1.0], [1.0, 2.0, 3.0], "ab"]

#: (kind, where the bad value goes, how the message names it, bad values)
FIELDS = [
    ("chaos", ("intensity",), "'intensity'", FLOAT_BAD),
    ("chaos", ("rack_failures", 0, "at"), "rack_failures[0]: 'at'", FLOAT_BAD),
    ("chaos", ("control_faults", "blackouts", 0, 1),
     "control_faults: 'blackouts[0][1]'", FLOAT_BAD),
    ("chaos", ("rack_failures", 0, "count"), "rack_failures[0]: 'count'",
     INT_BAD),
    ("chaos", ("rack_failures", 0, "machines", 1),
     "rack_failures[0]: 'machines[1]'", INT_BAD),
    ("chaos", ("name",), "'name'", STR_BAD),
    ("chaos", ("profile_drifts", 0, "stages", 0),
     "profile_drifts[0]: 'stages[0]'", STR_BAD),
    ("chaos", ("rack_failures",), "'rack_failures'", LIST_BAD),
    ("chaos", ("profile_drifts", 0, "stages"), "profile_drifts[0]: 'stages'",
     LIST_BAD),
    ("chaos", ("rack_failures", 0, "first_machine"),
     "rack_failures[0]: 'first_machine'", OPTIONAL_INT_BAD),
    ("chaos", ("control_faults", "blackouts", 0),
     "control_faults: 'blackouts[0]'", PAIR_BAD),
    ("fleet", ("deadline_trim",), "'deadline_trim'", FLOAT_BAD),
    ("fleet", ("drift", "day"), "drift: 'day'", FLOAT_BAD),
    ("fleet", ("drift", "factor"), "drift: 'factor'", FLOAT_BAD),
    ("fleet", ("days",), "'days'", INT_BAD),
    ("fleet", ("seed",), "'seed'", INT_BAD),
    ("fleet", ("mode",), "'mode'", STR_BAD),
    ("fleet", ("templates", 1, "name"), "templates[1]: 'name'", STR_BAD),
    ("fleet", ("drift", "stages", 0), "drift: 'stages[0]'", STR_BAD),
    ("fleet", ("templates",), "'templates'", LIST_BAD),
    ("fleet", ("drift", "stages"), "drift: 'stages'", LIST_BAD),
    ("fleet", ("templates", 1, "job"), "templates[1]: 'job'",
     OPTIONAL_STR_BAD),
    ("market", ("jobs", 0, "work"), "job 'etl': 'work'", FLOAT_BAD),
    ("market", ("jobs", 0, "deadline_seconds"),
     "job 'etl': 'deadline_seconds'", FLOAT_BAD),
    ("market", ("slack",), "'slack'", FLOAT_BAD),
    ("market", ("jobs", 0, "width"), "job 'etl': 'width'", INT_BAD),
    ("market", ("tenants", 0, "quota"), "tenant 'acme': 'quota'", INT_BAD),
    ("market", ("capacity",), "'capacity'", INT_BAD),
    ("market", ("jobs", 0, "tenant"), "job 'etl': 'tenant'", STR_BAD),
    ("market", ("jobs", 0, "name"), "jobs[0]: 'name'", STR_BAD),
    ("market", ("mode",), "'mode'", STR_BAD),
    ("market", ("jobs",), "'jobs'", LIST_BAD),
    ("market", ("tenants",), "'tenants'", LIST_BAD),
]

#: (kind, the object an unknown field goes into, how the message names it)
OBJECTS = [
    ("chaos", (), ""),
    ("chaos", ("rack_failures", 0), "rack_failures[0]: "),
    ("chaos", ("control_faults",), "control_faults: "),
    ("fleet", (), ""),
    ("fleet", ("drift",), "drift: "),
    ("fleet", ("templates", 1), "templates[1]: "),
    ("market", (), ""),
    ("market", ("tenants", 0), "tenant 'acme': "),
    ("market", ("jobs", 0), "job 'etl': "),
]


def with_value(kind, where, value):
    """A deep copy of ``BASE[kind]`` with ``value`` placed at ``where``."""
    payload = copy.deepcopy(BASE[kind])
    parent = payload
    for step in where[:-1]:
        parent = parent[step]
    parent[where[-1]] = value
    return payload


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestMalformedInputTable:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_the_base_specs_decode(self, kind):
        decode, reference, _error = KINDS[kind]
        assert decode(BASE[kind]) == reference(BASE[kind])

    @pytest.mark.parametrize("kind, where, label, value", [
        pytest.param(kind, where, label, value,
                     id=f"{kind}-{'.'.join(map(str, where))}-{value!r}")
        for kind, where, label, values in FIELDS for value in values
    ])
    def test_a_bad_field_is_refused_naming_it(self, kind, where, label, value):
        decode, _reference, error = KINDS[kind]
        with pytest.raises(error) as info:
            decode(with_value(kind, where, value))
        assert f"{label} must be" in str(info.value)
        assert f"got {value!r}" in str(info.value)

    @pytest.mark.parametrize("kind, where, label", [
        pytest.param(kind, where, label,
                     id=f"{kind}-{'.'.join(map(str, where)) or 'top'}")
        for kind, where, label in OBJECTS
    ])
    def test_an_unknown_field_is_refused_naming_it(self, kind, where, label):
        decode, _reference, error = KINDS[kind]
        payload = copy.deepcopy(BASE[kind])
        target = payload
        for step in where:
            target = target[step]
        target["bogus"] = 1
        with pytest.raises(error) as info:
            decode(payload)
        assert f"{label}unknown field(s) ['bogus']" in str(info.value)

    def test_a_missing_required_field_is_named(self):
        payload = with_value("chaos", ("rack_failures", 0), {"count": 1})
        with pytest.raises(ChaosError, match=r"rack_failures\[0\]: missing field\(s\) \['at'\]"):
            chaos_spec.spec_from_dict(payload)

    def test_a_non_object_entry_is_named(self):
        with pytest.raises(MarketSpecError, match=r"jobs\[0\] must be an object, got int"):
            market_spec.market_spec_from_dict(with_value("market", ("jobs", 0), 5))


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec_reader") / "bundle.json"
    code, _text = run_cli(
        "train", "--job", "mapreduce", "--out", str(path),
        "--cpa-reps", "2", "--seed", "4",
    )
    assert code == 0
    return path


class TestEveryCommandExitsTwo:
    """One malformed spec per command, each a case the replaced parsers
    accepted or let escape as a non-spec error (exit 1); then one well-typed
    value per spec kind that the field's kind refuses (``settable.check``),
    each named by class and field (the chaos one named no field before, the
    fleet and market ones were accepted)."""

    @pytest.mark.parametrize("command, flag, kind, payload, named", [
        pytest.param(
            "run", "--chaos", "chaos", {"rack_failures": [{"at": math.nan}]},
            "rack_failures[0]: 'at' must be a finite number, got nan",
            id="run"),
        pytest.param(
            "serve", "--chaos", "chaos",
            {"control_faults": {"blackouts": [[1.0, "x"]]}},
            "control_faults: 'blackouts[0][1]' must be a finite number, got 'x'",
            id="serve"),
        pytest.param(
            "fleet run", "--spec", "fleet",
            {"templates": [{"name": "etl", "job": 5}], "days": 1},
            "templates[0]: 'job' must be a string, got 5", id="fleet"),
        pytest.param(
            "market run", "--spec", "market",
            with_value("market", ("jobs", 0, "tenant"), 5),
            "job 'etl': 'tenant' must be a string, got 5", id="market"),
        pytest.param(
            "run", "--chaos", "chaos",
            {"rack_failures": [{"at": 10.0, "repair_seconds": 0}]},
            "RackFailure.repair_seconds must be positive and finite, got 0.0",
            id="chaos-kind"),
        pytest.param(
            "fleet run", "--spec", "fleet", {"seed": -1},
            "FleetConfig.seed must be an integer >= 0, got -1", id="fleet-kind"),
        pytest.param(
            "market run", "--spec", "market",
            with_value("market", ("max_ticks",), 0),
            "MarketConfig.max_ticks must be an integer >= 1, got 0",
            id="market-kind"),
    ])
    def test_exits_two_with_the_usage_line(self, bundle, tmp_path, command,
                                           flag, kind, payload, named):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload), encoding="utf-8")
        argv = command.split()
        if command == "run":
            argv += ["--bundle", str(bundle), "--deadline-minutes", "60"]
        code, text = run_cli(*argv, flag, str(spec))
        assert code == 2, text
        assert f"cannot load {kind} spec" in text
        assert named in text
        assert f"usage: repro {command} {flag} SPEC.json" in text


# ----------------------------------------------------------------------
# Differential: well-typed specs decode as the replaced parsers did
# ----------------------------------------------------------------------


def numbers(low, high):
    """A JSON number in [low, high]: a float, or an integer."""
    return st.one_of(
        st.floats(low, high),
        st.integers(math.ceil(low), math.floor(high)),
    )


@st.composite
def windows(draw, item):
    start = draw(numbers(0, 1e4))
    return {**item, "start": start, "end": start + draw(numbers(0, 1e4))}


names = st.text(min_size=1, max_size=5)

rack_failure_dicts = st.fixed_dictionaries({"at": numbers(0, 1e4)}, optional={
    "count": st.integers(0, 10),
    "machines": st.lists(st.integers(0, 99), max_size=3),
    "first_machine": st.none() | st.integers(0, 99),
    "repair_seconds": numbers(0.5, 1e3),
})
eviction_storm_dicts = st.fixed_dictionaries({}, optional={
    "demand_fraction": numbers(0, 1), "weight": numbers(1, 1e4),
}).flatmap(windows)
token_shock_dicts = st.fixed_dictionaries({}, optional={
    "guaranteed_fraction": numbers(0, 1),
}).flatmap(windows)
profile_drift_dicts = st.fixed_dictionaries({"at": numbers(0, 1e4)}, optional={
    "factor": numbers(0.05, 5), "stages": st.lists(names, max_size=3),
})
blackouts = st.tuples(numbers(0, 1e4), numbers(0, 1e4)).map(
    lambda pair: [pair[0], pair[0] + pair[1]]
)
control_fault_dicts = st.fixed_dictionaries({}, optional={
    "drop_tick_prob": numbers(0, 0.5),
    "delay_tick_prob": numbers(0, 0.5),
    "delay_seconds": numbers(0, 60),
    "blackouts": st.lists(blackouts, max_size=2),
})
chaos_dicts = st.fixed_dictionaries({}, optional={
    "name": st.text(max_size=5),
    "intensity": numbers(0, 3),
    "rack_failures": st.lists(rack_failure_dicts, max_size=2),
    "eviction_storms": st.lists(eviction_storm_dicts, max_size=2),
    "token_shocks": st.lists(token_shock_dicts, max_size=2),
    "profile_drifts": st.lists(profile_drift_dicts, max_size=2),
    "control_faults": control_fault_dicts,
})

template_entries = st.one_of(names, st.fixed_dictionaries(
    {"name": names},
    optional={"job": st.none() | st.sampled_from(["A", "mapreduce"])},
))
fleet_dicts = st.fixed_dictionaries({}, optional={
    "templates": st.lists(template_entries, min_size=1, max_size=3),
    "days": st.integers(1, 30),
    "mode": st.sampled_from(MODEL_MODES),
    "deadline_trim": st.floats(0.01, 1.5),
    "seed": st.integers(0, 2**32),
    "scale": st.sampled_from(sorted(SCALES)),
    "drift": st.none() | st.fixed_dictionaries({}, optional={
        "day": numbers(0, 30), "factor": numbers(0.05, 5),
        "stages": st.lists(names, max_size=3),
    }),
})

market_dicts = st.fixed_dictionaries({
    "tenants": st.lists(st.fixed_dictionaries(
        {"name": names, "quota": st.integers(1, 500)}), min_size=1, max_size=3),
    "jobs": st.lists(st.fixed_dictionaries({
        "name": names, "tenant": names, "work": numbers(1, 1e6),
        "width": st.integers(1, 64), "deadline_seconds": numbers(1, 1e5),
    }, optional={"submit_seconds": numbers(0, 1e5)}), min_size=1, max_size=3),
}, optional={
    "capacity": st.integers(1, 1000),
    "mode": st.sampled_from(MARKET_MODES),
    "tick_seconds": numbers(1, 600),
    "slack": numbers(1, 3),
    "max_ticks": st.integers(1, 10**6),
})


def chaos_specs():
    """``ChaosSpec`` objects, for the ``spec_to_dict`` half."""
    return chaos_dicts.map(spec_from_dict)


class TestSpecsDecodeAsTheReplacedParsersDid:
    @given(data=chaos_dicts)
    def test_chaos(self, data):
        spec = chaos_spec.spec_from_dict(data)
        assert spec == spec_from_dict(data)
        assert chaos_spec.spec_from_dict(chaos_spec.spec_to_dict(spec)) == spec

    @given(spec=chaos_specs())
    def test_chaos_spec_to_dict(self, spec):
        data = chaos_spec.spec_to_dict(spec)
        assert chaos_spec.spec_from_dict(data) == spec_from_dict(data) == spec

    @given(data=fleet_dicts)
    def test_fleet(self, data):
        assert fleet_driver.fleet_spec_from_dict(data) == fleet_spec_from_dict(data)

    @given(data=market_dicts)
    def test_market(self, data):
        assert market_spec.market_spec_from_dict(data) == market_spec_from_dict(data)


# ----------------------------------------------------------------------
# The documented traffic
# ----------------------------------------------------------------------


def documented_spec(section: str) -> str:
    """The first ```json block under ``## <section>`` in EXPERIMENTS.md."""
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split("```json\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("section, kind, load", [
    ("Injecting chaos", "chaos", persist.load_chaos_spec),
    ("Running a fleet", "fleet", fleet_driver.load_fleet_spec),
    ("Running a token market", "market", market_spec.load_market_spec),
])
def test_the_documented_examples_decode(tmp_path, section, kind, load):
    path = tmp_path / f"{kind}.json"
    path.write_text(documented_spec(section), encoding="utf-8")
    decode, reference, _error = KINDS[kind]
    payload = persist.read_spec(path, kind)
    assert decode(payload) == reference(payload)
    assert load(path) == reference(payload)
