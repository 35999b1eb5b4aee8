"""Persistence: save and load trained Jockey artifacts as JSON.

In production, profiling runs, model building, and SLO execution happen in
different processes (and on different days).  This module serializes the
three artifacts that cross those boundaries — the job graph, the learned
profile, and the precomputed C(p, a) table — to plain JSON, so a trained
model can be checked into a model store and loaded by the job manager at
submission time.

    from repro import persist
    persist.save_bundle(path, graph=graph, profile=learned, table=table)
    graph, profile, table = persist.load_bundle(path)
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import sys
import threading
import typing
import warnings
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Type,
    TypeVar, Union,
)

import numpy as np

from repro.core.cpa import CpaTable, _AllocationColumn
from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.simkit import distributions as dist


class PersistError(ValueError):
    """Raised for malformed serialized artifacts."""


FORMAT_VERSION = 1

# ----------------------------------------------------------------------
# The one reader: spec files, bundles and the service's request bodies
# ----------------------------------------------------------------------


def spec_fields(
    data,
    schema: Mapping[str, Any],
    error: Type[ValueError],
    *,
    path: str = "",
    required: Iterable[str] = (),
) -> Dict[str, Any]:
    """The fields ``data`` sets, each decoded by its type in ``schema``.

    ``data`` must be a JSON object with no field outside ``schema`` and
    every ``required`` one.  A field decodes by its type: ``float`` is a
    finite JSON number (a bool, a string, NaN and ±inf are refused),
    ``int`` a JSON integer (a bool and a fraction are refused), ``bool``
    true or false, ``str`` a string, ``Optional[T]`` null or a ``T``,
    ``List[T]``, ``Tuple[T, ...]`` and ``Tuple[T, U]`` a list (the last of
    exactly two), ``Dict[str, T]`` an object keyed by name, a dataclass an
    object (:func:`spec_object`), and ``Any`` whatever is there.  Anything
    else raises ``error`` naming ``path``, the field and the value."""
    where = f"{path}: " if path else ""
    if not isinstance(data, dict):
        raise error(f"{path or 'spec'} must be an object, got {type(data).__name__}")
    unknown = data.keys() - schema.keys()
    if unknown:
        raise error(
            f"{where}unknown field(s) {sorted(unknown)} (known: {sorted(schema)})"
        )
    missing = [name for name in required if name not in data]
    if missing:
        raise error(f"{where}missing field(s) {missing}")
    return {
        name: _spec_value(data[name], tp, path, name, error)
        for name, tp in schema.items() if name in data
    }


def spec_schema(cls) -> Dict[str, Any]:
    """The spec schema of a dataclass: its init fields and annotations."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}


def spec_object(data, cls, error: Type[ValueError], *, path: str = ""):
    """``cls(**fields)`` for the dataclass ``cls`` decoded from ``data`` by
    :func:`spec_fields` over :func:`spec_schema`; a field without a default
    is required, and range checks stay in ``cls.__post_init__`` (its
    ``settable.check`` and the rules no kind expresses)."""
    required = [
        f.name for f in dataclasses.fields(cls)
        if f.init and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    return cls(**spec_fields(
        data, spec_schema(cls), error, path=path, required=required
    ))


def _spec_value(value, tp, path: str, key: str, error: Type[ValueError]):
    """``value`` decoded as ``tp``; ``key`` names it inside ``path``."""
    where = f"{path}: '{key}'" if path else f"'{key}'"
    if tp is Any:
        return value
    if tp is float:
        # ``abs(x) <= max`` refuses NaN, ±inf and an int too big to convert.
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max):
            return float(value)
        raise error(f"{where} must be a finite number, got {value!r}")
    if tp is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise error(f"{where} must be an integer, got {value!r}")
    if tp is bool:
        if isinstance(value, bool):
            return value
        raise error(f"{where} must be true or false, got {value!r}")
    if tp is str:
        if isinstance(value, str):
            return value
        raise error(f"{where} must be a string, got {value!r}")
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union:
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _spec_value(value, inner, path, key, error)
    if origin is dict:
        if not isinstance(value, dict):
            raise error(f"{where} must be an object, got {value!r}")
        return {
            name: _spec_value(item, args[1], path, f"{key}.{name}", error)
            for name, item in value.items()
        }
    if origin in (tuple, list):
        homogeneous = origin is list or args[-1] is Ellipsis
        if not isinstance(value, list) or not (
            homogeneous or len(value) == len(args)
        ):
            what = "a list" if homogeneous else f"a list of {len(args)}"
            raise error(f"{where} must be {what}, got {value!r}")
        if (homogeneous and args[0] is float and set(map(type, value)) <= {float}
                and math.isfinite(sum(value))):
            # An empirical distribution holds thousands of samples: checked at
            # C speed, as NaN or ±inf makes the sum non-finite (an overflowing
            # sum only sends them the long way, which names a bad one).
            return origin(value)
        if homogeneous:
            args = (args[0],) * len(value)
        return origin(
            _spec_value(item, arg, path, f"{key}[{i}]", error)
            for i, (item, arg) in enumerate(zip(value, args))
        )
    if dataclasses.is_dataclass(tp):
        return spec_object(value, tp, error, path=f"{path}.{key}" if path else key)
    raise TypeError(f"no spec decoding for {tp!r}")


# ----------------------------------------------------------------------
# Distributions
# ----------------------------------------------------------------------

_DIST_TYPES = {
    "constant": dist.Constant,
    "uniform": dist.Uniform,
    "exponential": dist.Exponential,
    "lognormal": dist.LogNormal,
    "with_outliers": dist.WithOutliers,
    "truncated": dist.Truncated,
    "empirical": dist.Empirical,
    "scaled": dist.Scaled,
}


#: Each kind's fields on disk: its class's, in field order, ``mean`` for
#: ``Exponential.mean_value`` and a ``base`` a distribution itself.
_DIST_FIELDS = {kind: {"kind": str, **{
    "mean" if name == "mean_value" else name: Any if name == "base" else tp
    for name, tp in spec_schema(cls).items()
}} for kind, cls in _DIST_TYPES.items()}
_DIST_KINDS = {cls: kind for kind, cls in _DIST_TYPES.items()}


def distribution_to_dict(d) -> Dict:
    """``d`` as its kind and the fields :data:`_DIST_FIELDS` reads back."""
    if type(d) not in _DIST_KINDS:
        raise PersistError(f"unknown distribution type {type(d).__name__}")
    payload = {"kind": _DIST_KINDS[type(d)]}
    for f in dataclasses.fields(d):
        value = getattr(d, f.name)
        if f.name == "base":
            value = distribution_to_dict(value)
        elif f.name == "values":
            value = [float(v) for v in value]
        payload["mean" if f.name == "mean_value" else f.name] = value
    return payload


def distribution_from_dict(data, path: str = "distribution"):
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in tuple(_DIST_FIELDS):     # by ==: a list kind is refused, not hashed
        raise PersistError(f"{path} must be an object whose 'kind' is one of "
                           f"{sorted(_DIST_FIELDS)}, got {data!r}")
    fields = spec_fields(data, _DIST_FIELDS[kind], PersistError, path=path,
                         required=_DIST_FIELDS[kind])
    del fields["kind"]
    if "base" in fields:
        fields["base"] = distribution_from_dict(fields["base"], f"{path}.base")
    try:
        return _DIST_TYPES[kind](*fields.values())
    except dist.DistributionError as exc:       # it does not say which one
        raise PersistError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# Job graphs
# ----------------------------------------------------------------------

#: A graph's fields (``graph_to_dict``); an edge's ``kind`` names an
#: ``EdgeType``.
_GRAPH = {"name": str, "stages": Tuple[Stage, ...], "edges": Tuple[Any, ...]}
_EDGE = {"src": str, "dst": str, "kind": str}
_EDGE_TYPES = {kind.value: kind for kind in EdgeType}


def graph_to_dict(graph: JobGraph) -> Dict:
    return {
        "name": graph.name,
        "stages": [
            {"name": s.name, "num_tasks": s.num_tasks} for s in graph.stages
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "kind": e.kind.value}
            for e in graph.edges
        ],
    }


def graph_from_dict(data, path: str = "graph") -> JobGraph:
    fields = spec_fields(data, _GRAPH, PersistError, path=path, required=_GRAPH)
    edges = []
    for i, item in enumerate(fields["edges"]):
        where = f"{path}.edges[{i}]"
        edge = spec_fields(item, _EDGE, PersistError, path=where, required=_EDGE)
        if edge["kind"] not in _EDGE_TYPES:
            raise PersistError(f"{where}: 'kind' must be one of "
                               f"{sorted(_EDGE_TYPES)}, got {edge['kind']!r}")
        edges.append(Edge(edge["src"], edge["dst"], _EDGE_TYPES[edge["kind"]]))
    return JobGraph(fields["name"], fields["stages"], edges)


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------

#: A profile's fields (``profile_to_dict``): its graph and each stage's
#: statistics by name.
_PROFILE = {"graph": Any, "stages": Dict[str, Any]}
_STAGE_PROFILE = {"runtime": Any, "init": Any, "queue_obs": Any, "failure_prob": float,
                  "rel_span": Optional[Tuple[float, float]]}
_STAGE_DISTRIBUTIONS = ("runtime", "init", "queue_obs")


def profile_to_dict(profile: JobProfile) -> Dict:
    stages = {}
    for name in profile.stage_names:
        sp = profile.stage(name)
        stages[name] = {
            "runtime": distribution_to_dict(sp.runtime),
            "init": distribution_to_dict(sp.init),
            "queue_obs": distribution_to_dict(sp.queue_obs),
            "failure_prob": sp.failure_prob,
            "rel_span": list(sp.rel_span) if sp.rel_span is not None else None,
        }
    return {"graph": graph_to_dict(profile.graph), "stages": stages}


def profile_from_dict(
    data, graph: Optional[JobGraph] = None, path: str = "profile"
) -> JobProfile:
    """A bundle passes its own ``graph`` for the profile's copy."""
    fields = spec_fields(data, _PROFILE, PersistError, path=path,
                         required=_PROFILE if graph is None else ["stages"])
    if graph is None:
        graph = graph_from_dict(fields["graph"], f"{path}.graph")
    stages = {}
    for name, item in fields["stages"].items():
        where = f"{path}.stages.{name}"
        stage = spec_fields(item, _STAGE_PROFILE, PersistError, path=where,
                            required=_STAGE_DISTRIBUTIONS + ("failure_prob",))
        for key in _STAGE_DISTRIBUTIONS:
            stage[key] = distribution_from_dict(stage[key], f"{where}.{key}")
        stages[name] = StageProfile(name, **stage)
    return JobProfile(graph, stages)


# ----------------------------------------------------------------------
# C(p, a) tables
# ----------------------------------------------------------------------

#: A table's fields (``table_to_dict``): a column is its allocation's bins.
_TABLE = {"allocations": List[int], "num_bins": int,
          "columns": Dict[str, List[Any]]}


def table_to_dict(table: CpaTable, *, precision: Optional[int] = 2) -> Dict:
    """Serialize a table; samples are rounded to ``precision`` decimals
    (centisecond resolution is far below model error).  ``precision=None``
    keeps full float precision — the model cache uses it so a cache hit
    answers queries bit-identically to the freshly built table."""
    columns = {}
    for a in table.allocations:
        column = table._columns[a]
        if precision is None:
            columns[str(a)] = [
                [float(v) for v in bin_samples] for bin_samples in column.bins
            ]
        else:
            columns[str(a)] = [
                [round(float(v), precision) for v in bin_samples]
                for bin_samples in column.bins
            ]
    return {
        "allocations": list(table.allocations),
        "num_bins": table.num_bins,
        "columns": columns,
    }


def table_from_dict(data, path: str = "table") -> CpaTable:
    """The samples decode vectorised, by numpy: a model-cache hit reloads
    every table through here."""
    fields = spec_fields(data, _TABLE, PersistError, path=path, required=_TABLE)
    columns = {}
    for a in fields["allocations"]:
        if str(a) not in fields["columns"]:
            raise PersistError(f"{path}: 'columns' has no {str(a)!r} for allocation {a}")
        try:
            columns[a] = _AllocationColumn([
                np.asarray(b, dtype=float) for b in fields["columns"][str(a)]
            ])
        except (TypeError, ValueError, OverflowError) as exc:  # numpy cannot read it
            raise PersistError(f"{path}: 'columns.{a}' must be a list of lists "
                               f"of numbers: {exc}") from exc
    return CpaTable(fields["allocations"], columns, fields["num_bins"])


# ----------------------------------------------------------------------
# Files: the one writer, the one entry reader
# ----------------------------------------------------------------------


PathLike = Union[str, pathlib.Path]
_T = TypeVar("_T")


def write_json(path: PathLike, doc, *, indent: Optional[int] = None) -> None:
    """Write ``doc`` to ``path`` as JSON through :func:`write_text`.  With
    ``indent`` the keys are sorted and a newline ends the file (digests and
    specs: diffable bytes); without it, the compact form bundles use."""
    if indent is None:
        text = json.dumps(doc)
    else:
        text = json.dumps(doc, indent=indent, sort_keys=True) + "\n"
    write_text(path, text)


def write_text(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, atomically: the text goes to a
    temporary file beside ``path`` (parents created) which then replaces
    it, so a reader — or the next command after a killed writer — sees the
    previous file or the new one, never a truncated one.  The temporary
    name is the writer's own (process and thread), so two writers of one
    path each rename a whole file and the later one wins."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def store_root(env: str, leaf: str) -> pathlib.Path:
    """Root directory of an on-disk store: ``$env`` when set, otherwise
    ``~/.cache/repro-jockey/<leaf>``."""
    value = os.environ.get(env, "").strip()
    if value:
        return pathlib.Path(value)
    return pathlib.Path.home() / ".cache" / "repro-jockey" / leaf


def remove_file(path: pathlib.Path) -> bool:
    """Unlink ``path``; False when it could not be removed (already gone,
    read-only store) — a store never fails because cleanup did."""
    try:
        path.unlink()
    except OSError:
        return False
    return True


def file_bytes(paths: Iterable[pathlib.Path]) -> int:
    """Total size of ``paths``, skipping any that vanished meanwhile."""
    total = 0
    for path in paths:
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return total


def read_entry(
    path: pathlib.Path,
    schema: int,
    decode: Callable[[Dict], _T],
    *,
    what: str,
) -> Optional[_T]:
    """Read one store entry — a JSON object ``{"schema": N, ...}`` written
    by :func:`write_json` — and return ``decode(payload)``.

    A store answers from a file exactly or not at all: an entry that does
    not parse, carries another schema version, or that ``decode`` rejects
    (by raising) is warned about as ``dropping corrupt <what>: <reason>``,
    deleted, and reported as ``None``, so the caller rebuilds it instead
    of serving — or crashing on — damaged bytes."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("schema") != schema:
            raise PersistError(f"schema {payload.get('schema')!r} != {schema}")
        return decode(payload)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        warnings.warn(
            f"dropping corrupt {what}: {exc}", RuntimeWarning, stacklevel=3
        )
        remove_file(path)
        return None


# ----------------------------------------------------------------------
# Spec files: chaos, fleet and market
# ----------------------------------------------------------------------


def save_chaos_spec(path: PathLike, spec) -> None:
    """Write a :class:`repro.chaos.ChaosSpec` as JSON."""
    from repro.chaos.spec import spec_to_dict

    payload = {"format_version": FORMAT_VERSION, "chaos": spec_to_dict(spec)}
    write_json(path, payload, indent=2)


def _read_json(path: PathLike):
    try:
        return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PersistError(f"not valid JSON: {exc}") from exc


def read_spec(path: PathLike, key: str):
    """Parse a chaos / fleet / market spec file and strip its optional
    ``{"format_version": 1, key: {...}}`` envelope (a bare spec loads too)."""
    payload = _read_json(path)
    if isinstance(payload, dict) and key in payload:
        version = payload.get("format_version", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise PersistError(
                f"unsupported {key} spec version {version!r} "
                f"(expected {FORMAT_VERSION})"
            )
        payload = payload[key]
    return payload


def load_spec(path: PathLike, key: str, decode: Callable[[Dict], _T],
              error: Type[ValueError]) -> _T:
    """``decode`` the ``key`` spec file at ``path``; an unreadable file or
    a bad envelope raises ``error`` too."""
    try:
        payload = read_spec(path, key)
    except OSError as exc:
        raise error(f"cannot read {key} spec: {exc}") from exc
    except PersistError as exc:
        raise error(str(exc)) from exc
    return decode(payload)


def load_chaos_spec(path: PathLike):
    """Read a chaos schedule written by :func:`save_chaos_spec` (or
    hand-written: a bare spec object without the envelope also loads).
    Malformed content raises :class:`PersistError`; semantic validation
    against a concrete cluster/job happens at engine construction."""
    from repro.chaos.spec import ChaosError, spec_from_dict

    try:
        return load_spec(path, "chaos", spec_from_dict, PersistError)
    except ChaosError as exc:
        raise PersistError(f"malformed chaos spec: {exc}") from exc


# ----------------------------------------------------------------------
# Bundles
# ----------------------------------------------------------------------


def save_bundle(
    path: PathLike,
    *,
    graph: JobGraph,
    profile: JobProfile,
    table: Optional[CpaTable] = None,
    metadata: Optional[Dict] = None,
) -> None:
    """Write a trained-job bundle (graph + profile [+ C(p, a)]) to JSON."""
    payload = {
        "format_version": FORMAT_VERSION,
        "graph": graph_to_dict(graph),
        "profile": profile_to_dict(profile),
        "table": table_to_dict(table) if table is not None else None,
        "metadata": metadata or {},
    }
    write_json(path, payload)


#: A bundle's fields (``save_bundle``); ``table`` may be null.
_BUNDLE = {"format_version": int, "graph": Any, "profile": Any, "table": Any,
           "metadata": Dict[str, Any]}


def bundle_from_dict(
    payload,
) -> Tuple[JobGraph, JobProfile, Optional[CpaTable]]:
    """Decode a parsed bundle: the one definition of what a bundle is, under
    both :func:`load_bundle` and the live service's inline upload.  A
    malformed field raises :class:`PersistError` naming its path; a value
    the graph, the profile or the table refuses raises that class's own
    ``ValueError``, which names what it refused."""
    version = payload.get("format_version") if isinstance(payload, dict) else FORMAT_VERSION
    if version != FORMAT_VERSION:
        raise PersistError(f"unsupported bundle version {version!r} (expected {FORMAT_VERSION})")
    fields = spec_fields(payload, _BUNDLE, PersistError, path="bundle",
                         required=["format_version", "graph", "profile"])
    graph = graph_from_dict(fields["graph"])
    profile = profile_from_dict(fields["profile"], graph)
    table = fields.get("table")
    return graph, profile, None if table is None else table_from_dict(table)


def load_bundle(
    path: PathLike,
) -> Tuple[JobGraph, JobProfile, Optional[CpaTable]]:
    """Read a bundle written by :func:`save_bundle`."""
    return bundle_from_dict(_read_json(path))


__all__ = [
    "FORMAT_VERSION",
    "PersistError",
    "bundle_from_dict",
    "distribution_from_dict",
    "distribution_to_dict",
    "file_bytes",
    "graph_from_dict",
    "graph_to_dict",
    "load_bundle",
    "load_chaos_spec",
    "load_spec",
    "read_entry",
    "read_spec",
    "remove_file",
    "save_chaos_spec",
    "spec_fields",
    "spec_object",
    "spec_schema",
    "profile_from_dict",
    "profile_to_dict",
    "save_bundle",
    "store_root",
    "table_from_dict",
    "table_to_dict",
    "write_json",
    "write_text",
]
