"""JSON market specs for the CLI.

A market spec names tenants (with quotas), jobs (with work, width and
deadlines) and the cluster-level knobs of :class:`MarketConfig`.  The
loader mirrors :func:`repro.fleet.driver.load_fleet_spec`: *shape*
problems — unknown fields, wrong types, invalid JSON — raise
:class:`MarketSpecError`, a usage error the CLI maps to exit 2; semantic
problems inside a well-formed spec (a job referencing a tenant that does
not exist) surface later as plain :class:`MarketError` and exit 1.

Example::

    {
      "format_version": 1,
      "market": {
        "capacity": 120,
        "mode": "pooled",
        "tenants": [{"name": "acme", "quota": 40}],
        "jobs": [
          {"name": "etl", "tenant": "acme", "work": 9000,
           "width": 16, "deadline_seconds": 1800}
        ]
      }
    }
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import persist
from repro.market.engine import MarketConfig
from repro.market.tenant import JobSpec, MarketError, Tenant


class MarketSpecError(MarketError):
    """Raised for malformed market specs (a *usage* error at the CLI)."""


_SPEC_FIELDS = {
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
    unknown = set(data) - _SPEC_FIELDS
    if unknown:
        raise MarketSpecError(
            f"unknown market spec field(s) {sorted(unknown)} "
            f"(known: {sorted(_SPEC_FIELDS)})"
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


def load_market_spec(path) -> Tuple[List[Tenant], List[JobSpec], MarketConfig]:
    """Read a market spec JSON file (with or without the
    ``{"format_version": 1, "market": {...}}`` envelope)."""
    try:
        payload = persist.read_spec(path, "market")
    except OSError as exc:
        raise MarketSpecError(f"cannot read market spec: {exc}") from exc
    except persist.PersistError as exc:
        raise MarketSpecError(str(exc)) from exc
    return market_spec_from_dict(payload)


__all__ = ["MarketSpecError", "load_market_spec", "market_spec_from_dict"]
