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
        try:
            tenants.append(Tenant(
                name=str(item["name"]), quota=int(item["quota"])
            ))
        except (TypeError, MarketError) as exc:
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
        try:
            jobs.append(JobSpec(
                name=str(item["name"]),
                tenant=str(item["tenant"]),
                work=float(item["work"]),
                width=int(item["width"]),
                deadline_seconds=float(item["deadline_seconds"]),
                submit_seconds=float(item.get("submit_seconds", 0.0)),
            ))
        except (TypeError, MarketError) as exc:
            raise MarketSpecError(f"malformed job: {exc}") from exc
    try:
        config = MarketConfig(
            capacity=int(data.get("capacity", 200)),
            mode=str(data.get("mode", "pooled")),
            tick_seconds=float(data.get("tick_seconds", 60.0)),
            slack=float(data.get("slack", 1.2)),
            max_ticks=int(data.get("max_ticks", 200_000)),
        )
    except (TypeError, MarketError) as exc:
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
