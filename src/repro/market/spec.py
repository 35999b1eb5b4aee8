"""JSON market specs for the CLI.

A market spec names tenants (with quotas), jobs (with work, width and
deadlines) and the cluster-level knobs of :class:`MarketConfig`.  Its
fields are typed through :func:`repro.persist.spec_fields`, as the chaos
and fleet specs are: *shape* problems — unknown fields, wrong types,
invalid JSON — raise :class:`MarketSpecError`, a usage error the CLI
maps to exit 2; semantic problems inside a well-formed spec (a job
referencing a tenant that does not exist) surface later as plain
:class:`MarketError` and exit 1.

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

from typing import Any, Dict, List, Tuple

from repro import persist
from repro.market.engine import MarketConfig
from repro.market.tenant import JobSpec, MarketError, Tenant


class MarketSpecError(MarketError):
    """Raised for malformed market specs (a *usage* error at the CLI)."""


#: A market spec's fields and their types (:func:`repro.persist.spec_fields`):
#: the :class:`MarketConfig` knobs plus the tenants and jobs.
_SPEC = {
    **persist.spec_schema(MarketConfig),
    "tenants": Tuple[Any, ...], "jobs": Tuple[Any, ...],
}
_TENANT = {"name": str, "quota": int}


def _entry(kind: str, item, index: int) -> str:
    """How messages name a tenant or job entry: by its name when it has
    one (``job 'etl'``), else by position (``jobs[3]``)."""
    name = item.get("name") if isinstance(item, dict) else None
    return f"{kind} {name!r}" if isinstance(name, str) else f"{kind}s[{index}]"


def market_spec_from_dict(
    data: Dict,
) -> Tuple[List[Tenant], List[JobSpec], MarketConfig]:
    """Parse a market spec dict; unknown fields and bad shapes raise
    :class:`MarketSpecError`."""
    spec = persist.spec_fields(data, _SPEC, MarketSpecError)
    entries = {key: spec.pop(key, ()) for key in ("tenants", "jobs")}
    for key, items in entries.items():
        if not items:
            raise MarketSpecError(f"{key!r} must be a non-empty list")
    try:
        tenants = [
            Tenant(**persist.spec_fields(
                item, _TENANT, MarketSpecError,
                path=_entry("tenant", item, i), required=_TENANT,
            ))
            for i, item in enumerate(entries["tenants"])
        ]
        jobs = [
            persist.spec_object(item, JobSpec, MarketSpecError,
                                path=_entry("job", item, i))
            for i, item in enumerate(entries["jobs"])
        ]
        config = MarketConfig(**spec)
    except MarketSpecError:
        raise
    except MarketError as exc:
        # Out of range (a zero width, an unknown mode) in a spec file is
        # a usage error too.
        raise MarketSpecError(f"malformed market spec: {exc}") from exc
    return tenants, jobs, config


def load_market_spec(path) -> Tuple[List[Tenant], List[JobSpec], MarketConfig]:
    """Read a market spec JSON file (with or without the
    ``{"format_version": 1, "market": {...}}`` envelope)."""
    return persist.load_spec(path, "market", market_spec_from_dict, MarketSpecError)


__all__ = ["MarketSpecError", "load_market_spec", "market_spec_from_dict"]
