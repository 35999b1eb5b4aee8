"""Schema-stamped digests with host metadata.

``repro perf run --json-out`` and ``repro loadgen`` write their digests
through :func:`stamp` / :func:`write_digest`, which add

* ``schema_version`` — bumped whenever a digest's structure changes, so
  tooling can refuse to read incompatible documents;
* ``host`` — cpu count, python version, platform — so a number measured
  on a 2-core CI sandbox is never mistaken for one from a 32-core build
  box.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Dict, Optional

#: Structure version for every digest written through this module.
SCHEMA_VERSION = 2


class DigestError(ValueError):
    """Raised when a digest cannot be read."""


def host_metadata() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": sys.platform,
    }


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB, or None where the
    ``resource`` module is unavailable (non-POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - windows
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - mac only
        rss //= 1024
    return int(rss)


def stamp(payload: Dict[str, object]) -> Dict[str, object]:
    """A copy of ``payload`` with the schema/host block added."""
    stamped = dict(payload)
    stamped["schema_version"] = SCHEMA_VERSION
    stamped["host"] = host_metadata()
    return stamped


def write_digest(path, payload: Dict[str, object]) -> Dict[str, object]:
    """Stamp and write a digest (sorted keys, trailing newline); returns
    the stamped document."""
    # Imported here: repro.persist imports the model layers, which import
    # repro.perf.instrument, which runs this package's __init__.
    from repro.persist import write_json

    stamped = stamp(payload)
    write_json(path, stamped, indent=2)
    return stamped


def read_digest(path) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DigestError(f"{path}: not a JSON digest: {exc}") from exc
    if not isinstance(document, dict):
        raise DigestError(f"{path}: JSON but not a digest object")
    return document


__all__ = [
    "DigestError",
    "SCHEMA_VERSION",
    "host_metadata",
    "peak_rss_kb",
    "read_digest",
    "stamp",
    "write_digest",
]
