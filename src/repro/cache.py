"""Content-addressed on-disk cache for trained C(p, a) tables.

Model building is the dominant cost of every experiment driver: each
table is ``|allocations| x reps`` discrete-event simulations, re-paid in
every fresh process because nothing persisted.  This module gives the
pipeline a durable store: tables are keyed by a stable hash of everything
that determines their content — the learned profile's fingerprint, the
indicator kind, the allocation grid, rep count, bin count, sampling
interval, build seed, and a schema version — so a warm cache returns a
table answering every query bit-identically to a fresh build, and any
input change (or code-format change via the schema version) misses
cleanly instead of serving stale data.

Layout: one JSON file per entry under the cache root (``REPRO_CACHE_DIR``
or ``~/.cache/repro-jockey/cpa``), plus a ``_stats.json`` with cumulative
hit/miss/store counters so ``repro cache stats`` can report across
processes.  Corrupt entries are treated as misses: warn, delete, rebuild
— never crash.  Set ``REPRO_CACHE=0`` to bypass the cache entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import warnings
from typing import Dict, Optional, Sequence

from repro import persist
from repro.core.cpa import CpaTable
from repro.jobs.profiles import JobProfile
from repro.telemetry import metrics as _metrics

#: Bump when the serialized layout or the build algorithm changes in a way
#: that alters table contents: old entries then miss instead of lying.
SCHEMA_VERSION = 2

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_TOGGLE_ENV = "REPRO_CACHE"

_HITS = _metrics.REGISTRY.counter(
    "repro_cache_hits_total", "C(p, a) cache hits (tables served from disk)"
)
_MISSES = _metrics.REGISTRY.counter(
    "repro_cache_misses_total", "C(p, a) cache misses (tables rebuilt)"
)
_CORRUPT = _metrics.REGISTRY.counter(
    "repro_cache_corrupt_total", "Cache entries dropped as unreadable"
)
_STORES = _metrics.REGISTRY.counter(
    "repro_cache_stores_total", "C(p, a) tables written to the cache"
)
_PRUNED = _metrics.REGISTRY.counter(
    "repro_cache_pruned_total", "Cache entries evicted by LRU pruning"
)


class CacheError(ValueError):
    """Raised for invalid cache configuration."""


def default_root() -> pathlib.Path:
    """Cache root: ``REPRO_CACHE_DIR`` or ``~/.cache/repro-jockey/cpa``."""
    return persist.store_root(CACHE_DIR_ENV, "cpa")


def cache_enabled() -> bool:
    """False when ``REPRO_CACHE=0`` (or ``off``/``false``) is set."""
    return os.environ.get(CACHE_TOGGLE_ENV, "").strip().lower() not in (
        "0",
        "off",
        "false",
    )


def _stable_hash(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def profile_fingerprint(profile: JobProfile) -> str:
    """Content hash of a learned profile (graph + per-stage statistics)."""
    return _stable_hash(persist.profile_to_dict(profile))


def table_key(
    *,
    profile: JobProfile,
    indicator_kind: str,
    allocations: Sequence[int],
    reps: int,
    num_bins: int,
    sample_dt: float,
    seed: int,
) -> str:
    """The content address of one table build."""
    return _stable_hash(
        {
            "schema": SCHEMA_VERSION,
            "profile": profile_fingerprint(profile),
            "indicator": indicator_kind,
            "allocations": [int(a) for a in allocations],
            "reps": int(reps),
            "num_bins": int(num_bins),
            "sample_dt": float(sample_dt),
            "seed": int(seed),
        }
    )


class CpaTableCache:
    """One directory of content-addressed table entries."""

    STATS_FILE = "_stats.json"

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = pathlib.Path(root) if root is not None else default_root()

    # ------------------------------------------------------------------

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def _counts(self) -> Dict[str, int]:
        """The cumulative cross-process counters (empty when unreadable)."""
        try:
            text = (self.root / self.STATS_FILE).read_text(encoding="utf-8")
            return {k: int(v) for k, v in json.loads(text).items()}
        except (OSError, ValueError, AttributeError):
            return {}

    def _bump(self, **deltas: int) -> None:
        """Update the cumulative cross-process counters (best effort)."""
        counts = self._counts()
        for name, delta in deltas.items():
            counts[name] = counts.get(name, 0) + delta
        try:
            # Sorted keys are the file's format (compact form keeps order).
            persist.write_json(
                self.root / self.STATS_FILE, dict(sorted(counts.items()))
            )
        except OSError:  # read-only cache dir: in-process metrics still count
            pass

    # ------------------------------------------------------------------

    def load(self, key: str) -> Optional[CpaTable]:
        """The cached table for ``key``, or None (miss or corrupt entry)."""
        path = self.path_for(key)
        if not path.exists():
            _MISSES.inc()
            self._bump(misses=1)
            return None
        table = persist.read_entry(
            path,
            SCHEMA_VERSION,
            lambda payload: persist.table_from_dict(payload["table"]),
            what=f"C(p, a) cache entry {path.name}",
        )
        if table is None:
            _CORRUPT.inc()
            _MISSES.inc()
            self._bump(misses=1, corrupt=1)
            return None
        _HITS.inc()
        self._bump(hits=1)
        return table

    def store(
        self, key: str, table: CpaTable, metadata: Optional[Dict] = None
    ) -> pathlib.Path:
        """Write an entry atomically; returns its path."""
        path = self.path_for(key)
        persist.write_json(path, {
            "schema": SCHEMA_VERSION,
            "metadata": metadata or {},
            # Full precision: a cache hit must answer queries identically
            # to the build it replaced.
            "table": persist.table_to_dict(table, precision=None),
        })
        _STORES.inc()
        self._bump(stores=1)
        return path

    # ------------------------------------------------------------------

    def entries(self) -> list:
        """Entry paths currently in the cache (stats file excluded)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p
            for p in self.root.glob("*.json")
            if p.name != self.STATS_FILE
        )

    def stats(self) -> Dict[str, object]:
        """Entry count/bytes plus cumulative hit/miss/store counters."""
        entries = self.entries()
        counts = self._counts()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": persist.file_bytes(entries),
            "hits": counts.get("hits", 0),
            "misses": counts.get("misses", 0),
            "stores": counts.get("stores", 0),
            "corrupt": counts.get("corrupt", 0),
            "pruned": counts.get("pruned", 0),
        }

    def prune(self, max_bytes: int) -> "tuple[int, int]":
        """Evict least-recently-used entries (by mtime, oldest first) until
        the cache fits in ``max_bytes``; returns ``(removed, freed_bytes)``.

        A cache hit rewrites nothing, so mtime here is write-recency —
        close enough to LRU for a build cache, and free.  Name breaks
        mtime ties to keep eviction order deterministic.
        """
        if max_bytes < 0:
            raise CacheError(f"max_bytes must be >= 0, got {max_bytes!r}")
        sized = []
        total = 0
        for path in self.entries():
            try:
                st = path.stat()
            except OSError:
                continue
            sized.append((st.st_mtime, path.name, st.st_size, path))
            total += st.st_size
        removed = 0
        freed = 0
        for _mtime, _name, size, path in sorted(sized):
            if total <= max_bytes:
                break
            if not persist.remove_file(path):
                continue
            total -= size
            freed += size
            removed += 1
        if removed:
            _PRUNED.inc(removed)
            self._bump(pruned=removed)
        return removed, freed

    def clear(self) -> int:
        """Delete every entry (and the stats file); returns entries removed."""
        removed = sum(persist.remove_file(path) for path in self.entries())
        persist.remove_file(self.root / self.STATS_FILE)
        return removed


#: Lazily constructed process-default cache (root resolved per call so
#: tests can repoint ``REPRO_CACHE_DIR`` freely).
def default_cache() -> CpaTableCache:
    return CpaTableCache()


def get_or_build_table(
    profile: JobProfile,
    indicator,
    *,
    indicator_kind: str,
    seed: int,
    allocations: Sequence[int],
    reps: int,
    num_bins: int = 100,
    sample_dt: float = 15.0,
    jobs: Optional[int] = None,
    cache: Optional[CpaTableCache] = None,
    use_cache: bool = True,
) -> CpaTable:
    """Load the table from the cache or build (and store) it.

    The build itself runs through :meth:`CpaTable.build` with the explicit
    ``seed``, so cached and freshly built tables are interchangeable at
    any worker count.
    """
    enabled = use_cache and cache_enabled()
    key = None
    if enabled:
        store = cache if cache is not None else default_cache()
        key = table_key(
            profile=profile,
            indicator_kind=indicator_kind,
            allocations=allocations,
            reps=reps,
            num_bins=num_bins,
            sample_dt=sample_dt,
            seed=seed,
        )
        table = store.load(key)
        if table is not None:
            return table
    table = CpaTable.build(
        profile,
        indicator,
        seed=seed,
        allocations=allocations,
        reps=reps,
        num_bins=num_bins,
        sample_dt=sample_dt,
        jobs=jobs,
    )
    if enabled:
        try:
            store.store(
                key,
                table,
                metadata={
                    "indicator": indicator_kind,
                    "reps": int(reps),
                    "seed": int(seed),
                },
            )
        except OSError as exc:  # unwritable cache: build still succeeds
            warnings.warn(
                f"could not persist C(p, a) table to cache: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return table


__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_TOGGLE_ENV",
    "CacheError",
    "CpaTableCache",
    "SCHEMA_VERSION",
    "cache_enabled",
    "default_cache",
    "default_root",
    "get_or_build_table",
    "profile_fingerprint",
    "table_key",
]
