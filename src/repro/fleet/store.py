"""The cross-run profile store: versioned per-template profile lineages.

Jockey's premise is *recurring* jobs: the C(p, a) model is built "given a
profile of a prior run", and production keeps re-learning that profile as
the job recurs.  This module is the missing store of record — every
completed run is re-profiled via :meth:`JobProfile.from_trace` and appended
here as a new **generation** of its template's lineage, so the update
policies (:mod:`repro.fleet.update`) always have the history they blend.

Layout mirrors :mod:`repro.cache`: one JSON file per generation under
``root/<template>/gen-NNNNNN.json`` (``REPRO_FLEET_DIR`` or
``~/.cache/repro-jockey/fleet``), written and read through the entry
primitives of :mod:`repro.persist`.  What is the lineage's own: each
entry carries the profile's content-addressed fingerprint
(:func:`repro.cache.profile_fingerprint`); on load the fingerprint is
recomputed and compared, so silent corruption is caught, warned about, and
the entry dropped — the lineage rebuilds itself from the next run, exactly
like a corrupt C(p, a) cache entry rebuilds on the next miss.
"""

from __future__ import annotations

import os
import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import persist
from repro.cache import profile_fingerprint
from repro.jobs.dag import JobGraph
from repro.jobs.profiles import JobProfile
from repro.telemetry import metrics as _metrics

#: Bump when the entry layout changes: old generations then drop (warn +
#: skip) instead of deserializing garbage.
SCHEMA_VERSION = 1

STORE_DIR_ENV = "REPRO_FLEET_DIR"

#: Template names become directory names: keep them filesystem-safe.
_TEMPLATE_RE = re.compile(r"^[A-Za-z0-9._-]+$")
_GEN_RE = re.compile(r"^gen-(\d{6})\.json$")

_APPENDS = _metrics.REGISTRY.counter(
    "repro_fleet_store_appends_total",
    "Profile generations appended to the fleet store",
    labelnames=("template",),
)
_STORE_CORRUPT = _metrics.REGISTRY.counter(
    "repro_fleet_store_corrupt_total",
    "Fleet-store generations dropped as unreadable",
)


class FleetError(ValueError):
    """Raised for invalid fleet configuration or store content."""


class FleetSpecError(FleetError):
    """Raised for malformed fleet specs (a *usage* error at the CLI)."""


def default_root() -> pathlib.Path:
    """Store root: ``REPRO_FLEET_DIR`` or ``~/.cache/repro-jockey/fleet``."""
    return persist.store_root(STORE_DIR_ENV, "fleet")


@dataclass(frozen=True)
class Generation:
    """One stored profile generation: its metadata and the profile that
    was verified (schema, fingerprint) by the one read of its file."""

    template: str
    number: int
    fingerprint: str
    path: pathlib.Path
    metadata: Dict
    profile: JobProfile = field(repr=False, compare=False)

    def load_profile(self, graph: Optional[JobGraph] = None) -> JobProfile:
        """The verified profile, re-bound to ``graph`` when one is given
        (the caller's graph object instead of the stored copy)."""
        if graph is None:
            return self.profile
        return JobProfile(
            graph, {n: self.profile.stage(n) for n in self.profile.stage_names}
        )


class ProfileStore:
    """One directory of per-template profile lineages."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = pathlib.Path(root) if root is not None else default_root()

    # ------------------------------------------------------------------

    def template_dir(self, template: str) -> pathlib.Path:
        if not _TEMPLATE_RE.match(template):
            raise FleetError(
                f"invalid template name {template!r} (use letters, digits, "
                "'.', '_', '-')"
            )
        return self.root / template

    @staticmethod
    def _gen_name(number: int) -> str:
        return f"gen-{number:06d}.json"

    def templates(self) -> List[str]:
        """Template names with at least one generation directory."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and _TEMPLATE_RE.match(p.name)
        )

    # ------------------------------------------------------------------

    def _read_generation(
        self, template: str, path: pathlib.Path
    ) -> Optional[Generation]:
        """Load one entry, verifying schema and fingerprint.  Corrupt
        entries are warned about, counted, deleted, and skipped — the
        lineage self-heals from the next appended run."""
        match = _GEN_RE.match(path.name)

        def decode(payload: Dict) -> Generation:
            profile = persist.profile_from_dict(payload["profile"])
            fingerprint = str(payload["fingerprint"])
            if profile_fingerprint(profile) != fingerprint:
                raise persist.PersistError("fingerprint mismatch")
            return Generation(
                template=template,
                number=int(match.group(1)) if match else -1,
                fingerprint=fingerprint,
                path=path,
                metadata=dict(payload.get("metadata") or {}),
                profile=profile,
            )

        generation = persist.read_entry(
            path,
            SCHEMA_VERSION,
            decode,
            what=f"fleet-store generation {path.name} of template {template!r}",
        )
        if generation is None:
            _STORE_CORRUPT.inc()
        return generation

    def generations(self, template: str) -> List[Generation]:
        """All readable generations of a template, oldest first."""
        directory = self.template_dir(template)
        if not directory.is_dir():
            return []
        out: List[Generation] = []
        for path in sorted(directory.glob("gen-*.json")):
            gen = self._read_generation(template, path)
            if gen is not None:
                out.append(gen)
        return out

    def latest(self, template: str) -> Optional[Generation]:
        gens = self.generations(template)
        return gens[-1] if gens else None

    def append(
        self,
        template: str,
        profile: JobProfile,
        *,
        metadata: Optional[Dict] = None,
    ) -> Generation:
        """Append a profile as the template's next generation (atomic)."""
        directory = self.template_dir(template)
        numbers = [
            int(m.group(1))
            for m in (_GEN_RE.match(p.name) for p in directory.glob("gen-*.json"))
            if m
        ]
        number = (max(numbers) + 1) if numbers else 0
        path = directory / self._gen_name(number)
        fingerprint = profile_fingerprint(profile)
        persist.write_json(path, {
            "schema": SCHEMA_VERSION,
            "template": template,
            "generation": number,
            "fingerprint": fingerprint,
            "profile": persist.profile_to_dict(profile),
            "metadata": metadata or {},
        })
        _APPENDS.labels(template=template).inc()
        return Generation(
            template=template,
            number=number,
            fingerprint=fingerprint,
            path=path,
            metadata=dict(metadata or {}),
            profile=profile,
        )

    # ------------------------------------------------------------------

    def load_profile(
        self,
        template: str,
        number: Optional[int] = None,
        *,
        graph: Optional[JobGraph] = None,
    ) -> JobProfile:
        """The profile at ``number`` (default: the latest generation)."""
        gens = self.generations(template)
        if not gens:
            raise FleetError(f"no generations stored for template {template!r}")
        if number is None:
            return gens[-1].load_profile(graph)
        for gen in gens:
            if gen.number == number:
                return gen.load_profile(graph)
        raise FleetError(
            f"template {template!r} has no generation {number} "
            f"(stored: {[g.number for g in gens]})"
        )

    def lineage(
        self,
        template: str,
        *,
        limit: Optional[int] = None,
        graph: Optional[JobGraph] = None,
    ) -> List[JobProfile]:
        """The last ``limit`` profiles (all when None, none when 0), oldest
        first — the input shape the update policies blend over."""
        gens = self.generations(template)
        if limit is not None:
            if limit < 0:
                raise FleetError(f"lineage limit must be >= 0, got {limit!r}")
            gens = gens[max(len(gens) - limit, 0):]
        return [gen.load_profile(graph) for gen in gens]

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Per-template generation counts and bytes, plus totals."""
        per_template: Dict[str, Dict[str, object]] = {}
        total_generations = 0
        total_bytes = 0
        for template in self.templates():
            directory = self.template_dir(template)
            paths = sorted(directory.glob("gen-*.json"))
            size = persist.file_bytes(paths)
            per_template[template] = {
                "generations": len(paths),
                "bytes": size,
            }
            total_generations += len(paths)
            total_bytes += size
        return {
            "root": str(self.root),
            "templates": len(per_template),
            "generations": total_generations,
            "bytes": total_bytes,
            "per_template": per_template,
        }

    def clear(self, template: Optional[str] = None) -> int:
        """Delete one template's lineage (or every lineage); returns the
        number of generation files removed."""
        removed = 0
        templates = [template] if template is not None else self.templates()
        for name in templates:
            directory = self.template_dir(name)
            if not directory.is_dir():
                continue
            removed += sum(
                persist.remove_file(path) for path in directory.glob("gen-*.json")
            )
            try:
                directory.rmdir()
            except OSError:
                pass
        return removed


__all__ = [
    "FleetError",
    "FleetSpecError",
    "Generation",
    "ProfileStore",
    "SCHEMA_VERSION",
    "STORE_DIR_ENV",
    "default_root",
]
