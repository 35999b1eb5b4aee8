"""Trained-model store for the live service.

Template jobs submitted by name ("mapreduce", "A".."G") need a graph, a
learned profile, and a C(p, a) table before the controller can promise
anything about them.  The store trains each template lazily — the same
profiling-run-then-build pipeline as ``repro train`` — through the
content-addressed model cache, so the first submission of a template
pays the build once and every later submission (and every later service
process on the same machine) gets a warm hit.

Tests inject tiny pre-built bundles with :meth:`TemplateModelStore.add`
to keep the service lifecycle fast and deterministic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import persist
from repro.core.cpa import DEFAULT_ALLOCATIONS, CpaTable
from repro.experiments.scenarios import TRAINING_ALLOCATION, learn_model, run_training
from repro.jobs.dag import JobGraph
from repro.jobs.profiles import JobProfile
from repro.jobs.workloads import TABLE2_SPECS, named_job
from repro.simkit.random import derive_seed


class TemplateError(ValueError):
    """Raised for unknown templates or malformed uploaded bundles."""


@dataclass(frozen=True)
class TrainedTemplate:
    """Everything the service needs to run and predict one job shape."""

    name: str
    graph: JobGraph
    profile: JobProfile
    table: Optional[CpaTable]

    @property
    def total_work_seconds(self) -> float:
        """Expected token-seconds of the whole job (the market's ``work``)."""
        return sum(
            self.graph.stage(name).num_tasks
            * self.profile.stage(name).mean_task_cost()
            for name in self.profile.stage_names
        )

    @property
    def width(self) -> int:
        """Maximum useful parallelism: the widest stage."""
        return max(s.num_tasks for s in self.graph.stages)


class TemplateModelStore:
    """Lazily trained (graph, profile, table) triples, by template name."""

    def __init__(self, *, seed: int = 0, cpa_reps: int = 2):
        self.seed = int(seed)
        self.cpa_reps = int(cpa_reps)
        self._lock = threading.Lock()
        self._trained: Dict[str, TrainedTemplate] = {}

    # ------------------------------------------------------------------

    def available(self) -> Tuple[str, ...]:
        """Template names submittable by reference."""
        with self._lock:
            injected = set(self._trained)
        return tuple(sorted(injected | {"mapreduce"} | set(TABLE2_SPECS)))

    def add(
        self,
        name: str,
        graph: JobGraph,
        profile: JobProfile,
        table: Optional[CpaTable],
    ) -> TrainedTemplate:
        """Inject a pre-built template (test hook and ``--bundle`` path)."""
        trained = TrainedTemplate(name, graph, profile, table)
        with self._lock:
            self._trained[name] = trained
        return trained

    def get(self, name: str) -> TrainedTemplate:
        """The trained template, building it on first use.

        Training happens outside the service's request lock (the store has
        its own) so a cold first submission never blocks heartbeats.
        """
        with self._lock:
            hit = self._trained.get(name)
        if hit is not None:
            return hit
        trained = self._train(name)
        with self._lock:
            # First builder wins if two submissions raced.
            return self._trained.setdefault(name, trained)

    def from_bundle_payload(self, payload: Dict) -> TrainedTemplate:
        """Parse an inline-uploaded bundle (the ``repro train`` format)."""
        try:
            graph, profile, table = persist.bundle_from_dict(payload)
        except ValueError as exc:   # a PersistError, or a refused value
            raise TemplateError(f"cannot load bundle: {exc}") from exc
        job = payload.get("metadata", {}).get("job")
        return TrainedTemplate(str(job or graph.name), graph, profile, table)

    # ------------------------------------------------------------------

    def _train(self, name: str) -> TrainedTemplate:
        generated = named_job(name, seed=self.seed)
        if generated is None:
            raise TemplateError(
                f"unknown template {name!r} "
                f"(choose from {', '.join(self.available())})"
            )
        trace = run_training(
            generated,
            seed=self.seed,
            allocation=TRAINING_ALLOCATION,
            stream=f"service-train:{name}",
        )
        learned, _indicator, table = learn_model(
            generated.graph,
            trace,
            seed=derive_seed(self.seed, f"service-cpa:{name}"),
            allocations=DEFAULT_ALLOCATIONS,
            reps=self.cpa_reps,
        )
        return TrainedTemplate(name, generated.graph, learned, table)


__all__ = ["TemplateError", "TemplateModelStore", "TrainedTemplate"]
