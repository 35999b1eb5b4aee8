"""repro-jockey: a reproduction of *Jockey: Guaranteed Job Latency in Data
Parallel Clusters* (Ferguson, Bodik, Kandula, Boutin, Fonseca — EuroSys 2012).

Layering (bottom to top):

* :mod:`repro.simkit` — discrete-event engine, RNG streams, distributions.
* :mod:`repro.jobs` — SCOPE/Dryad-style job DAGs, traces, profiles, and the
  synthetic workloads standing in for the paper's production jobs.
* :mod:`repro.cluster` — the simulated Cosmos: token scheduling with spare
  redistribution and eviction, background load, machine failures.
* :mod:`repro.runtime` — the job manager executing DAGs on the cluster.
* :mod:`repro.core` — Jockey itself: offline simulator, C(p, a) tables,
  progress indicators, utility functions, control loop, policies.
* :mod:`repro.experiments` — drivers regenerating every evaluation table
  and figure, plus extension experiments (online model correction,
  straggler speculation, multi-job arbitration, §2.4/§3.2 studies).
* :mod:`repro.telemetry` — metrics registry, structured trace recorder,
  Chrome/JSONL exporters, and the control-loop decision audit.
* :mod:`repro.perf` — the performance observatory: hierarchical phase
  timers/counters for the simulator's hot paths, a cProfile wrapper with
  collapsed-stack export, and the schema-stamped digest of one run
  (``repro perf run`` / ``repro perf report``).
* :mod:`repro.persist` — JSON bundles for trained models.
* :mod:`repro.chaos` — declarative fault injection: cluster and
  control-plane fault schedules replayed deterministically.
* :mod:`repro.fleet` — recurring-job fleets: the cross-run profile store,
  online update policies, and the drift-gated model refresh
  (``repro fleet run`` / ``repro fleet stats``).
* :mod:`repro.market` — the multi-tenant token market: tenant quotas,
  guarantee-reserving admission, and the batched per-tick spare-capacity
  auction (``repro market run`` / ``repro market stats``).
* :mod:`repro.cache` — content-addressed on-disk store for trained
  C(p, a) tables (``REPRO_CACHE_DIR``, ``repro cache stats``).
* :mod:`repro.parallel` — process-pool fan-out for model builds and
  experiment sweeps (``REPRO_JOBS`` / ``--jobs``).
* :mod:`repro.cli` — ``python -m repro`` command-line interface.

See ``examples/quickstart.py`` for the end-to-end flow: train on one run,
build the C(p, a) model, and control a live job against a deadline.
"""

from repro.core import (
    AmdahlModel,
    AmdahlPolicy,
    ControlConfig,
    CpaPredictor,
    CpaTable,
    JockeyController,
    JockeyPolicy,
    MaxAllocationPolicy,
    NoAdaptationPolicy,
    PiecewiseLinearUtility,
    deadline_utility,
    oracle_allocation,
    simulate_job,
    totalwork_with_q,
)
from repro.cache import CpaTableCache, get_or_build_table
from repro.cluster import Cluster, ClusterConfig
from repro.jobs import JobGraph, JobProfile, RunTrace, generate_table2_jobs
from repro.parallel import parallel_map, resolve_jobs
from repro.runtime import JobManager, run_to_completion
from repro.telemetry import (
    MetricsRegistry,
    TraceEvent,
    TraceRecorder,
    capture,
)

__version__ = "1.11.0"

__all__ = [
    "AmdahlModel",
    "AmdahlPolicy",
    "Cluster",
    "ClusterConfig",
    "ControlConfig",
    "CpaPredictor",
    "CpaTable",
    "CpaTableCache",
    "JobGraph",
    "JobManager",
    "JobProfile",
    "JockeyController",
    "JockeyPolicy",
    "MaxAllocationPolicy",
    "MetricsRegistry",
    "NoAdaptationPolicy",
    "PiecewiseLinearUtility",
    "RunTrace",
    "TraceEvent",
    "TraceRecorder",
    "__version__",
    "capture",
    "deadline_utility",
    "generate_table2_jobs",
    "get_or_build_table",
    "oracle_allocation",
    "parallel_map",
    "resolve_jobs",
    "run_to_completion",
    "simulate_job",
    "totalwork_with_q",
]
