"""Live cluster service mode: the first substrate where tasks run
outside the simulator.

The package lifts the arbiter/job-manager into a long-running
JSON-over-HTTP service (:mod:`repro.service.server`), real worker
processes that lease task slots sized by the arbiter's token allocation
(:mod:`repro.service.worker`), a typed client
(:mod:`repro.service.client`), and a seeded open-loop load generator
(:mod:`repro.service.loadgen`).  The control math is unchanged: the
service runs the same :class:`~repro.core.control.JockeyController`
over the same C(p, a) tables.  The service owns the one clock — a
:class:`~repro.core.clock.WallClock` with a ``time_scale`` compression
factor, so trained profiles replay against live workers in seconds — and
tells each controller its job's elapsed virtual time at every tick.
"""

from repro.service.client import ServiceClient, ServiceClientError
from repro.service.loadgen import LoadgenConfig, generate_workload, run_loadgen
from repro.service.models import TemplateModelStore
from repro.service.server import ClusterService, ServiceConfig, ServiceError
from repro.service.worker import ServiceWorker, WorkerConfig

__all__ = [
    "ClusterService",
    "LoadgenConfig",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceError",
    "ServiceWorker",
    "TemplateModelStore",
    "WorkerConfig",
    "generate_workload",
    "run_loadgen",
]
