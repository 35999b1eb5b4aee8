"""Run hygiene and statistics shared by every ladder workload.

Timings are taken at *reference host speed*.  The sandbox this runs on is a
few hyper-threads of a shared machine: for seconds to tens of minutes at a
time the same operation takes 1.3-1.6x as long (a busy sibling thread, a
neighbour in the cache), so no statistic of raw wall times repeats from run
to run - the quietest of 50 repeats of one 70 ms operation moved by 37%
between 12 s windows.  Every timed operation is therefore bracketed by runs
of a small fixed reference kernel (:func:`reference_kernel`), and its wall
time is divided by how much slower than nominal the kernel ran just before
and just after it (:class:`HostSpeed`).  A pass is a fixed list of
operations on fixed inputs, repeated until the time budget is spent; each
operation is summarised by the lower quartile of its corrected repeats.  On
logged runs under heavy interference this estimate moved by 2-5% between
20 s windows where the quietest raw repeat moved by 5-19%.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Sequence

LADDER_DIR = pathlib.Path(__file__).resolve().parent
ROOT = LADDER_DIR.parent.parent
WORK_ROOT = LADDER_DIR / ".work"

#: ``REPRO_*`` variables the runner pins itself; any other one changes what
#: is measured, so the runner refuses to start under it.
PINNED_ENV = {"REPRO_JOBS": "1"}


class HygieneError(RuntimeError):
    """The environment would make the numbers mean something else."""


def prepare_environment() -> pathlib.Path:
    """Pin the environment, put ``src/`` on the path, and return a scratch
    directory inside the checkout that is removed at exit."""
    for key, value in sorted(os.environ.items()):
        if key.startswith("REPRO_") and PINNED_ENV.get(key) != value:
            raise HygieneError(
                f"refusing to run with {key}={value!r} set: unset it "
                "(the runner pins REPRO_JOBS=1 and private cache/fleet dirs)"
            )
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise HygieneError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise HygieneError(f"imported repro from {repro.__file__}, not {src}")
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    atexit.register(_remove_work, work)
    os.environ.update(PINNED_ENV)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["REPRO_FLEET_DIR"] = str(work / "fleet")
    return work


def _remove_work(work: pathlib.Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()           # only when no other run is using it
    except OSError:
        pass


def assert_instrumentation_off() -> None:
    """End-to-end numbers are taken with the repo's own collectors idle."""
    from repro.perf import instrument
    from repro.telemetry import trace

    if instrument.COLLECTOR.enabled or trace.RECORDER.enabled:
        raise HygieneError("repro.perf or repro.telemetry capture is on")


def host_stamp() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def digest_of(payload: object) -> str:
    """sha256 of a JSON-serialisable summary of simulated statistics."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Wall time of :func:`reference_kernel` on a quiet core of the host the
#: benchmark was defined on.  Corrected times are times at this speed.
REFERENCE_SECONDS = 0.002
#: Which of an operation's corrected repeats stands for it.
STEADY_QUANTILE = 0.25


def reference_kernel() -> None:
    """A fixed piece of pure-Python work: dict reads and writes and integer
    arithmetic, about 2 ms.  It shares nothing with the program under test,
    so no change to the program can move it."""
    counts: Dict[int, int] = {}
    get = counts.get
    for i in range(20000):
        slot = i & 1023
        counts[slot] = get(slot, 0) + i


class HostSpeed:
    """How much slower than nominal the host is running, sampled with the
    reference kernel next to every timed operation."""

    def __init__(self):
        self.spent = 0.0              # seconds inside the kernel, so far
        self.slowdowns: List[float] = []
        self._before = self._after = self._sampled_at = 0.0
        self.sample()

    def sample(self) -> None:
        start = perf_counter()
        reference_kernel()
        reference_kernel()
        self._sampled_at = perf_counter()
        elapsed = self._sampled_at - start
        self.spent += elapsed
        self._before, self._after = self._after, elapsed / 2

    def sample_if_stale(self) -> None:
        """Sample unless the last sample ended within the last millisecond
        (back-to-back operations share the sample between them)."""
        if perf_counter() - self._sampled_at > 0.001:
            self.sample()

    def slowdown(self) -> float:
        """Mean of the last two samples - the ones that bracket what was
        just timed - over the nominal kernel time."""
        value = (self._before + self._after) / 2 / REFERENCE_SECONDS
        self.slowdowns.append(value)
        return value


class Op:
    """One repeat of an operation, filled in by :meth:`PassLog.timed`."""

    units = 1.0
    seconds = 0.0


class PassLog:
    """What one pass did: timed operations, counts, and findings."""

    def __init__(self, host: HostSpeed):
        self.host = host
        #: key -> [(corrected seconds, slowdown)], one entry per repeat in
        #: this pass; summed over keys into the throughput metric.
        self.work: Dict[object, List[tuple]] = {}
        #: key -> work units of one repeat.
        self.units: Dict[object, float] = {}
        #: key -> [(corrected seconds, slowdown)]: the latency metric's samples.
        self.latency: Dict[object, List[tuple]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        #: Simulated statistics and other seed-determined outputs.
        self.stats: Dict[str, object] = {}
        #: Wall-clock observations reported beside the metrics.
        self.info: Dict[str, float] = {}
        self.wall = 0.0

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def record(self, key, seconds: float, *, slowdown: float = 1.0,
               units: float = 1.0, work: bool = True,
               latency: bool = True) -> None:
        """One repeat of operation ``key`` took ``seconds`` of wall while
        the host ran ``slowdown`` times slower than nominal (1.0: the time
        is not the host's to slow, e.g. a scheduled sleep)."""
        sample = (seconds / slowdown, slowdown)
        if work:
            self.work.setdefault(key, []).append(sample)
            self.units[key] = units
        if latency:
            self.latency.setdefault(key, []).append(sample)

    @contextmanager
    def timed(self, key, *, work: bool = True, latency: bool = True):
        """Time the block as one repeat of ``key``, bracketed by reference
        samples.  Set ``units`` on the yielded :class:`Op` inside the block;
        a block that raises records nothing."""
        op = Op()
        self.host.sample_if_stale()
        start = perf_counter()
        yield op
        elapsed = perf_counter() - start
        self.host.sample()
        slowdown = self.host.slowdown()
        op.seconds = elapsed / slowdown
        self.record(key, elapsed, slowdown=slowdown, units=op.units,
                    work=work, latency=latency)


def steady(passes: List[PassLog], field: str, *,
           raw: bool = False) -> Dict[object, float]:
    """Per operation, the lower quartile of its repeats over all ``passes``
    (corrected seconds; with ``raw``, the wall seconds as measured)."""
    pooled: Dict[object, List[float]] = {}
    for one in passes:
        for key, samples in getattr(one, field).items():
            pooled.setdefault(key, []).extend(
                seconds * slowdown if raw else seconds
                for seconds, slowdown in samples
            )
    return {key: quantile(values, STEADY_QUANTILE)
            for key, values in pooled.items()}


def end_to_end(passes: List[PassLog], *, raw: bool = False) -> Dict[str, float]:
    """``work_per_s``: the work units of one pass over the steady times of
    its operations (each counted as often as a pass repeats it);
    ``op_ms_p50``: the median over operations of their steady time (see the
    module docstring)."""
    work_s = steady(passes, "work", raw=raw)
    total_s = total_units = 0.0
    for key, seconds in work_s.items():
        in_a_pass = max(len(p.work.get(key, ())) for p in passes)
        units = next(p.units[key] for p in passes if key in p.units)
        total_s += in_a_pass * seconds
        total_units += in_a_pass * units
    latency = steady(passes, "latency", raw=raw)
    return {
        "work_per_s": total_units / total_s if total_s > 0 else 0.0,
        "op_ms_p50": quantile(list(latency.values()), 0.5) * 1e3,
    }


def steady_work_seconds(passes: List[PassLog]) -> float:
    """Summed steady time of the operations of ``passes``."""
    return sum(steady(passes, "work").values())
