"""Worker processes for the live service.

A worker registers with the arbiter, then loops: lease up to ``slots``
tasks, execute each in its own thread (a real subprocess for command
jobs, a scaled sleep for profile-sampled tasks), and report completion.
The lease call doubles as the heartbeat; a worker saturated with work
sends explicit heartbeats instead so a long task never looks like a
crash.

``kill()`` exists for chaos drills and tests: it silences the worker
instantly — no more heartbeats, no completion reports — which is
exactly what a machine failure looks like from the arbiter's side.
"""

from __future__ import annotations

import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.service.client import ServiceClient, ServiceClientError
from repro.settable import Count, Positive, check


@dataclass(frozen=True)
class WorkerConfig:
    url: str
    name: str = "worker"
    slots: Count = 20
    #: Wall-seconds cap on one subprocess task (safety net; sleep tasks
    #: are bounded by construction).
    command_timeout: Positive = 300.0
    #: Give up after this many consecutive failed calls to the arbiter.
    max_connect_failures: Count = 20

    def __post_init__(self):
        check(self, ValueError)
        if not self.url:
            raise ValueError("worker needs the arbiter url")


class ServiceWorker:
    """One worker: a lease/execute/report loop over ``slots`` task threads."""

    def __init__(
        self,
        config: WorkerConfig,
        *,
        client: Optional[ServiceClient] = None,
    ):
        self.config = config
        self._owns_client = client is None
        self.client = client if client is not None else ServiceClient(config.url)
        self.worker_id: Optional[str] = None
        self.tasks_done = 0
        self.tasks_failed = 0
        #: Set when the loop exits abnormally (registration failure,
        #: arbiter unreachable); the CLI surfaces it as the offender.
        self.error: Optional[str] = None
        self._poll = 0.05
        self._heartbeat_gap = 1.0
        #: Wall monotonic of the last successful exchange with the
        #: arbiter (any thread); heartbeats are only sent when this
        #: lapses, since completions prove liveness too.
        self._last_contact = 0.0
        self._stop = threading.Event()
        self._killed = threading.Event()
        #: Set by executor threads when a slot frees without a chained
        #: task, so the lease loop reacts immediately instead of waiting
        #: out the poll interval.
        self._slot_freed = threading.Event()
        self._active: Dict[str, threading.Thread] = {}
        self._active_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------

    def start(self) -> "ServiceWorker":
        """Run the loop in a background thread (the in-process test mode)."""
        self._thread = threading.Thread(
            target=self.run, name=f"repro-worker-{self.config.name}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful exit: finish in-flight tasks, stop leasing."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def kill(self) -> None:
        """Simulate a crash: drop off the network mid-lease."""
        self._killed.set()
        self._stop.set()

    @property
    def killed(self) -> bool:
        return self._killed.is_set()

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------

    def run(self) -> int:
        """The blocking worker loop; returns an exit code (0 clean)."""
        try:
            return self._run()
        finally:
            # A killed worker says nothing more, not even FIN: the
            # arbiter's idle timeout reaps what a dead machine leaves.
            if self._owns_client and not self._killed.is_set():
                self.client.close()

    def _run(self) -> int:
        try:
            registered = self.client.register_worker(
                name=self.config.name, slots=self.config.slots
            )
        except ServiceClientError as exc:
            self.error = (
                f"cannot register with arbiter at {self.config.url}: {exc}"
            )
            return 1
        self.worker_id = registered["worker_id"]
        self._poll = float(registered.get("poll_seconds", self._poll))
        self._heartbeat_gap = float(
            registered.get("heartbeat_seconds", self._heartbeat_gap)
        )
        self._last_contact = time.monotonic()
        failures = 0
        while not self._stop.is_set():
            free = self._free_slots()
            if free == 0 and (
                time.monotonic() - self._last_contact < self._heartbeat_gap
            ):
                # Saturated and recently heard from (task chains report
                # completions): no need to add heartbeat traffic.
                self._slot_freed.clear()
                if not self._stop.is_set():
                    self._slot_freed.wait(self._poll)
                continue
            try:
                if free > 0:
                    reply = self.client.lease(self.worker_id, max_tasks=free)
                else:
                    reply = self.client.heartbeat(self.worker_id)
                failures = 0
                self._last_contact = time.monotonic()
            except ServiceClientError:
                failures += 1
                if failures >= self.config.max_connect_failures:
                    # The arbiter is gone (or declared us lost): exit so a
                    # supervisor can restart with a fresh registration.
                    self.error = (
                        f"lost contact with arbiter at {self.config.url} "
                        f"after {failures} attempts"
                    )
                    self._stop.set()
                    return 1
                self._stop.wait(self._poll)
                continue
            if reply.get("shutdown"):
                break
            tasks = reply.get("tasks", [])
            for task in tasks:
                self._launch(task)
            if not tasks:
                self._slot_freed.clear()
                if not self._stop.is_set():
                    # Wake early if an executor frees a slot.
                    self._slot_freed.wait(self._poll)
        self._drain_active()
        return 0

    # ------------------------------------------------------------------

    def _free_slots(self) -> int:
        with self._active_lock:
            dead = [t for t, th in self._active.items() if not th.is_alive()]
            for task_id in dead:
                del self._active[task_id]
            return self.config.slots - len(self._active)

    def _launch(self, task: Dict) -> None:
        thread = threading.Thread(
            target=self._execute,
            args=(task,),
            name=f"repro-task-{task.get('task_id', '?')}",
            daemon=True,
        )
        with self._active_lock:
            self._active[str(task.get("task_id"))] = thread
        thread.start()

    def _execute(self, task: Dict) -> None:
        # Task chain: each completion reply may carry the slot's next
        # task, so a busy slot never pays the poll interval between
        # tasks (at high time compression that latency is what decides
        # whether deadlines are met).
        while task is not None and not self._stop.is_set():
            outcome = self._run_one(task)
            if self._killed.is_set():
                return                  # crash semantics: report nothing
            try:
                reply = self.client.complete_task(
                    task_id=str(task.get("task_id")),
                    worker_id=str(self.worker_id),
                    outcome=outcome,
                    lease_max=1,
                )
            except ServiceClientError:
                # Stale lease (we were declared lost, or the task was
                # re-queued): the arbiter already moved on.
                break
            self._last_contact = time.monotonic()
            if outcome == "ok":
                self.tasks_done += 1
            else:
                self.tasks_failed += 1
            chained = reply.get("tasks") or []
            task = chained[0] if chained else None
        self._slot_freed.set()

    def _run_one(self, task: Dict) -> str:
        mode = task.get("mode", "sleep")
        if mode == "command":
            try:
                proc = subprocess.run(
                    [str(a) for a in task.get("argv", [])],
                    capture_output=True,
                    timeout=self.config.command_timeout,
                )
                return "ok" if proc.returncode == 0 else "failed"
            except (OSError, subprocess.SubprocessError):
                return "failed"
        # Interruptible sleep: a killed worker abandons the task
        # immediately, exactly like a dead machine would.
        self._killed.wait(float(task.get("wall_seconds", 0.0)))
        return "ok"

    def _drain_active(self) -> None:
        if self._killed.is_set():
            return
        with self._active_lock:
            threads = list(self._active.values())
        for thread in threads:
            thread.join(timeout=self.config.command_timeout)


__all__ = ["ServiceWorker", "WorkerConfig"]
