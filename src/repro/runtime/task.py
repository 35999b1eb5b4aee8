"""Task-level state for the cluster runtime.

A task's lifecycle is pending (dependencies unmet) -> ready (queued for a
token) -> running -> done, with failed/evicted attempts looping back to
ready; the job manager tracks those phases implicitly through its ready
queue and running list, so the only explicit state here is the per-attempt
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.simkit.events import EventHandle

TaskId = Tuple[str, int]


@dataclass(eq=False, slots=True)
class RunningTask:
    """Bookkeeping for one in-flight attempt.

    Attempts compare by identity (``eq=False``): ``list.remove``, ``in`` and
    ``is`` must all mean *this* attempt, never another one whose fields
    happen to match.  Slotted: one is built per attempt, and it carries no
    ``__dict__``.
    """

    task_id: TaskId
    attempt: int
    ready_time: float
    start_time: float
    planned_end: float
    machine: int
    #: Current token class (updated as grants change); drives eviction order.
    used_spare_token: bool
    will_fail: bool
    #: Token class when the attempt started; what the trace records (the
    #: paper's 'fraction of vertices executed using spare capacity', §2.4).
    spare_at_start: bool = False
    #: True for speculative duplicate attempts (straggler mitigation).
    is_duplicate: bool = False
    finish_handle: Optional[EventHandle] = None


__all__ = ["RunningTask", "TaskId"]
