"""Graceful shutdown shared by every long-running CLI surface.

``repro serve`` and ``repro worker`` want the same thing: block until
SIGINT/SIGTERM (or an explicit programmatic request), then tear the
server down cleanly instead of dying with the process.  This module is
that one path.
"""

from __future__ import annotations

import signal
import threading
from typing import Optional


class GracefulShutdown:
    """Context manager translating SIGINT/SIGTERM into an event.

    The first signal requests a graceful stop; a second SIGINT raises
    ``KeyboardInterrupt`` so a wedged drain can still be escaped.
    Installs handlers only on the main thread (signal module rules);
    elsewhere it degrades to a plain waitable event, which is what the
    in-process tests use.
    """

    def __init__(self):
        self._event = threading.Event()
        self._previous = {}

    def __enter__(self) -> "GracefulShutdown":
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc) -> None:
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self._previous.clear()

    def _handle(self, signum, frame) -> None:
        if self._event.is_set() and signum == signal.SIGINT:
            raise KeyboardInterrupt
        self._event.set()

    # ------------------------------------------------------------------

    def request(self) -> None:
        """Programmatic shutdown (tests, drain endpoints)."""
        self._event.set()

    @property
    def requested(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until shutdown is requested; True if it was."""
        return self._event.wait(timeout)


__all__ = ["GracefulShutdown"]
