"""Typed stdlib client for the live cluster service.

Everything the CLI, the workers, the load generator, and the tests say
to the arbiter goes through this one class, so the wire protocol has a
single chokepoint.  Errors surface as :class:`ServiceClientError` with
the HTTP status and the server's own message (the server names the
offender; the client just carries it).

Connections persist: a client owns a small pool of keep-alive sockets,
so a task costs a request on a warm connection, not a TCP handshake and
a new server thread.  ``close()`` (or ``with``) releases them.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from typing import BinaryIO, Dict, List, Optional, Tuple, Union
from urllib.parse import urlsplit

#: Bytes that would end the request line early (or smuggle a header); no header name holds one.
_UNSAFE_IN_PATH = re.compile(r"[^\x21-\x7e]")
#: The stdlib's bounds on one head line and on the lines of a header block.
MAX_LINE, MAX_HEADERS = 65536, 100


class HeadError(ValueError):
    """A message head the reader refuses, with the status that answers it."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def read_head(rfile: BinaryIO) -> Dict[str, str]:
    """The header block after a start line as ``{lower-cased name: value}``,
    each value as the stdlib's ``headers.get`` reads it (DESIGN.md "Service
    wire path" lists what is refused); both ends of the wire read with it."""
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeadError(f"header line over {MAX_LINE} bytes", 431)
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if not colon or not name or _UNSAFE_IN_PATH.search(name):
            raise HeadError(f"malformed header line {line[:80]!r}")
        name, value = name.lower(), value.lstrip(" \t").rstrip("\r\n")
        first = headers.setdefault(name, value)
        if first != value and name == "content-length":
            raise HeadError(f"conflicting Content-Length {first!r} and {value!r}")
    raise HeadError(f"more than {MAX_HEADERS} header lines", 431)


def read_reply_head(rfile: BinaryIO) -> Tuple[int, Optional[int], bool]:
    """``(status, body length or None: to EOF, will_close)`` of a reply, as
    ``HTTPResponse.begin`` reads the arbiter's (HTTP/1.0 ones never reused)."""
    line = rfile.readline(MAX_LINE + 1)
    words = line.split(None, 2)
    if len(words) < 2 or not (words[0].startswith(b"HTTP/1.") and words[1].isdigit()):
        raise HeadError(f"bad status line {line[:80]!r}")
    headers = read_head(rfile)
    length = headers.get("content-length", "").strip()
    length = int(length) if length.isdecimal() else None
    close = "close" in headers.get("connection", "").lower() or words[0] == b"HTTP/1.0"
    return int(words[1]), length, close or length is None


class ServiceClientError(RuntimeError):
    """A request the service rejected, or a transport failure."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """JSON-over-HTTP client bound to one arbiter URL.

    Safe to share between threads: each request checks a connection out
    of the pool (most recently used first, so surplus ones go idle and
    the server reaps them) and returns it when the reply is read.  The
    pool belongs to the client, not to a thread — a worker starts a new
    thread per task and a warm connection must outlive it.
    """

    def __init__(self, url: str, *, timeout: float = 30.0):
        if not url:
            raise ServiceClientError("client needs the arbiter url")
        self.url = url.rstrip("/")
        self.timeout = float(timeout)
        parts = urlsplit(self.url)
        try:
            port = parts.port or 80
        except ValueError:
            port = None
        if parts.scheme != "http" or not parts.hostname or port is None:
            raise ServiceClientError(
                f"arbiter url must look like http://host:port, got {url!r}"
            )
        self._address = (parts.hostname, port)
        self._host_header = parts.netloc
        self._prefix = parts.path
        self._idle: List[socket.socket] = []
        #: Each open socket's one buffered reader, made when it connects.
        self._readers: Dict[socket.socket, BinaryIO] = {}
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the pooled connections (a later call opens fresh ones)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            self._drop(sock)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self._address, timeout=self.timeout)
        # Requests are small and written whole; never wait to coalesce.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._readers[sock] = sock.makefile("rb")
        return sock

    def _drop(self, sock: socket.socket) -> None:
        self._readers.pop(sock).close()
        sock.close()

    def _send(self, sock: socket.socket, message: bytes) -> bool:
        """Write one request; False if the peer closed the connection
        without sending a byte of the reply."""
        try:
            sock.sendall(message)
            return bool(self._readers[sock].peek(1))
        except (BrokenPipeError, ConnectionResetError):
            return False

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        *,
        text: bool = False,
    ) -> Union[Dict, str]:
        """One exchange; the decoded JSON reply, or the body if ``text``."""
        if _UNSAFE_IN_PATH.search(path):
            raise ServiceClientError(f"{method}: unsafe request path {path!r}")
        head = (
            f"{method} {self._prefix}{path} HTTP/1.1\r\n"
            f"Host: {self._host_header}\r\n"
        )
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        # Request line, headers and body leave in one segment.
        message = (head + "\r\n").encode("ascii") + body

        with self._lock:
            sock = self._idle.pop() if self._idle else None
        try:
            if sock is not None and not self._send(sock, message):
                # Zero reply bytes on a reused connection: the server
                # closed it while it sat in the pool (idle reaper,
                # restart) and did not read this request, so it goes
                # out once more, on a fresh connection.  Any other
                # failure may have executed it and is not retried.
                self._drop(sock)
                sock = None
            if sock is None:
                sock = self._connect()
                if not self._send(sock, message):
                    raise ConnectionError("connection closed before reply")
            reply = self._readers[sock]
            status, length, close = read_reply_head(reply)
            data = reply.read(length)
            if length is not None and len(data) < length:
                raise ConnectionError(f"reply ended after {len(data)} of {length} bytes")
            raw = data.decode("utf-8", errors="replace")
        except (OSError, HeadError) as exc:
            if sock is not None:
                self._drop(sock)
            raise ServiceClientError(
                f"cannot reach service at {self.url}: {exc}"
            ) from exc
        if not close:
            with self._lock:
                self._idle.append(sock)
        else:
            self._drop(sock)

        if not 200 <= status < 300:
            detail = raw
            try:
                detail = json.loads(raw).get("error", raw)
            except (json.JSONDecodeError, AttributeError):
                pass
            raise ServiceClientError(
                f"{method} {path} -> {status}: {str(detail).strip()}",
                status=status,
            )
        if text:
            return raw
        try:
            return json.loads(raw) if raw.strip() else {}
        except json.JSONDecodeError as exc:
            raise ServiceClientError(
                f"{method} {path}: malformed reply: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Worker protocol
    # ------------------------------------------------------------------

    def register_worker(self, *, name: str, slots: int) -> Dict:
        return self._request(
            "POST", "/v1/workers/register", {"name": name, "slots": slots}
        )

    def heartbeat(self, worker_id: str) -> Dict:
        return self._request(
            "POST", "/v1/workers/heartbeat", {"worker_id": worker_id}
        )

    def lease(self, worker_id: str, *, max_tasks: int = 1) -> Dict:
        return self._request(
            "POST",
            "/v1/workers/lease",
            {"worker_id": worker_id, "max_tasks": max_tasks},
        )

    def complete_task(
        self,
        *,
        task_id: str,
        worker_id: str,
        outcome: str = "ok",
        lease_max: int = 0,
    ) -> Dict:
        """Report a finished attempt; with ``lease_max`` > 0 the reply may
        chain the worker's next task(s) without a separate poll."""
        return self._request(
            "POST",
            "/v1/tasks/complete",
            {
                "task_id": task_id,
                "worker_id": worker_id,
                "outcome": outcome,
                "lease_max": lease_max,
            },
        )

    # ------------------------------------------------------------------
    # Job protocol
    # ------------------------------------------------------------------

    def submit(
        self,
        *,
        deadline_minutes: float,
        template: Optional[str] = None,
        bundle: Optional[Dict] = None,
        command: Optional[Dict] = None,
        tenant: str = "default",
        policy: str = "jockey",
        name: Optional[str] = None,
    ) -> Dict:
        payload: Dict = {
            "deadline_minutes": deadline_minutes,
            "tenant": tenant,
            "policy": policy,
        }
        if template is not None:
            payload["template"] = template
        if bundle is not None:
            payload["bundle"] = bundle
        if command is not None:
            payload["command"] = command
        if name is not None:
            payload["name"] = name
        return self._request("POST", "/v1/jobs", payload)

    def job(self, job_id: str) -> Dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> Dict:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def deadline(self, job_id: str) -> Dict:
        return self._request("GET", f"/v1/jobs/{job_id}/deadline")

    def report(self, job_id: str, fmt: str = "text") -> str:
        return self._request(
            "GET", f"/v1/jobs/{job_id}/report?format={fmt}", text=True
        )

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 60.0,
        poll_seconds: float = 0.05,
    ) -> Dict:
        """Poll until the job reaches a terminal state (wall-clock bound)."""
        limit = time.monotonic() + timeout
        while True:
            info = self.job(job_id)
            if info.get("status") in ("completed", "failed", "rejected"):
                return info
            if time.monotonic() >= limit:
                raise ServiceClientError(
                    f"job {job_id!r} still {info.get('status')!r} after "
                    f"{timeout:.1f}s"
                )
            time.sleep(poll_seconds)

    def wait_all(
        self,
        job_ids: List[str],
        *,
        timeout: float = 120.0,
        poll_seconds: float = 0.1,
    ) -> Dict[str, Dict]:
        """Wait for many jobs under one shared wall-clock budget."""
        limit = time.monotonic() + timeout
        done: Dict[str, Dict] = {}
        pending = list(job_ids)
        while pending:
            still = []
            for job_id in pending:
                info = self.job(job_id)
                if info.get("status") in ("completed", "failed", "rejected"):
                    done[job_id] = info
                else:
                    still.append(job_id)
            pending = still
            if pending:
                if time.monotonic() >= limit:
                    raise ServiceClientError(
                        f"{len(pending)} jobs unfinished after {timeout:.1f}s "
                        f"(first: {pending[0]!r})"
                    )
                time.sleep(poll_seconds)
        return done

    # ------------------------------------------------------------------
    # Service-wide
    # ------------------------------------------------------------------

    def healthz(self) -> Dict:
        return self._request("GET", "/healthz")

    def state(self) -> Dict:
        return self._request("GET", "/v1/state")

    def templates(self) -> Dict:
        return self._request("GET", "/v1/templates")

    def template_info(self, name: str) -> Dict:
        return self._request("GET", f"/v1/templates/{name}")

    def metrics_text(self) -> str:
        return self._request("GET", "/metrics", text=True)

    def shutdown(self, *, drain: bool = True) -> Dict:
        return self._request("POST", "/v1/shutdown", {"drain": drain})


__all__ = ["HeadError", "ServiceClient", "ServiceClientError", "read_head", "read_reply_head"]
