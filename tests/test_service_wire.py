"""The live service's wire path: persistent connections end to end.

One TCP connection per client (not per request), one send per message,
at most one retry and never a request executed twice, HTTP/1.1 framing
on every reply, and nothing left behind by ``stop()``.  Every wait here
is a bounded poll; nothing sleeps longer than a second.

``tests/golden/wire_replies.json`` holds the arbiter's reply bytes for a
table of exchanges (``Date`` and the Python version masked), captured
while ``http.server`` still wrote every reply head.  Regenerate (only for
an intended change to what the arbiter writes) with::

    PYTHONPATH=src python tests/test_service_wire.py
"""

import http.client
import io
import json
import pathlib
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.clock import ManualClock
from repro.service import (
    ClusterService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceWorker,
    WorkerConfig,
)
from repro.service import server as server_mod
from repro.service.client import read_reply_head
from repro.telemetry import metrics as telemetry_metrics
from tests.test_service import tiny_store

GOLDEN = pathlib.Path(__file__).parent / "golden" / "wire_replies.json"


def accepted() -> float:
    return server_mod._CONNECTIONS.value


def routed(endpoint: str) -> float:
    return server_mod._REQUESTS.labels(endpoint=endpoint).value


def wait_until(predicate, seconds: float = 5.0) -> bool:
    limit = time.monotonic() + seconds
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def open_connections(svc: ClusterService) -> int:
    return len(svc._httpd._open)


def raw_connect(svc: ClusterService) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", svc.port), timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def raw_exchange(sock: socket.socket, request: bytes):
    """Send ``request`` verbatim; (status, headers, body) of the reply."""
    sock.sendall(request)
    with http.client.HTTPResponse(sock) as reply:
        reply.begin()
        return reply.status, reply.headers, reply.read().decode("utf-8")


def post(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


@pytest.fixture(scope="module")
def service():
    config = ServiceConfig(capacity_tokens=4, time_scale=0.002)
    with ClusterService(config, store=tiny_store()) as svc:
        yield svc


class TestConnectionReuse:
    def test_sequential_calls_share_one_connection(self, service):
        before = accepted()
        with ServiceClient(service.url) as client:
            for _ in range(200):
                assert client.healthz()["status"] == "ok"
            assert accepted() - before == 1
            assert len(client._idle) == 1

    def test_threads_share_a_bounded_pool(self, service):
        before, routed_before = accepted(), routed("/healthz")
        errors = []

        def hammer(client):
            try:
                for _ in range(50):
                    client.healthz()
            except Exception as exc:        # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceClient(service.url) as client:
                threads = [
                    threading.Thread(target=hammer, args=(client,))
                    for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(t.is_alive() for t in threads)
                pooled = len(client._idle)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        opened = accepted() - before
        # A connection is never shared by two requests at once and never
        # lost: what was opened is what came back to the pool.
        assert 1 <= opened <= 8
        assert pooled == opened
        assert routed("/healthz") - routed_before == 400

    def test_close_releases_the_pool_and_the_client_reopens(self, service):
        client = ServiceClient(service.url)
        client.healthz()
        assert wait_until(lambda: open_connections(service) == 1)
        client.close()
        assert client._idle == []
        assert wait_until(lambda: open_connections(service) == 0)
        assert client.healthz()["status"] == "ok"
        client.close()

    def test_worker_closes_the_client_it_created(self, service):
        worker = ServiceWorker(
            WorkerConfig(url=service.url, name="tidy", slots=2)
        ).start()
        assert wait_until(lambda: worker.worker_id is not None)
        worker.stop()
        assert worker.client._idle == []
        assert wait_until(lambda: open_connections(service) == 0)

    def test_reuse_ratio_is_on_metrics(self, service):
        with ServiceClient(service.url) as client:
            for _ in range(20):
                client.healthz()
            text = client.metrics_text()
        assert "repro_service_connections_total" in text
        assert 'repro_service_requests_total{endpoint="/healthz"}' in text

    def test_rejects_urls_it_cannot_dial(self):
        for url in ("127.0.0.1:8080", "https://127.0.0.1:1", "http://:80",
                    "http://host:port"):
            with pytest.raises(ServiceClientError) as err:
                ServiceClient(url)
            assert url in str(err.value)

    def test_rejects_a_path_that_would_split_the_request(self, service):
        before = accepted()
        with ServiceClient(service.url) as client:
            with pytest.raises(ServiceClientError):
                client.job("x HTTP/1.1\r\nHost: evil\r\n\r\n")
        assert accepted() == before


class TestStaleConnections:
    def test_server_closed_idle_connection_is_retried_once(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(server_mod._Handler, "timeout", 0.15)
        before = accepted()
        workers_before = len(service.state()["workers"])
        with ServiceClient(service.url) as client:
            client.healthz()
            assert wait_until(lambda: open_connections(service) == 0)
            # The pooled socket is dead; the caller must not notice, and
            # the arbiter must see exactly one registration.
            reply = client.register_worker(name="once", slots=1)
            assert reply["worker_id"]
        assert len(service.state()["workers"]) == workers_before + 1
        assert accepted() - before == 2

    def test_stopped_service_surfaces_as_client_error(self):
        config = ServiceConfig(capacity_tokens=4, time_scale=0.002)
        svc = ClusterService(config, store=tiny_store())
        svc.start()
        client = ServiceClient(svc.url, timeout=2.0)
        client.healthz()
        svc.stop(drain=False)
        with pytest.raises(ServiceClientError) as err:
            client.healthz()
        assert "cannot reach" in str(err.value)
        client.close()


OK_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"


class ScriptedServer:
    """Counts the requests it reads, over however many connections, and
    answers the n-th with ``replies[n]``: ``OK_REPLY`` keeps the
    connection open, any other bytes are sent and the connection closed,
    None leaves it open and silent."""

    def __init__(self, replies):
        self.replies = replies
        self.requests = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._conns = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        script = iter(self.replies)
        while not self._done.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                continue
            self._conns.append(conn)
            conn.settimeout(0.05)
            while not self._done.is_set():
                try:
                    data = conn.recv(65536)
                except socket.timeout:
                    continue
                if not data:
                    break
                assert data.endswith(b"\r\n\r\n")      # body-less GETs
                self.requests += 1
                reply = next(script)
                if reply is None:
                    break
                conn.sendall(reply)
                if reply != OK_REPLY:
                    conn.close()
                    break

    def close(self):
        self._done.set()
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive()
        self._listener.close()
        for conn in self._conns:
            conn.close()


class TestNeverExecutedTwice:
    """Only a reused connection that yielded zero reply bytes is retried;
    each script ends with a reply that a wrongful retry would succeed on."""

    def failing_call(self, replies, calls, timeout=2.0):
        server = ScriptedServer(replies + [OK_REPLY])
        client = ServiceClient(server.url, timeout=timeout)
        try:
            for _ in range(calls - 1):
                assert client.healthz() == {}
            with pytest.raises(ServiceClientError) as err:
                client.healthz()
            assert err.value.status is None
        finally:
            client.close()
            server.close()
        assert server.requests == calls

    def test_fresh_connection_closed_before_reply_is_not_retried(self):
        self.failing_call([b""], calls=1)

    def test_partial_reply_on_a_reused_connection_is_not_retried(self):
        partial = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"
        self.failing_call([OK_REPLY, partial], calls=2)

    def test_timeout_on_a_reused_connection_is_not_retried(self):
        self.failing_call([OK_REPLY, None], calls=2, timeout=0.2)

    def test_reused_connection_closed_before_reply_is_retried_once(self):
        server = ScriptedServer([OK_REPLY, b"", OK_REPLY, b"", b""])
        client = ServiceClient(server.url, timeout=2.0)
        try:
            assert client.healthz() == {}
            assert client.healthz() == {}       # closed, sent once more
            with pytest.raises(ServiceClientError):
                client.healthz()                # and only once more
        finally:
            client.close()
            server.close()
        assert server.requests == 5


class TestFraming:
    def test_socket_survives_404_409_and_bad_json(self, service):
        before = accepted()
        with ServiceClient(service.url) as client:
            job_id = client.submit(
                template="tiny", deadline_minutes=30.0,
                policy="jockey-no-sim",
            )["job_id"]           # no workers: it stays running
        after_submit = accepted()
        assert after_submit - before == 1
        with raw_connect(service) as sock:
            for request, expected in (
                (b"GET /v1/jobs/job-99999 HTTP/1.1\r\nHost: t\r\n\r\n", 404),
                (f"GET /v1/jobs/{job_id}/result HTTP/1.1\r\nHost: t\r\n\r\n"
                 .encode("ascii"), 409),
                (post("/v1/workers/heartbeat", b"{not json"), 400),
                (post("/v1/nowhere", b"{}"), 404),
            ):
                status, headers, body = raw_exchange(sock, request)
                assert status == expected
                assert int(headers["Content-Length"]) == len(body.encode())
                assert "error" in body
                status, _headers, body = raw_exchange(sock, HEALTHZ)
                assert status == 200 and '"status"' in body
        assert accepted() - after_submit == 1

    @pytest.mark.parametrize("declared", ["banana", "-5", "1e3", "+7"])
    def test_malformed_content_length_is_named_then_eof(
        self, service, declared
    ):
        request = (
            "POST /v1/workers/heartbeat HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {declared}\r\n\r\n"
        ).encode("ascii")
        with raw_connect(service) as sock:
            status, headers, body = raw_exchange(sock, request)
            assert status == 400
            assert repr(declared) in body
            assert headers["Connection"] == "close"
            assert sock.recv(1) == b""

    def test_body_that_stalls_is_dropped_not_answered(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(server_mod._Handler, "timeout", 0.15)
        with raw_connect(service) as sock:
            sock.sendall(
                b"POST /v1/workers/heartbeat HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 10\r\n\r\n{\"a"
            )
            assert sock.recv(1) == b""

    def test_http10_client_is_answered_and_closed(self, service):
        with raw_connect(service) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert b'"status": "ok"' in body


def workers(svc: ClusterService) -> int:
    return len(svc.state()["workers"])


def refused(svc: ClusterService, request: bytes):
    """Send ``request`` on a fresh connection; (status, error) of the
    refusal, which must be JSON, framed, immediate and the last reply."""
    with raw_connect(svc) as sock:
        sock.settimeout(2.0)
        started = time.monotonic()
        status, headers, body = raw_exchange(sock, request)
        assert time.monotonic() - started < 1.0
        assert headers["Content-Type"] == "application/json; charset=utf-8"
        assert int(headers["Content-Length"]) == len(body.encode())
        assert headers["Connection"] == "close"
        assert sock.recv(1) == b""
    return status, json.loads(body)["error"]


class TestRefusals:
    """What the arbiter will not read is refused at once, as JSON, on a
    connection it then closes, and nothing in it runs."""

    def test_two_content_lengths_are_named_and_nothing_runs(self, service):
        smuggled = post("/v1/workers/register", b'{"name": "smuggled"}')
        request = (
            "POST /v1/workers/heartbeat HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: 0\r\nContent-Length: {len(smuggled)}\r\n\r\n"
        ).encode("ascii") + smuggled
        before = workers(service)
        status, error = refused(service, request)
        assert status == 400
        assert "'0'" in error and f"'{len(smuggled)}'" in error
        assert workers(service) == before

    def test_repeated_equal_content_length_is_read(self, service):
        with raw_connect(service) as sock:
            status, _headers, body = raw_exchange(sock, (
                b"POST /v1/workers/register HTTP/1.1\r\nContent-Length: 2\r\n"
                b"content-length: 2\r\n\r\n{}"
            ))
        assert status == 200 and "worker_id" in body

    def test_transfer_encoding_is_refused_and_registers_nothing(self, service):
        body = b'{"name": "chunky", "slots": 1}'
        request = (
            b"POST /v1/workers/register HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + f"{len(body):x}\r\n".encode("ascii") + body + b"\r\n0\r\n\r\n"
        )
        before = workers(service)
        status, error = refused(service, request)
        assert status == 501 and "Transfer-Encoding" in error
        assert workers(service) == before

    @pytest.mark.parametrize("request_bytes, status, named", [
        (b"GET /healthz\r\n", 400, "HTTP/x.y"),
        (b"GET /healthz HTTP/x.1\r\n\r\n", 400, "'HTTP/x.1'"),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 505, "2.0"),
        (b"GET /a b HTTP/1.1\r\n\r\n", 400, "'GET /a b HTTP/1.1'"),
        (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414, "Too Long"),
        (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 65536 + b"\r\n\r\n",
         431, "65536 bytes"),
        (b"GET /healthz HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 100 + b"\r\n",
         431, "100 header lines"),
        (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400, "malformed header"),
        (b"PUT /healthz HTTP/1.1\r\n\r\n", 501, "'PUT'"),
    ], ids=["no-version", "bad-version", "http2", "four-words", "long-line",
            "long-header", "many-headers", "no-colon", "unknown-method"])
    def test_each_refusal_is_json_at_once(self, service, request_bytes,
                                          status, named):
        got, error = refused(service, request_bytes)
        assert got == status
        assert named in error

    def test_ninety_nine_headers_are_read(self, service):
        """The stdlib's bound counts the blank line: 99 headers are read."""
        with raw_connect(service) as sock:
            status, _headers, _body = raw_exchange(
                sock, b"GET /healthz HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 99 + b"\r\n"
            )
        assert status == 200

    def test_client_error_carries_the_refusal(self, service):
        with ServiceClient(service.url) as client:
            with pytest.raises(ServiceClientError) as err:
                client._request("PUT", "/healthz")
        assert err.value.status == 501
        assert str(err.value) == "PUT /healthz -> 501: Unsupported method ('PUT')"


class StdlibHandler(BaseHTTPRequestHandler):
    """The reference: ``http.server``'s own request parsing, as the arbiter
    ran it (HTTP/1.1, headers parsed as a MIME message)."""

    protocol_version = "HTTP/1.1"


class FakeSocket:
    """Just enough socket for ``http.client.HTTPResponse``."""

    def __init__(self, data: bytes):
        self.data = data

    def makefile(self, mode):
        return io.BytesIO(self.data)


def parsed_by(handler_class, head: bytes):
    """A handler of ``handler_class`` that parsed ``head`` (no socket)."""
    handler = handler_class.__new__(handler_class)
    handler.rfile = io.BytesIO(head)
    handler.wfile = io.BytesIO()
    handler.raw_requestline = handler.rfile.readline(65537)
    handler.ok = handler.parse_request()
    return handler


_BLANKS = st.sampled_from(["", " ", "  ", "\t", " \t "])
_VALUE = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=12)
#: Header values the arbiter reads, and values no rule reads.
_HEADER_VALUES = {
    "Connection": st.sampled_from(
        ["close", "Close", "keep-alive", "Keep-Alive", "KEEP-ALIVE", "upgrade",
         "close, upgrade", ""]),
    "Expect": st.sampled_from(["100-continue", "100-Continue", "200-ok"]),
    "Content-Length": st.integers(0, 10**6).map(str),
    "Keep-Alive": st.sampled_from(["timeout=5", ""]),
    "Host": _VALUE,
    "Content-Type": st.sampled_from(["application/json", "text/plain"]),
    "X-Request-Id": _VALUE,
    "Accept": _VALUE,
}


@st.composite
def header_lines(draw, names=tuple(_HEADER_VALUES)):
    """Well-formed header lines: names in any case, blanks around values,
    ``\\n`` or ``\\r\\n`` endings, any header repeated but a framing one."""
    lines, framing = [], False
    for name in draw(st.lists(st.sampled_from(names), max_size=8)):
        if name == "Content-Length":
            if framing:
                continue
            framing = True
        spelled = draw(st.sampled_from([name, name.lower(), name.upper(), name.swapcase()]))
        value = draw(_HEADER_VALUES[name])
        ending = draw(st.sampled_from(["\r\n", "\n"]))
        lines.append(f"{spelled}:{draw(_BLANKS)}{value}{draw(_BLANKS)}{ending}")
    return lines


class TestHeadReaderIsTheStdlibs:
    """The one head reader against what it replaced: ``http.server``'s
    ``parse_request`` over ``http.client.parse_headers`` on request heads,
    and ``HTTPResponse.begin`` on reply heads, on well-formed heads."""

    @given(
        method=st.sampled_from(["GET", "POST", "DELETE"]),
        path=st.from_regex(r"/{1,3}[a-z0-9/._?=&-]{0,12}", fullmatch=True),
        version=st.sampled_from(["HTTP/1.0", "HTTP/1.1"]),
        lines=header_lines(),
        terminator=st.sampled_from(["\r\n", "\n"]),
    )
    @example("GET", "/healthz", "HTTP/1.0", ["Connection: Keep-Alive\r\n"], "\r\n")
    @example("POST", "//x", "HTTP/1.1", ["connection:close\n", "Expect: 100-continue\n"], "\n")
    def test_request_heads_read_as_the_stdlib_read_them(
        self, method, path, version, lines, terminator
    ):
        head = (f"{method} {path} {version}\r\n" + "".join(lines) + terminator
                ).encode("ascii") + b"{body}"
        ours = parsed_by(server_mod._Handler, head)
        ref = parsed_by(StdlibHandler, head)
        assert ours.ok and ref.ok
        for attr in ("command", "path", "request_version", "close_connection"):
            assert getattr(ours, attr) == getattr(ref, attr), attr
        assert set(ours.headers) == {name.lower() for name in ref.headers}
        for name in ref.headers:
            assert ours.headers[name.lower()] == ref.headers.get(name), name
        # Both answered Expect alike and stopped at the body.
        assert ours.wfile.getvalue() == ref.wfile.getvalue()
        assert ours.rfile.read() == ref.rfile.read() == b"{body}"

    @given(
        status=st.sampled_from([200, 400, 404, 409, 431, 500, 501, 503, 505]),
        lines=header_lines(("Content-Length", "Connection", "Content-Type",
                            "Keep-Alive", "X-Request-Id")),
        terminator=st.sampled_from(["\r\n", "\n"]),
    )
    def test_reply_heads_read_as_http_client_read_them(self, status, lines, terminator):
        reason = http.HTTPStatus(status).phrase
        raw = (f"HTTP/1.1 {status} {reason}\r\n" + "".join(lines) + terminator
               ).encode("ascii") + b"{}"
        ref = http.client.HTTPResponse(FakeSocket(raw))
        ref.begin()
        got = read_reply_head(io.BytesIO(raw))
        assert got == (ref.status, ref.length, ref.will_close)

    def test_http10_replies_are_never_reused(self):
        raw = b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\n{}"
        assert read_reply_head(io.BytesIO(raw)) == (200, 2, True)


class TestStop:
    def test_stop_with_idle_client_connections_leaves_nothing(self):
        threads_before = threading.active_count()
        config = ServiceConfig(capacity_tokens=4, time_scale=0.002)
        svc = ClusterService(config, store=tiny_store())
        svc.start()
        clients = [ServiceClient(svc.url) for _ in range(5)]
        for client in clients:
            client.healthz()
        assert wait_until(lambda: open_connections(svc) == 5)
        httpd = svc._httpd
        started = time.monotonic()
        svc.stop(drain=False)
        assert time.monotonic() - started < 1.0
        # (<=: an earlier test's handler thread may still be winding down
        # when the count is first taken.)
        assert threading.active_count() <= threads_before
        assert httpd._open == {}
        for client in clients:
            # The server's end is gone: EOF, not a hang.
            assert client._idle[0].recv(1) == b""
            client.close()

    def test_killed_workers_connections_are_reaped_by_idle_timeout(
        self, monkeypatch
    ):
        monkeypatch.setattr(server_mod._Handler, "timeout", 0.2)
        config = ServiceConfig(
            capacity_tokens=4, time_scale=0.002, heartbeat_timeout=5.0
        )
        with ClusterService(config, store=tiny_store()) as svc:
            worker = ServiceWorker(
                WorkerConfig(url=svc.url, name="victim", slots=2)
            ).start()
            assert wait_until(lambda: svc.healthz()["workers"] == 1)
            worker.kill()
            assert wait_until(lambda: not worker.alive)
            # A crash sends no FIN: the worker's sockets are still open
            # on its side, and only the server's timeout frees them.
            assert worker.client._idle
            assert wait_until(lambda: open_connections(svc) == 0)
            worker.client.close()


def exchange_to_eof(port: int, request: bytes) -> bytes:
    """Send ``request`` and half-close: every byte the arbiter writes
    before it closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return data
            data += chunk


def capture_replies() -> dict:
    """Each exchange's reply on its own connection, on a service whose
    clock stands still and whose control loop never ticks."""
    config = ServiceConfig(capacity_tokens=4, tick_seconds=1e6,
                           time_scale=0.01)
    registry = telemetry_metrics.REGISTRY
    fresh = telemetry_metrics.MetricsRegistry()
    fresh.counter("repro_golden_total", "Pinned by the wire replies",
                  ("endpoint",)).labels(endpoint="/metrics").inc(3)
    version = server_mod._Handler.sys_version.encode("ascii")
    replies = {}
    with ClusterService(config, store=tiny_store()) as svc:
        svc.clock = ManualClock()

        def exchange(name, request):
            raw = exchange_to_eof(svc.port, request)
            raw = re.sub(rb"\r\nDate: [^\r]*\r\n", b"\r\nDate: <masked>\r\n",
                         raw).replace(version, b"Python/<masked>")
            replies[name] = raw.decode("utf-8")
            return raw.partition(b"\r\n\r\n")[2]

        exchange("200 healthz", HEALTHZ)
        exchange("200 templates, HTTP/1.0", b"GET /v1/templates HTTP/1.0\r\n\r\n")
        exchange("200 healthz, Connection: close",
                 b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        job = json.loads(exchange("200 submit", post("/v1/jobs", json.dumps({
            "template": "tiny", "deadline_minutes": 60.0,
            "policy": "jockey-no-sim"}).encode())))["job_id"]
        exchange("404 unknown job", b"GET /v1/jobs/job-99999 HTTP/1.1\r\n\r\n")
        exchange("404 unknown endpoint", post("/v1/nowhere", b"{}"))
        exchange("409 result while running",
                 f"GET /v1/jobs/{job}/result HTTP/1.1\r\n\r\n".encode())
        exchange("400 not JSON", post("/v1/workers/heartbeat", b"{not json"))
        exchange("400 bad Content-Length",
                 b"POST /v1/workers/lease HTTP/1.1\r\nContent-Length: x\r\n\r\n")
        worker = json.loads(exchange("200 register", post(
            "/v1/workers/register", b'{"name": "g", "slots": 8}')))["worker_id"]
        for _ in range(8):
            tasks = json.loads(exchange_to_eof(svc.port, post(
                "/v1/workers/lease",
                json.dumps({"worker_id": worker, "max_tasks": 8}).encode(),
            )).partition(b"\r\n\r\n")[2])["tasks"]
            svc.clock.advance(40.0)
            for task in tasks:
                exchange("200 complete, the job's last task", post("/v1/tasks/complete", json.dumps(
                    {"worker_id": worker, "task_id": task["task_id"]}
                ).encode()))
        exchange("200 text report",
                 f"GET /v1/jobs/{job}/report?format=text HTTP/1.1\r\n\r\n"
                 .encode())
        telemetry_metrics.REGISTRY = fresh
        try:
            exchange("200 /metrics", b"GET /metrics HTTP/1.1\r\n\r\n")
        finally:
            telemetry_metrics.REGISTRY = registry

        def broken():
            raise RuntimeError("boom")

        svc.templates = broken
        exchange("500 internal error", b"GET /v1/templates HTTP/1.1\r\n\r\n")
    return replies


class TestReplyBytes:
    def test_replies_are_the_pinned_bytes(self):
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))
        got = capture_replies()
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture_replies(), indent=2, sort_keys=True)
                      + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
