"""The live service's wire path: persistent connections end to end.

One TCP connection per client (not per request), one send per message,
at most one retry and never a request executed twice, HTTP/1.1 framing
on every reply, and nothing left behind by ``stop()``.  Every wait here
is a bounded poll; nothing sleeps longer than a second.
"""

import http.client
import socket
import sys
import threading
import time

import pytest

from repro.service import (
    ClusterService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceWorker,
    WorkerConfig,
)
from repro.service import server as server_mod
from tests.test_service import tiny_store


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
