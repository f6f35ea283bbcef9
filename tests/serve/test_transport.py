"""The serve transport: keep-alive cost, stream framing, disconnects.

A keep-alive request must cost its work and nothing more: with Nagle
on and a reply written in two sends, TCP held each reply's second
send back until the client's delayed ACK, about 40 ms per request.
The stream tests pin the chunk framing on a connection that is reused
afterwards, and the disconnect tests pin that a client going away is
ignored silently: the server answers the next request and prints no
traceback.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time

import pytest

from .conftest import (boot_server, call, kernel_scenario, stop_server,
                       submit_run)

SCENARIO = {"kind": "kernel", "kernel": "mvt", "n": 16, "tile": 8}


@pytest.fixture
def server():
    srv, thread = boot_server(workers=1, executor="thread")
    yield srv
    stop_server(srv, thread)


@pytest.fixture
def idle_server():
    """No workers: submitted points stay pending until cancelled."""
    srv, thread = boot_server(workers=0, executor="thread")
    yield srv
    stop_server(srv, thread)


def _scenario(server):
    return kernel_scenario(server, SCENARIO["kernel"], SCENARIO["n"],
                           SCENARIO["tile"])


def _connection(server, timeout=30):
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=timeout)


def _request(conn, method, path, body=None):
    payload = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=payload,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def _raw_socket(server):
    return socket.create_connection(server.server_address[:2],
                                    timeout=30)


def _raw_exchange(server, line):
    """Send one raw request line; read until the server closes.

    Returns the status line (None when the reply has no head) and the
    body, which a head's ``Content-Length`` must match, and which is
    JSON like every serve reply.
    """
    sock = _raw_socket(server)
    try:
        sock.sendall(line + b"\r\n\r\n")
        reply = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            reply += data
    finally:
        sock.close()
    if not reply.startswith(b"HTTP/"):
        return None, reply
    head, _, body = reply.partition(b"\r\n\r\n")
    status, *fields = head.decode().split("\r\n")
    headers = dict(f.split(": ", 1) for f in fields)
    assert headers["Connection"] == "close"
    assert headers["Content-Type"] == "application/json"
    assert int(headers["Content-Length"]) == len(body)
    return status, body


def _reset(sock):
    """Close with an RST, as a client that crashed would."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()


def _handlers_finished(timeout=10.0):
    """Wait for every connection thread to end (and print its
    traceback, if it was going to)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any("process_request_thread" in t.name
                   for t in threading.enumerate()):
            return
        time.sleep(0.01)
    raise AssertionError("a connection thread is still running")


def _assert_still_serving(server, capfd):
    status, doc = call(server, "GET", "/health")
    assert status == 200, doc
    _handlers_finished()
    err = capfd.readouterr().err
    assert "Traceback" not in err, err


class TestKeepAlive:
    def test_twenty_requests_on_one_connection(self, server):
        _scenario(server)
        conn = _connection(server)
        try:
            t0 = time.perf_counter()
            for _ in range(10):
                assert _request(conn, "GET", "/health")[0] == 200
                status, doc = _request(conn, "POST", "/v1/scenarios",
                                       SCENARIO)
                assert status == 200 and not doc["created"], doc
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        # Each reply used to wait out the client's delayed ACK
        # (~40 ms, ~0.9 s in all); the work itself is well under 1 ms.
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.2f}s"


class TestStreamFraming:
    def test_headers_first_then_connection_reused(self, idle_server):
        rid = submit_run(idle_server, _scenario(idle_server))
        conn = _connection(idle_server, timeout=10)
        try:
            conn.request("GET", f"/v1/runs/{rid}?stream=1")
            # The run cannot progress without workers, so the status
            # line and headers arrive before any event exists.
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.getheader("Transfer-Encoding") == "chunked"
            assert call(idle_server, "DELETE", f"/v1/runs/{rid}")[0] == 200
            lines = [json.loads(line) for line in resp.read().splitlines()]
            *events, summary = lines
            assert [e["state"] for e in events] == ["cancelled"]
            assert summary["status"] == "cancelled"
            assert summary["next"] == 1
            # The terminal chunk ended the body exactly: the same
            # connection parses its next reply.
            status, doc = _request(conn, "GET", f"/v1/runs/{rid}")
            assert status == 200 and doc["status"] == "cancelled", doc
        finally:
            conn.close()


class TestClientDisconnect:
    def test_request_then_close_before_reply(self, idle_server, capfd):
        rid = submit_run(idle_server, _scenario(idle_server))
        sock = _raw_socket(idle_server)
        # The long poll replies after the client is gone, so the
        # reply's send fails.
        sock.sendall(f"GET /v1/runs/{rid}?since=0&wait=0.3 HTTP/1.1\r\n"
                     f"Host: t\r\n\r\n".encode())
        _reset(sock)
        _assert_still_serving(idle_server, capfd)

    def test_reset_mid_body_is_not_an_internal_error(self, server,
                                                      capfd):
        sock = _raw_socket(server)
        sock.sendall(b"POST /v1/scenarios HTTP/1.1\r\nHost: t\r\n"
                     b"Content-Length: 100\r\n\r\n{\"kind\"")
        time.sleep(0.2)
        _reset(sock)
        _assert_still_serving(server, capfd)
        assert server.state.stats.internal_errors == 0

    def test_stream_dropped_mid_run(self, idle_server, capfd):
        rid = submit_run(idle_server, _scenario(idle_server))
        conn = _connection(idle_server, timeout=10)
        conn.request("GET", f"/v1/runs/{rid}?stream=1")
        assert conn.getresponse().status == 200
        _reset(conn.sock)
        conn.close()
        # Cancelling wakes the stream, whose next chunk finds the
        # consumer gone.
        assert call(idle_server, "DELETE", f"/v1/runs/{rid}")[0] == 200
        _assert_still_serving(idle_server, capfd)

    @pytest.mark.parametrize("line", [b"NOT A REQUEST HTTP/1.1",
                                      b"GARBAGE"])
    def test_garbage_request_line_is_400_then_close(self, server, capfd,
                                                    line):
        status, body = _raw_exchange(server, line)
        if line.endswith(b"HTTP/1.1"):
            assert status.startswith("HTTP/1.1 400 ")
        else:
            # An HTTP/0.9-style line gets the body without a head.
            assert status is None
        assert "Bad request syntax" in json.loads(body)["error"]
        _assert_still_serving(server, capfd)

    def test_unsupported_method_is_501_then_close(self, server, capfd):
        status, body = _raw_exchange(server, b"PUT /v1/runs HTTP/1.1")
        assert status.startswith("HTTP/1.1 501 ")
        assert json.loads(body) == {
            "error": "Unsupported method ('PUT')"}
        _assert_still_serving(server, capfd)
