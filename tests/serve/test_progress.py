"""Incremental progress: ``?since=`` long-poll and ``?stream=1``.

The completion event log is append-only and completion-ordered: a
client that remembers the ``next`` counter sees every point exactly
once, in the order they finished, across any number of polls.  The
thread executor keeps these deterministic and fast; SLOW-hash fault
injection (process executor) gives the long-poll something to
actually wait on.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.serve import pool
from repro.serve.scenarios import ScenarioSpec
from repro.testing.faults import SLOW_ENV, faulty_worker_main

from .conftest import (boot_server, call, kernel_scenario, stop_server,
                       submit_run, wait_run)


@pytest.fixture
def server():
    srv, thread = boot_server(workers=2)
    yield srv
    stop_server(srv, thread)


class TestSincePolling:
    def test_events_cover_every_point_exactly_once(self, server):
        h = kernel_scenario(server)
        rid = submit_run(server, h, [{}, {"scale": 2}, {"scale": 4}])
        wait_run(server, rid)
        status, doc = call(server, "GET", f"/v1/runs/{rid}?since=0")
        assert status == 200
        assert doc["run"] == rid
        assert doc["since"] == 0
        assert doc["next"] == 3
        assert [e["seq"] for e in doc["events"]] == [0, 1, 2]
        assert sorted(e["name"] for e in doc["events"]) == \
            sorted(doc["points"] and
                   [f"{i:03d}_mvt_n48_t16.json" for i in range(3)])
        for event in doc["events"]:
            assert event["state"] == "done"
            assert event["document"]["manifest"]["kind"] == "servepoint"
            assert event["wall_s"] >= 0

    def test_incremental_polls_return_only_new_events(self, server):
        h = kernel_scenario(server)
        rid = submit_run(server, h, [{}, {"scale": 2}])
        wait_run(server, rid)
        _, first = call(server, "GET", f"/v1/runs/{rid}?since=0")
        _, rest = call(server, "GET",
                       f"/v1/runs/{rid}?since={first['next']}")
        assert rest["events"] == []
        assert rest["next"] == first["next"]
        assert rest["status"] == "done"
        _, tail = call(server, "GET", f"/v1/runs/{rid}?since=1")
        assert [e["seq"] for e in tail["events"]] == [1]

    def test_deduped_and_failed_points_are_events_too(self, server):
        h = kernel_scenario(server)
        wait_run(server, submit_run(server, h))
        # Entire run deduped onto a done entry: its event is visible
        # immediately, before any worker touches it.
        rid = submit_run(server, h)
        _, doc = call(server, "GET", f"/v1/runs/{rid}?since=0&wait=0")
        assert doc["next"] == 1
        assert doc["events"][0]["state"] == "done"

    def test_terminal_run_returns_immediately_not_after_wait(
            self, server):
        h = kernel_scenario(server)
        rid = submit_run(server, h)
        wait_run(server, rid)
        t0 = time.monotonic()
        _, doc = call(server, "GET",
                      f"/v1/runs/{rid}?since=1&wait=30")
        assert time.monotonic() - t0 < 5
        assert doc["status"] == "done"

    def test_long_poll_blocks_until_completion(self, monkeypatch):
        slow = ScenarioSpec.from_request(
            {"kernel": "gemver", "n": 48, "tile": 16}).scenario_hash
        monkeypatch.setenv(SLOW_ENV, f"{slow}:1.5")
        monkeypatch.setattr(pool, "pool_worker_main", faulty_worker_main)
        srv, thread = boot_server(workers=1, executor="process")
        try:
            kernel_scenario(srv, "gemver")
            rid = submit_run(srv, slow)
            t0 = time.monotonic()
            _, doc = call(srv, "GET",
                          f"/v1/runs/{rid}?since=0&wait=45")
            elapsed = time.monotonic() - t0
            # The poll waited for the stalled point instead of
            # returning an empty set instantly.
            assert doc["next"] == 1
            assert doc["events"][0]["state"] == "done"
            assert elapsed >= 1.0
        finally:
            stop_server(srv, thread)

    def test_bad_since_and_wait_are_400(self, server):
        h = kernel_scenario(server)
        rid = submit_run(server, h)
        wait_run(server, rid)
        for query in ("since=abc", "since=-1", "since=0&wait=soon"):
            status, doc = call(server, "GET",
                               f"/v1/runs/{rid}?{query}")
            assert status == 400, query
            assert "error" in doc


class TestStreaming:
    def _stream_lines(self, server, rid, since=0, timeout=120):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            conn.request("GET",
                         f"/v1/runs/{rid}?stream=1&since={since}")
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.getheader("Content-Type") == \
                "application/x-ndjson"
            lines = []
            while True:
                line = resp.readline()
                if not line:
                    break
                lines.append(json.loads(line))
            return lines
        finally:
            conn.close()

    def test_stream_yields_every_event_then_a_summary(self, server):
        h = kernel_scenario(server)
        rid = submit_run(server, h, [{}, {"scale": 2}])
        lines = self._stream_lines(server, rid)
        *events, summary = lines
        assert len(events) == 2
        assert {e["state"] for e in events} == {"done"}
        assert summary["run"] == rid
        assert summary["status"] == "done"
        assert summary["points"]["done"] == 2
        assert summary["next"] == 2

    def test_stream_observes_a_live_run(self, server):
        """Consume the stream while the run executes -- the stream
        ends on its own when the run reaches a terminal state."""
        h = kernel_scenario(server)
        rid = submit_run(server, h, [{}, {"scale": 2}, {"scale": 4}])
        collected = []
        worker = threading.Thread(
            target=lambda: collected.extend(
                self._stream_lines(server, rid)))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        assert collected[-1]["status"] == "done"
        assert len(collected) == 4  # 3 events + summary

    def test_stream_since_skips_consumed_events(self, server):
        h = kernel_scenario(server)
        rid = submit_run(server, h, [{}, {"scale": 2}])
        wait_run(server, rid)
        lines = self._stream_lines(server, rid, since=1)
        assert [l["seq"] for l in lines[:-1]] == [1]
        assert lines[-1]["status"] == "done"

    def test_terminal_status_waits_for_the_last_event(self, tmp_path,
                                                      monkeypatch):
        """A point turns terminal before its worker thread persists it
        and logs its event; the run must not report a terminal status
        in between, or the stream ends one event short."""
        from repro.serve.workspace import ArtifactWorkspace

        real = ArtifactWorkspace.save_point

        def slow_save_point(self, key, document):
            time.sleep(0.5)
            return real(self, key, document)

        monkeypatch.setattr(ArtifactWorkspace, "save_point",
                            slow_save_point)
        srv, thread = boot_server(workers=2, executor="thread",
                                  workspace=str(tmp_path))
        try:
            h = kernel_scenario(srv)
            rid = submit_run(srv, h, [{}, {"scale": 2}])
            *events, summary = self._stream_lines(srv, rid)
            assert summary["status"] == "done"
            assert sorted(e["seq"] for e in events) == [0, 1]
            _, doc = call(srv, "GET", f"/v1/runs/{rid}?since=0&wait=30")
            assert doc["status"] == "done" and doc["next"] == 2
        finally:
            stop_server(srv, thread)

    def test_archived_runs_do_not_long_poll(self, tmp_path):
        """A workspace-served run has no live event log: plain GET
        works, since/stream parameters are simply ignored."""
        srv, thread = boot_server(workspace=str(tmp_path))
        try:
            h = kernel_scenario(srv)
            rid = submit_run(srv, h)
            wait_run(srv, rid)
        finally:
            stop_server(srv, thread)
        srv, thread = boot_server(workspace=str(tmp_path))
        try:
            status, doc = call(srv, "GET",
                               f"/v1/runs/{rid}?since=0&wait=30")
            assert status == 200
            assert doc["archived"] is True
            assert doc["status"] == "done"
        finally:
            stop_server(srv, thread)
