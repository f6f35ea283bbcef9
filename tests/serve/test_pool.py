"""The process-pool executor: parity, recycling, crash isolation,
in-flight cancel, and run configs that cannot name an engine.

Everything here boots ``executor="process"`` -- the pieces the thread
executor cannot do (true parallelism aside): a crashed worker failing
only its point and a cancelled in-flight point freeing its pool slot
immediately -- plus the document parity both executors must keep.

Fault injection substitutes :func:`repro.testing.faults.
faulty_worker_main` as the pool's spawn target and rides its two
``REPRO_SERVE_TEST_*`` environment variables; both are in place
*before* the server boots so the spawn children see them.
"""

from __future__ import annotations

import time

import pytest

from repro.serve import pool
from repro.serve.scenarios import ScenarioSpec
from repro.testing.faults import CRASH_ENV, SLOW_ENV, faulty_worker_main

from .conftest import (boot_server, call, kernel_scenario, stop_server,
                       submit_run, wait_run)


def _hash(kernel, n=48, tile=16):
    return ScenarioSpec.from_request(
        {"kernel": kernel, "n": n, "tile": tile}).scenario_hash


@pytest.fixture
def pool_server():
    """One-worker process-pool server (deterministic dispatch order)."""
    srv, thread = boot_server(workers=1, executor="process")
    yield srv
    stop_server(srv, thread)


class TestProcessExecution:
    """A process-pool run behaves exactly like a thread run."""

    def test_batch_completes_with_documents(self, pool_server):
        h = kernel_scenario(pool_server)
        rid = submit_run(pool_server, h, [{}, {"scale": 2}])
        doc = wait_run(pool_server, rid)
        assert doc["status"] == "done"
        assert doc["points"]["done"] == 2
        assert set(doc["documents"]) == set(doc["names"])
        for point_doc in doc["documents"].values():
            assert point_doc["manifest"]["kind"] == "servepoint"
            assert point_doc["manifest"]["serve"]["scenario"] == h

    def test_dedup_still_holds_under_the_pool(self, pool_server):
        h = kernel_scenario(pool_server)
        first = submit_run(pool_server, h)
        wait_run(pool_server, first)
        second = submit_run(pool_server, h)
        doc = wait_run(pool_server, second)
        assert doc["status"] == "done"
        _, state = call(pool_server, "GET", "/debug/state")
        assert state["serve"]["points_executed"] == 1
        assert state["serve"]["points_deduped"] == 1
        assert state["serve"]["points_dispatched"] == 1

    def test_pool_reported_in_health(self, pool_server):
        _, doc = call(pool_server, "GET", "/health")
        assert doc["pool"]["executor"] == "process"
        assert doc["pool"]["recycle_after"] == 32
        assert len(doc["pool"]["workers"]) == 1
        # Children spawn lazily: an idle slot has no pid yet and the
        # server is healthy regardless.
        assert doc["status"] == "ok"
        assert doc["workers"] == {"alive": 1, "configured": 1}


class TestRecycling:
    """A child retires after ``recycle_after`` jobs; no point is lost."""

    def test_pid_changes_after_recycle_and_no_point_lost(self):
        srv, thread = boot_server(workers=1, executor="process",
                                  recycle_after=2)
        try:
            h = kernel_scenario(srv)

            def pool_worker(predicate):
                # Recycle bookkeeping lands just after the point
                # completion that triggered it: poll briefly.
                deadline = time.monotonic() + 10
                while True:
                    _, doc = call(srv, "GET", "/health")
                    worker = doc["pool"]["workers"][0]
                    if predicate(worker) or time.monotonic() > deadline:
                        return worker

            # Job 1: the child spawns and stays warm (1 < recycle_after).
            wait_run(srv, submit_run(srv, h, [{}]))
            first = pool_worker(lambda w: w["jobs_since_recycle"] == 1)
            assert first["pid"] is not None
            assert first["jobs_since_recycle"] == 1

            # Job 2 hits the recycle threshold: the child retires.
            wait_run(srv, submit_run(srv, h, [{"scale": 2}]))
            retired = pool_worker(lambda w: w["recycles"] == 1)
            assert retired["pid"] is None
            assert retired["recycles"] == 1

            # Job 3 spawns a fresh child -- a different process.
            doc = wait_run(srv, submit_run(srv, h, [{"scale": 4}]))
            assert doc["status"] == "done"
            fresh = pool_worker(lambda w: w["pid"] is not None)
            assert fresh["pid"] is not None
            assert fresh["pid"] != first["pid"]

            _, state = call(srv, "GET", "/debug/state")
            assert state["serve"]["workers_recycled"] == 1
            assert state["serve"]["points_executed"] == 3
            assert state["serve"]["points_failed"] == 0
        finally:
            stop_server(srv, thread)


class TestCrashIsolation:
    """A dying worker fails its point -- never the server."""

    def test_crash_fails_one_point_not_the_run_sibling(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, _hash("jacobi2d"))
        monkeypatch.setattr(pool, "pool_worker_main", faulty_worker_main)
        srv, thread = boot_server(workers=1, executor="process")
        try:
            good = kernel_scenario(srv, "mvt")
            bad = kernel_scenario(srv, "jacobi2d")
            _, doc = call(srv, "POST", "/v1/runs", {
                "points": [{"scenario": bad, "config": {}},
                           {"scenario": good, "config": {}}]})
            rid = doc["run"]
            final = wait_run(srv, rid)
            assert final["status"] == "failed"
            assert final["points"]["failed"] == 1
            assert final["points"]["done"] == 1
            crashed_name = [n for n in final["names"]
                            if "jacobi2d" in n][0]
            assert "worker crashed (exit 23)" in \
                final["errors"][crashed_name]
            # The sibling executed and served a full document.
            good_name = [n for n in final["names"] if "mvt" in n][0]
            assert good_name in final["documents"]

            # The server is still healthy and still executes.
            status, health = call(srv, "GET", "/health")
            assert status == 200 and health["status"] == "ok"
            again = wait_run(srv, submit_run(srv, good, [{"scale": 2}]))
            assert again["status"] == "done"

            _, state = call(srv, "GET", "/debug/state")
            assert state["serve"]["workers_crashed"] == 1
            assert state["serve"]["internal_errors"] == 0
        finally:
            stop_server(srv, thread)


class TestInFlightCancel:
    """DELETE while a point executes terminates the child and frees
    the slot -- cancel is not wait-for-completion."""

    def test_cancel_kills_the_running_point(self, monkeypatch):
        monkeypatch.setenv(SLOW_ENV, f"{_hash('gemver')}:30")
        monkeypatch.setattr(pool, "pool_worker_main", faulty_worker_main)
        srv, thread = boot_server(workers=1, executor="process")
        try:
            slow = kernel_scenario(srv, "gemver")
            fast = kernel_scenario(srv, "mvt")
            rid = submit_run(srv, slow)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _, doc = call(srv, "GET", f"/v1/runs/{rid}")
                if doc["points"]["running"]:
                    break
                time.sleep(0.02)
            assert doc["points"]["running"] == 1

            t0 = time.monotonic()
            status, _ = call(srv, "DELETE", f"/v1/runs/{rid}")
            assert status == 200
            final = wait_run(srv, rid, timeout=15)
            assert final["status"] == "cancelled"
            assert final["points"]["cancelled"] == 1

            # The slot is free: a fresh point completes far inside the
            # 30 s the cancelled child would still be sleeping.
            after = wait_run(srv, submit_run(srv, fast), timeout=60)
            assert after["status"] == "done"
            assert time.monotonic() - t0 < 25

            _, state = call(srv, "GET", "/debug/state")
            assert state["serve"]["points_cancelled_running"] == 1
        finally:
            stop_server(srv, thread)


class TestPerRunEngine:
    """Runs have one engine: a run config cannot name one."""

    def test_served_documents_record_one_engine(self, pool_server):
        h = kernel_scenario(pool_server)
        doc = wait_run(pool_server, submit_run(pool_server, h, [{}]))
        assert doc["status"] == "done"
        for d in doc["documents"].values():
            assert d["manifest"]["trace"]["tier"] == "packed"
            assert "engine" not in d["manifest"]["serve"]

    def test_unknown_engine_is_a_400(self, pool_server):
        h = kernel_scenario(pool_server)
        for value in ("warp", "packed"):
            status, doc = call(pool_server, "POST", "/v1/runs",
                               {"scenario": h,
                                "configs": [{"engine": value}]})
            assert status == 400
            assert "unknown kernel-run config keys ['engine']" \
                in doc["error"]

    def test_documents_are_executor_independent(self):
        """The thread and process executors run a point through the
        same job function and write the same document."""
        documents = {}
        for executor in ("thread", "process"):
            srv, thread = boot_server(workers=1, executor=executor)
            try:
                h = kernel_scenario(srv)
                final = wait_run(srv, submit_run(srv, h, [{}]))
                assert final["status"] == "done"
                (doc,) = final["documents"].values()
            finally:
                stop_server(srv, thread)
            manifest = doc["manifest"]
            # Wall times, and whether the recording came from the
            # server's memo or the child's, are per-process facts.
            del manifest["phases"]
            for volatile in ("source", "cache_hits", "cache_misses"):
                del manifest["trace"][volatile]
            documents[executor] = doc
        assert documents["thread"] == documents["process"]
