"""The ``repro serve`` HTTP surface and the long-lived-process sweep.

Covers the scenario/run split end to end -- concurrent identical
scenario POSTs share one trace build, runs produce the same stats
documents as direct :func:`~repro.sim.runner.run_point` calls, bad
configs are 400s, the queue bound is a 429 -- plus the regression
pins for the bug sweep that rode along: the ``_MEMO`` eviction bound,
``TraceCache.store`` tmp-file cleanup on every failure path, and
whitespace-tolerant ``REPRO_ENGINE`` parsing.
"""

import http.client
import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError
from repro.cpu.tiers import resolve_engine_tier
from repro.serve.app import ServerState, serve
from repro.serve.jobs import config_hash, normalize_config
from repro.serve.scenarios import ScenarioEntry, ScenarioSpec
from repro.sim import runner
from repro.sim.runner import SimPoint, TraceCache, point_document, run_point


def call(server, method, path, body=None, raw=None):
    """One request against an in-process server: ``(status, doc)``."""
    host, port = server.server_address[:2]
    payload = raw
    if payload is None and body is not None:
        payload = json.dumps(body).encode()
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        status = resp.status
    finally:
        conn.close()
    return status, json.loads(data)


def wait_run(server, run_id, timeout=60.0):
    """Poll one run to a terminal state; returns the final document.

    When the run has an ``out_dir``, also waits for the ``written``
    count (the server withholds it until the files are flushed).
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, doc = call(server, "GET", f"/v1/runs/{run_id}")
        assert status == 200
        if doc["status"] in ("done", "failed", "cancelled") and (
                "out_dir" not in doc or "written" in doc
                or doc["status"] != "done"):
            return doc
        time.sleep(0.02)
    raise AssertionError(f"{run_id} still {doc['status']!r} "
                         f"after {timeout}s")


def boot(**kwargs):
    """A serving server plus its serve_forever thread.

    Defaults to the thread executor: these tests exercise the HTTP
    surface and scheduler semantics, where in-process execution is
    fast and deterministic.  The process pool has its own suite
    (test_pool.py / test_workspace.py) booting with
    ``executor="process"``.
    """
    kwargs.setdefault("cache_dir", "off")
    kwargs.setdefault("executor", "thread")
    srv = serve(port=0, **kwargs)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


@pytest.fixture
def server():
    """A two-worker server with the disk trace cache off."""
    srv, thread = boot(workers=2)
    yield srv
    srv.shutdown()
    srv.close()
    thread.join(timeout=10)


@pytest.fixture
def idle_server():
    """Workers=0, queue_limit=1: points stay pending, bounds are tiny."""
    srv, thread = boot(workers=0, queue_limit=1)
    yield srv
    srv.shutdown()
    srv.close()
    thread.join(timeout=10)


SCENARIO = {"kernel": "mvt", "n": 8, "tile": 4}


class TestScenarioDedup:
    def test_concurrent_identical_posts_build_once(self, server,
                                                   monkeypatch):
        """Two racing identical POSTs generate the trace exactly once."""
        import repro.serve.scenarios as scenarios_mod

        real = scenarios_mod.fetch_recording
        started = threading.Event()
        release = threading.Event()
        calls = []

        def slow(*args, **kwargs):
            calls.append(args)
            started.set()
            assert release.wait(30)
            return real(*args, **kwargs)

        monkeypatch.setattr(scenarios_mod, "fetch_recording", slow)
        results = []

        def post():
            results.append(call(server, "POST", "/v1/scenarios",
                                SCENARIO))

        first = threading.Thread(target=post)
        first.start()
        assert started.wait(10)
        # The build is now parked inside the handler; the second
        # identical POST must dedup against it, not build again.
        second = threading.Thread(target=post)
        second.start()
        stats = server.state.stats
        deadline = time.monotonic() + 10
        while stats.scenarios_deduped == 0:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        release.set()
        first.join(timeout=30)
        second.join(timeout=30)
        assert len(calls) == 1
        assert {status for status, _ in results} <= {200, 201}
        hashes = {doc["scenario"] for _, doc in results}
        assert len(hashes) == 1
        assert sum(doc["created"] for _, doc in results) == 1
        assert stats.scenarios_built == 1
        _, state = call(server, "GET", "/debug/state")
        assert state["serve"]["scenarios_deduped"] == 1

    def test_repeat_post_hits_registry(self, server):
        status_a, doc_a = call(server, "POST", "/v1/scenarios", SCENARIO)
        status_b, doc_b = call(server, "POST", "/v1/scenarios", SCENARIO)
        assert (status_a, doc_a["created"]) == (201, True)
        assert (status_b, doc_b["created"]) == (200, False)
        assert doc_a["scenario"] == doc_b["scenario"]
        assert server.state.stats.scenarios_built == 1
        assert server.state.stats.scenarios_cached == 1

    def test_get_scenario_by_hash(self, server):
        _, doc = call(server, "POST", "/v1/scenarios", SCENARIO)
        status, got = call(server, "GET",
                           f"/v1/scenarios/{doc['scenario']}")
        assert status == 200
        assert got["spec"] == {"kind": "kernel", "kernel": "mvt",
                               "n": 8, "tile": 4}
        assert call(server, "GET", "/v1/scenarios/ffff")[0] == 404


class TestShapes:
    def test_health(self, server):
        status, doc = call(server, "GET", "/health")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["workers"] == {"alive": 2, "configured": 2}
        assert doc["queue_depth"] == 0
        assert doc["engine_tier"] in ("packed", "analytical")
        assert doc["uptime_s"] >= 0

    def test_debug_state(self, server):
        status, doc = call(server, "GET", "/debug/state")
        assert status == 200
        counters = doc["serve"]
        for name in ("requests", "scenarios_built", "scenarios_deduped",
                     "points_deduped", "queue_rejections",
                     "bad_requests", "internal_errors"):
            assert counters[name] >= 0
        assert doc["queue"] == {"depth": 0, "limit": 64}
        assert len(doc["workers"]) == 2
        assert all(w["alive"] for w in doc["workers"])
        assert doc["memo"]["entries"] <= doc["memo"]["limit"]
        assert doc["trace_cache"]["enabled"] == 0
        assert doc["scenarios"] == {}
        assert doc["runs"] == {}

    def test_serve_stats_is_a_stat_group(self):
        from repro.core.stats import stat_values
        from repro.serve.jobs import ServeStats

        stats = ServeStats()
        stats.bump("requests", 3)
        values = stat_values(stats)
        assert values["requests"] == 3
        assert "_lock" not in values
        assert dict(stats.stat_groups()) == {"serve": stats}


class TestValidation:
    @pytest.mark.parametrize("body", [
        {"kernel": "nope"},
        {"kernel": "mvt", "n": -3},
        {"kernel": "mvt", "n": True},
        {"kernel": "mvt", "bogus": 1},
        {"workload": "nope"},
        {"kind": "warp"},
        [1, 2],
    ])
    def test_bad_scenario_is_400(self, server, body):
        status, doc = call(server, "POST", "/v1/scenarios", body)
        assert status == 400
        assert "error" in doc

    def test_non_json_body_is_400(self, server):
        status, doc = call(server, "POST", "/v1/scenarios",
                           raw=b"not json")
        assert status == 400
        assert "error" in doc

    def test_unknown_scenario_run_is_404(self, server):
        status, doc = call(server, "POST", "/v1/runs",
                           {"scenario": "0" * 16, "configs": [{}]})
        assert status == 404
        assert "POST /v1/scenarios first" in doc["error"]

    @pytest.mark.parametrize("config", [
        {"scale": 0},
        {"scale": "big"},
        {"bogus": 1},
        {"systems": []},
        {"systems": ["warp"]},
        {"bandwidth": -1},
        {"llc_bytes": "lots"},
        "not a config",
    ])
    def test_bad_run_config_is_400(self, server, config):
        _, doc = call(server, "POST", "/v1/scenarios", SCENARIO)
        before = server.state.stats.bad_requests
        status, got = call(server, "POST", "/v1/runs",
                           {"scenario": doc["scenario"],
                            "configs": [config]})
        assert status == 400
        assert "error" in got
        assert server.state.stats.bad_requests == before + 1

    def test_unknown_route_is_404(self, server):
        assert call(server, "GET", "/v2/everything")[0] == 404
        assert call(server, "GET", "/v1/runs/run-999999")[0] == 404


class TestRunLifecycle:
    def test_run_matches_direct_run_point(self, server, tmp_path):
        _, sdoc = call(server, "POST", "/v1/scenarios", SCENARIO)
        out_dir = tmp_path / "served"
        status, rdoc = call(server, "POST", "/v1/runs",
                            {"scenario": sdoc["scenario"],
                             "configs": [{"scale": 16}],
                             "out_dir": str(out_dir)})
        assert status == 202
        assert (rdoc["points"], rdoc["new"], rdoc["deduped"]) == (1, 1, 0)
        final = wait_run(server, rdoc["run"])
        assert final["status"] == "done"
        name = "000_mvt_n8_t4.json"
        assert final["names"] == [name]
        got = final["documents"][name]
        assert got["manifest"]["kind"] == "servepoint"
        assert got["manifest"]["serve"]["scenario"] == sdoc["scenario"]

        want = point_document(run_point(
            SimPoint(kernel="mvt", n=8, tile=4, scale=16),
            cache=server.state.store.new_cache(), collect=True))
        assert got["stats"] == want["stats"]
        assert got["manifest"]["serve"]["base_kind"] == \
            want["manifest"]["kind"]

        # out_dir holds the exact write_point_documents byte format.
        assert final["written"] == 1
        on_disk = (out_dir / name).read_text()
        assert on_disk == json.dumps(got, sort_keys=True, indent=2) + "\n"

    def test_duplicate_run_shares_points(self, server):
        _, sdoc = call(server, "POST", "/v1/scenarios", SCENARIO)
        body = {"scenario": sdoc["scenario"], "configs": [{"scale": 16}]}
        _, first = call(server, "POST", "/v1/runs", body)
        _, second = call(server, "POST", "/v1/runs", body)
        assert (first["new"], first["deduped"]) == (1, 0)
        assert (second["new"], second["deduped"]) == (0, 1)
        assert second["run"] != first["run"]
        doc_a = wait_run(server, first["run"])
        doc_b = wait_run(server, second["run"])
        assert doc_a["documents"] == doc_b["documents"]
        assert server.state.stats.points_deduped == 1
        assert server.state.stats.points_executed == 1

    def test_points_form_addresses_multiple_scenarios(self, server):
        _, a = call(server, "POST", "/v1/scenarios", SCENARIO)
        _, b = call(server, "POST", "/v1/scenarios",
                    {"kernel": "mvt", "n": 8, "tile": 8})
        status, rdoc = call(server, "POST", "/v1/runs", {"points": [
            {"scenario": a["scenario"], "config": {"scale": 16}},
            {"scenario": b["scenario"], "config": {"scale": 16}},
        ]})
        assert status == 202
        final = wait_run(server, rdoc["run"])
        assert final["status"] == "done"
        assert final["names"] == ["000_mvt_n8_t4.json",
                                  "001_mvt_n8_t8.json"]
        assert len(final["documents"]) == 2

    def test_suite_scenario_runs_as_single_tenant_corun(self, server):
        _, sdoc = call(server, "POST", "/v1/scenarios",
                       {"workload": "mcf", "accesses": 400,
                        "footprint_div": 64})
        status, rdoc = call(server, "POST", "/v1/runs",
                            {"scenario": sdoc["scenario"],
                             "configs": [{"scale": 16}]})
        assert status == 202
        final = wait_run(server, rdoc["run"])
        assert final["status"] == "done"
        (doc,) = final["documents"].values()
        assert doc["manifest"]["serve"]["base_kind"] == "corunpoint"


class TestQueueAndCancel:
    def test_queue_bound_is_429(self, idle_server):
        _, sdoc = call(idle_server, "POST", "/v1/scenarios", SCENARIO)
        status, doc = call(idle_server, "POST", "/v1/runs",
                           {"scenario": sdoc["scenario"],
                            "configs": [{"scale": 16}, {"scale": 24}]})
        assert status == 429
        assert "queue full" in doc["error"]
        assert idle_server.state.stats.queue_rejections == 1
        # The rejected submission must not leak partial state.
        assert idle_server.state.scheduler.queue_depth() == 0
        assert call(idle_server, "GET", "/v1/runs")[1] == {"runs": {}}

    def test_cancel_pending_run(self, idle_server):
        _, sdoc = call(idle_server, "POST", "/v1/scenarios", SCENARIO)
        _, rdoc = call(idle_server, "POST", "/v1/runs",
                       {"scenario": sdoc["scenario"],
                        "configs": [{"scale": 16}]})
        assert rdoc["status"] == "queued"
        assert idle_server.state.scheduler.queue_depth() == 1
        status, doc = call(idle_server, "DELETE",
                           f"/v1/runs/{rdoc['run']}")
        assert (status, doc["status"]) == (200, "cancelled")
        final = call(idle_server, "GET", f"/v1/runs/{rdoc['run']}")[1]
        assert final["status"] == "cancelled"
        assert "cancelled" in str(final["errors"])
        assert idle_server.state.scheduler.queue_depth() == 0
        assert idle_server.state.stats.runs_cancelled == 1

    def test_health_degraded_without_workers(self, idle_server):
        status, doc = call(idle_server, "GET", "/health")
        assert status == 200      # zero configured == zero required
        assert doc["workers"] == {"alive": 0, "configured": 0}

    def test_resubmit_after_cancel_reenqueues(self, idle_server):
        """A cancelled point must not swallow later identical work.

        Pre-fix, the dedup table matched the dead cancelled entry:
        the second run reported new=0, nothing was queued, and its
        progress said 'queued' forever.
        """
        _, sdoc = call(idle_server, "POST", "/v1/scenarios", SCENARIO)
        body = {"scenario": sdoc["scenario"], "configs": [{"scale": 16}]}
        _, first = call(idle_server, "POST", "/v1/runs", body)
        call(idle_server, "DELETE", f"/v1/runs/{first['run']}")
        assert idle_server.state.scheduler.queue_depth() == 0
        status, second = call(idle_server, "POST", "/v1/runs", body)
        assert status == 202
        assert (second["new"], second["deduped"]) == (1, 0)
        assert second["status"] == "queued"
        assert idle_server.state.scheduler.queue_depth() == 1
        # The first run's story is unchanged by the retry.
        old = call(idle_server, "GET", f"/v1/runs/{first['run']}")[1]
        assert old["status"] == "cancelled"

    def test_failed_point_retry_does_not_rewrite_history(
            self, idle_server):
        """A retried point gets a fresh entry; the run that recorded
        the failure keeps reporting it (no retroactive 'queued')."""
        sched = idle_server.state.scheduler
        _, sdoc = call(idle_server, "POST", "/v1/scenarios", SCENARIO)
        body = {"scenario": sdoc["scenario"], "configs": [{"scale": 16}]}
        _, first = call(idle_server, "POST", "/v1/runs", body)
        run_a = sched.get_run(first["run"])
        with sched._lock:
            (pe,) = run_a.entries
            pe.state = "running"
            sched._pending -= 1
        # Fail it the way a worker thread does (state, then event log).
        sched._finish(pe, time.perf_counter(), "failed",
                      error="RuntimeError: injected")
        doc_a = call(idle_server, "GET", f"/v1/runs/{first['run']}")[1]
        assert doc_a["status"] == "failed"      # terminal, not 'queued'
        status, second = call(idle_server, "POST", "/v1/runs", body)
        assert status == 202
        assert (second["new"], second["deduped"]) == (1, 0)
        # The retry owns a different entry; run A still shows failed.
        run_b = sched.get_run(second["run"])
        assert run_b.entries[0] is not pe
        doc_a = call(idle_server, "GET", f"/v1/runs/{first['run']}")[1]
        assert doc_a["status"] == "failed"
        assert doc_a["points"]["failed"] == 1
        assert "injected" in str(doc_a["errors"])


class TestBodyPlumbing:
    """Hostile Content-Length values must not park handler threads."""

    def _request_without_body(self, server, content_length):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.putrequest("POST", "/v1/scenarios")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(content_length))
            conn.endheaders()
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            return resp.status, resp.getheader("Connection"), doc
        finally:
            conn.close()

    def test_negative_content_length_is_400(self, server):
        # Pre-fix: rfile.read(-5) reads until EOF, blocking the
        # keep-alive handler thread until the client gives up.
        status, connection, doc = self._request_without_body(server, -5)
        assert status == 400
        assert "Content-Length" in doc["error"]
        assert connection == "close"

    def test_oversize_body_closes_connection(self, server):
        from repro.serve.app import MAX_BODY_BYTES

        status, connection, doc = self._request_without_body(
            server, MAX_BODY_BYTES + 1)
        assert status == 413
        # The body was never read; a kept-alive connection would
        # desync on the next request, so the server must close it.
        assert connection == "close"


class TestOutDirPolicy:
    def test_dotdot_out_dir_is_400(self, idle_server, tmp_path):
        _, sdoc = call(idle_server, "POST", "/v1/scenarios", SCENARIO)
        status, doc = call(idle_server, "POST", "/v1/runs",
                           {"scenario": sdoc["scenario"],
                            "configs": [{"scale": 16}],
                            "out_dir": str(tmp_path / ".." / "escape")})
        assert status == 400
        assert ".." in doc["error"]

    def test_out_root_rejects_absolute_paths(self, tmp_path):
        srv, thread = boot(workers=0, out_root=str(tmp_path))
        try:
            _, sdoc = call(srv, "POST", "/v1/scenarios", SCENARIO)
            status, doc = call(srv, "POST", "/v1/runs",
                               {"scenario": sdoc["scenario"],
                                "configs": [{"scale": 16}],
                                "out_dir": "/tmp/anywhere"})
            assert status == 400
            assert "out-root" in doc["error"]
        finally:
            srv.shutdown()
            srv.close()
            thread.join(timeout=10)

    def test_out_root_confines_writes(self, tmp_path):
        srv, thread = boot(workers=2, out_root=str(tmp_path))
        try:
            _, sdoc = call(srv, "POST", "/v1/scenarios", SCENARIO)
            status, rdoc = call(srv, "POST", "/v1/runs",
                                {"scenario": sdoc["scenario"],
                                 "configs": [{"scale": 16}],
                                 "out_dir": "sub/run"})
            assert status == 202
            final = wait_run(srv, rdoc["run"])
            assert final["status"] == "done"
            assert final["written"] == 1
            name = final["names"][0]
            assert (tmp_path / "sub" / "run" / name).is_file()
        finally:
            srv.shutdown()
            srv.close()
            thread.join(timeout=10)

    def test_resolve_out_dir_unit(self, tmp_path):
        from repro.serve.app import resolve_out_dir

        assert resolve_out_dir("/tmp/x", None) == Path("/tmp/x")
        assert resolve_out_dir("sub", tmp_path) == tmp_path / "sub"
        with pytest.raises(ConfigurationError, match="\\.\\."):
            resolve_out_dir("a/../b", None)
        with pytest.raises(ConfigurationError, match="relative"):
            resolve_out_dir(str(tmp_path / "abs"), tmp_path)


class TestMemoBoundRegression:
    """The regen paths must respect the ``_MEMO`` size bound."""

    def test_memo_put_holds_bound(self):
        saved = dict(runner._MEMO)
        runner._MEMO.clear()
        try:
            for i in range(runner._MEMO_LIMIT + 3):
                runner._memo_put(f"k{i}", object())
                assert len(runner._MEMO) <= runner._MEMO_LIMIT
            # Oldest evicted first.
            assert set(runner._MEMO) == {
                f"k{i}" for i in range(3, runner._MEMO_LIMIT + 3)}
            # Replacing a resident key must not evict anything.
            runner._memo_put(f"k{runner._MEMO_LIMIT + 2}", object())
            assert len(runner._MEMO) == runner._MEMO_LIMIT
        finally:
            runner._MEMO.clear()
            runner._MEMO.update(saved)

    def test_memo_put_is_thread_safe(self):
        """Concurrent eviction at the bound must not KeyError.

        The serve worker pool and scenario-build handler threads hit
        the memo together; pre-lock, two threads racing the eviction
        loop could both pick the same victim and the loser's pop blew
        up as a failed point.
        """
        saved = dict(runner._MEMO)
        runner._MEMO.clear()
        errors = []

        def hammer(tid):
            try:
                for i in range(400):
                    runner._memo_put(f"t{tid}-{i % 7}", object())
            except Exception as exc:     # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert errors == []
            assert len(runner._MEMO) <= runner._MEMO_LIMIT
        finally:
            runner._MEMO.clear()
            runner._MEMO.update(saved)

    def test_no_direct_memo_insertions(self):
        """Every insertion goes through ``_memo_put`` -- a direct
        ``_MEMO[...] = ...`` (the regen-path bug) bypasses eviction."""
        import ast

        src = Path(runner.__file__).read_text(encoding="utf-8")
        stores = [
            node for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Subscript)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "_MEMO"
                    for t in node.targets)
        ]
        assert len(stores) == 1      # the one inside _memo_put itself


class TestTraceCacheTmpRegression:
    """``store`` must never strand ``.trace.tmp`` files."""

    def _recording(self):
        return runner.record_trace("mvt", 4, 4)

    def test_oserror_during_write_leaves_no_tmp(self, tmp_path,
                                                monkeypatch):
        cache = TraceCache(tmp_path)
        rec = self._recording()

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("repro.sim.runner.pickle.dump", boom)
        cache.store("k", rec)        # swallowed, like before
        assert list(tmp_path.glob("*.trace.tmp")) == []
        assert not (tmp_path / "k.trace").exists()

    def test_non_oserror_still_cleans_tmp(self, tmp_path, monkeypatch):
        cache = TraceCache(tmp_path)
        rec = self._recording()

        def boom(*args, **kwargs):
            raise RuntimeError("interrupted mid-pickle")

        monkeypatch.setattr("repro.sim.runner.pickle.dump", boom)
        with pytest.raises(RuntimeError):
            cache.store("k", rec)
        # Pre-fix only OSError cleaned up; this tmp file was stranded.
        assert list(tmp_path.glob("*.trace.tmp")) == []

    def test_successful_store_round_trips(self, tmp_path):
        cache = TraceCache(tmp_path)
        rec = self._recording()
        cache.store("k", rec)
        assert list(tmp_path.glob("*.trace.tmp")) == []
        assert cache.load("k") is not None

    def test_sweep_removes_only_stale_tmp(self, tmp_path):
        cache = TraceCache(tmp_path)
        stale = tmp_path / "dead.trace.tmp"
        fresh = tmp_path / "live.trace.tmp"
        stale.write_bytes(b"x")
        fresh.write_bytes(b"x")
        old = time.time() - 2 * TraceCache.STALE_TMP_S
        os.utime(stale, (old, old))
        assert cache.sweep_stale_tmp() == 1
        assert not stale.exists()
        assert fresh.exists()

    def test_store_sweeps_stale_tmp_once(self, tmp_path):
        stale = tmp_path / "dead.trace.tmp"
        stale.write_bytes(b"x")
        old = time.time() - 2 * TraceCache.STALE_TMP_S
        os.utime(stale, (old, old))
        cache = TraceCache(tmp_path)
        cache.store("k", self._recording())
        assert not stale.exists()
        assert cache.load("k") is not None


class TestEngineEnvRegression:
    """``REPRO_ENGINE`` must tolerate whitespace, like ``REPRO_JOBS``."""

    @pytest.mark.parametrize("value,want", [
        ("packed", "packed"),
        ("  packed\n", "packed"),
        (" analytical ", "analytical"),
        ("   ", "packed"),
        ("", "packed"),
    ])
    def test_resolve_strips(self, monkeypatch, value, want):
        monkeypatch.setenv("REPRO_ENGINE", value)
        assert resolve_engine_tier() == want

    def test_bad_tier_still_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp9")
        with pytest.raises(ConfigurationError):
            resolve_engine_tier()

    def test_server_refuses_to_boot_on_bad_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp9")
        with pytest.raises(ConfigurationError):
            ServerState(workers=0)


class TestSpecAndConfigUnits:
    def _entry(self, kind="kernel"):
        spec = (ScenarioSpec(kind="kernel", workload="mvt", n=8, tile=4)
                if kind == "kernel" else
                ScenarioSpec(kind="suite", workload="mcf", n=400,
                             tile=64))
        return ScenarioEntry(spec=spec, hash="h", trace_key="k",
                             source="generated", events=0, setup_calls=0,
                             build_wall_s=0.0, created_at=0.0,
                             cache_counters={})

    def test_hash_ignores_request_key_order(self):
        a = ScenarioSpec.from_request({"kernel": "mvt", "n": 8,
                                       "tile": 4})
        b = ScenarioSpec.from_request({"tile": 4, "n": 8,
                                       "kernel": "mvt"})
        assert a.scenario_hash == b.scenario_hash
        assert a.trace_cache_key == b.trace_cache_key

    def test_kind_inferred_from_workload_key(self):
        spec = ScenarioSpec.from_request({"workload": "mcf"})
        assert spec.kind == "suite"
        assert ScenarioSpec.from_request({"kernel": "mvt"}).kind == \
            "kernel"

    def test_config_defaults_are_canonical(self):
        entry = self._entry()
        assert normalize_config(entry, None) == \
            normalize_config(entry, {})
        full = normalize_config(entry, {"scale": 32, "llc_bytes": None,
                                        "bandwidth": 1.0,
                                        "systems": ["baseline", "xmem"]})
        assert config_hash(full) == config_hash(normalize_config(
            entry, {}))

    def test_suite_config_rejects_foreign_tenants(self):
        entry = self._entry("suite")
        with pytest.raises(ConfigurationError, match="1-tenant"):
            normalize_config(entry, {"xmem_tenants": [1]})
        assert normalize_config(entry, {"xmem_tenants": []}) \
            ["xmem_tenants"] == []

    def test_engine_is_a_per_point_config_knob(self):
        # A valid tier is accepted and becomes part of the point
        # identity: the same scenario under two engines is two points.
        plain = normalize_config(self._entry(), {})
        est = normalize_config(self._entry(), {"engine": "analytical"})
        assert plain["engine"] is None
        assert est["engine"] == "analytical"
        assert config_hash(plain) != config_hash(est)
        # Whitespace normalizes like the CLI/env spelling does.
        assert normalize_config(
            self._entry(), {"engine": " analytical "})["engine"] \
            == "analytical"

    def test_unknown_engine_tier_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            normalize_config(self._entry(), {"engine": "warp"})
        with pytest.raises(ConfigurationError, match="engine"):
            normalize_config(self._entry(), {"engine": 3})


SPEC_SCENARIO = {
    "kind": "workload", "name": "servespec", "seed": 5,
    "regions": [{"name": "r", "bytes": 8192}],
    "atoms": [{"name": "a", "region": "r", "reuse": 200}],
    "phases": [{"kind": "hot_set", "region": "r", "accesses": 300,
                "hot_lines": 4, "write_frac": 0.3}],
}

CSV_IMPORT = {
    "format": "csv", "name": "servecsv",
    "text": "0x1000,r,8\n0x1040,w\n0x1080,r,4,2\n",
}


class TestSpecScenarios:
    """Declarative workload specs through the HTTP surface (the
    ISSUE 9 serve regression: bodies that fit no known scenario form
    must be an explicit 400, and spec bodies reject unknown fields)."""

    @pytest.mark.parametrize("body", [
        {"bogus": 1},
        {},
        {"name": "x"},
    ])
    def test_uninferable_body_is_400(self, server, body):
        status, doc = call(server, "POST", "/v1/scenarios", body)
        assert status == 400
        assert "cannot infer scenario kind" in doc["error"]

    @pytest.mark.parametrize("body,fragment", [
        # Inferred spec body with a stray top-level field.
        ({**SPEC_SCENARIO, "typo_field": 1}, "unknown keys"),
        # Wrapped form tolerates only {"kind", "spec"}.
        ({"kind": "spec", "spec": SPEC_SCENARIO, "extra": 1},
         "unknown spec-scenario keys"),
        # Nested junk inside a phase.
        ({**SPEC_SCENARIO,
          "phases": [{"kind": "hot_set", "region": "r",
                      "accesses": 10, "warp": 9}]}, "unknown keys"),
        # Import with a server-side path: never resolved by serve.
        ({**CSV_IMPORT, "path": "/etc/passwd"}, "unknown keys"),
    ])
    def test_unknown_spec_fields_are_400(self, server, body, fragment):
        status, doc = call(server, "POST", "/v1/scenarios", body)
        assert status == 400
        assert fragment in doc["error"]

    def test_hash_is_spec_content_hash(self, server):
        from repro.scenarios import canonicalize, spec_hash

        _, bare = call(server, "POST", "/v1/scenarios", SPEC_SCENARIO)
        _, wrapped = call(server, "POST", "/v1/scenarios",
                          {"kind": "spec", "spec": SPEC_SCENARIO})
        want = spec_hash(canonicalize(SPEC_SCENARIO))
        assert bare["scenario"] == want
        assert wrapped["scenario"] == want
        assert wrapped["created"] is False  # deduped onto the first

    def test_get_by_hash_shows_canonical_spec(self, server):
        _, doc = call(server, "POST", "/v1/scenarios", SPEC_SCENARIO)
        status, got = call(server, "GET",
                           f"/v1/scenarios/{doc['scenario']}")
        assert status == 200
        assert got["spec"]["kind"] == "workload"
        assert got["spec"]["name"] == "servespec"
        assert got["spec"]["version"] == 1

    def test_import_text_not_echoed_back(self, server):
        _, doc = call(server, "POST", "/v1/scenarios", CSV_IMPORT)
        _, got = call(server, "GET",
                      f"/v1/scenarios/{doc['scenario']}")
        n = len(CSV_IMPORT["text"])
        assert got["spec"]["text"] == f"<{n} chars inlined>"
        assert got["spec"]["format"] == "csv-v1"

    def test_spec_run_matches_direct_scenario_point(self, server):
        from repro.scenarios import canonical_json, canonicalize
        from repro.sim.runner import ScenarioPoint, run_point

        _, sdoc = call(server, "POST", "/v1/scenarios", SPEC_SCENARIO)
        status, rdoc = call(server, "POST", "/v1/runs",
                            {"scenario": sdoc["scenario"],
                             "configs": [{"scale": 16}]})
        assert status == 202
        final = wait_run(server, rdoc["run"])
        assert final["status"] == "done"
        name = f"000_scn_servespec_{sdoc['scenario'][:8]}.json"
        assert final["names"] == [name]
        got = final["documents"][name]
        assert got["manifest"]["kind"] == "servepoint"
        assert got["manifest"]["serve"]["base_kind"] == "scenariopoint"
        assert got["manifest"]["scenario"]["hash"] == sdoc["scenario"]

        want = point_document(run_point(
            ScenarioPoint(
                spec_json=canonical_json(canonicalize(SPEC_SCENARIO)),
                scale=16),
            cache=server.state.store.new_cache(), collect=True))
        assert got["stats"] == want["stats"]

    def test_spec_config_rejects_suite_knobs(self, server):
        _, sdoc = call(server, "POST", "/v1/scenarios", SPEC_SCENARIO)
        status, doc = call(server, "POST", "/v1/runs",
                           {"scenario": sdoc["scenario"],
                            "configs": [{"accesses": 100}]})
        assert status == 400
        assert "unknown" in doc["error"]
