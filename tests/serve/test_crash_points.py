"""Crash consistency of a served run, one persistence step at a time.

A 3-point run on a ``--workspace`` server makes a fixed sequence of
store writes: three scenario records, the run record at submission,
three point documents and the completion record.  For every step, and
for both ways a writer can die there (before the write; after its
fsynced temp file, before the rename), a child server substituted with
:func:`repro.testing.faults.crashing_write` is killed at that step.  A
fresh server on the same workspace must then serve every run as either
complete and ``repro diff``-clean against a serial sweep, or
``failed`` with the resubmit hint -- and resubmitting must complete.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import cli, store
from repro.testing.faults import CRASH_EXIT, crashing_server_main

from .conftest import boot_server, call, stop_server, wait_run

KERNEL, N, TILES = "gemm", 16, (4, 8, 16)


def drive(server):
    """One client session: build the scenarios, submit the run, poll
    it to a terminal state; returns the run id (or None)."""
    points = []
    for tile in TILES:
        status, doc = call(server, "POST", "/v1/scenarios",
                           {"kind": "kernel", "kernel": KERNEL, "n": N,
                            "tile": tile})
        assert status in (200, 201), doc
        points.append({"scenario": doc["scenario"]})
    status, doc = call(server, "POST", "/v1/runs", {"points": points})
    assert status == 202, doc
    return wait_run(server, doc["run"])["run"]


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """The serial sweep the served documents must diff clean against."""
    out = tmp_path_factory.mktemp("sweep")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_TRACE_CACHE", "off")
    try:
        assert cli.main(["sweep", "--kernels", KERNEL, "--n", str(N),
                         "--tiles", ",".join(map(str, TILES)),
                         "--jobs", "1", "--stats-json", str(out)]) == 0
    finally:
        mp.undo()
    return out


@pytest.fixture(scope="module")
def steps(tmp_path_factory):
    """How many store writes the whole run makes, counted in-process."""
    calls = []
    real = store.write_atomic

    def counting(path, payload):
        calls.append(path)
        return real(path, payload)

    mp = pytest.MonkeyPatch()
    mp.setattr(store, "write_atomic", counting)
    srv, thread = boot_server(
        workspace=str(tmp_path_factory.mktemp("ws")), executor="thread",
        workers=1)
    try:
        drive(srv)
    finally:
        stop_server(srv, thread)
        mp.undo()
    assert len(calls) == 2 * len(TILES) + 2
    return len(calls)


def assert_complete_or_resubmittable(srv, run_id, sweep_dir, tmp_path):
    status, doc = call(srv, "GET", f"/v1/runs/{run_id}")
    assert status == 200, doc
    if doc["status"] == "failed":
        assert doc["errors"], doc
        for error in doc["errors"].values():
            assert "resubmit" in error, doc
        return
    assert doc["status"] == "done", doc
    assert len(doc["documents"]) == len(TILES)
    out = Path(tempfile.mkdtemp(prefix=f"fetched-{run_id}-", dir=tmp_path))
    for name, document in doc["documents"].items():
        (out / name).write_bytes(store.dump_document(document))
    assert cli.main(["diff", str(out), str(sweep_dir)]) == 0


@pytest.mark.parametrize("before_rename", [False, True],
                         ids=["before-write", "before-rename"])
def test_every_persistence_step(steps, sweep_dir, tmp_path,
                                before_rename):
    ctx = multiprocessing.get_context("spawn")
    for at in range(1, steps + 1):
        ws = tmp_path / f"ws-{at}"
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=crashing_server_main, args=(child, at, before_rename),
            kwargs={"workspace": str(ws), "cache_dir": "off",
                    "executor": "thread", "workers": 1},
            daemon=True)
        proc.start()
        try:
            assert parent.poll(60), "the child server never came up"
            port = parent.recv()
            doomed = SimpleNamespace(server_address=("127.0.0.1", port))
            try:
                drive(doomed)
            except (OSError, http.client.HTTPException, ValueError,
                    AssertionError):
                pass                 # the server died mid-session
            proc.join(60)
            assert proc.exitcode == CRASH_EXIT, (at, proc.exitcode)
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()

        srv, thread = boot_server(workspace=str(ws), executor="thread",
                                  workers=1)
        try:
            assert list(ws.rglob("*.tmp")) == [], "boot sweeps temp files"
            _, listing = call(srv, "GET", "/v1/runs")
            for run_id in listing["archived"]:
                assert_complete_or_resubmittable(srv, run_id, sweep_dir,
                                                 tmp_path)
            # Recovery: the same session on the restarted server.
            assert_complete_or_resubmittable(srv, drive(srv), sweep_dir,
                                             tmp_path)
        finally:
            stop_server(srv, thread)


def test_the_harness_kills_at_the_step(tmp_path):
    """``crashing_write`` passes earlier writes through and dies at its
    step, leaving the staged temp file when asked to."""
    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(target=_write_three, args=(str(tmp_path),))
    proc.start()
    proc.join(60)
    assert proc.exitcode == CRASH_EXIT
    assert sorted(p.name for p in tmp_path.iterdir()
                  if not p.name.endswith(".tmp")) == ["1.json"]
    (tmp,) = tmp_path.glob("2.json.*.tmp")
    assert json.loads(tmp.read_bytes()) == {"n": 2}


def _write_three(root):
    from repro.testing.faults import crashing_write

    store.write_atomic = crashing_write(store.write_atomic, 2, True)
    store.write_documents(root, [(f"{n}.json", {"n": n}) for n in (1, 2, 3)])
