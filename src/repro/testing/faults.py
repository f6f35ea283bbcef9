"""Fault injection for the serve worker pool and the artifact store
(tests and the fuzz lane).

:func:`faulty_worker_main` is a drop-in spawn target for
:func:`repro.serve.pool.pool_worker_main`.  Substitute it on the
``pool`` module before the server spawns its workers (the same pattern
the benchmark's traced worker uses)::

    monkeypatch.setattr(pool, "pool_worker_main", faulty_worker_main)

Two environment variables, inherited by the spawn children, pick the
jobs that misbehave: ``REPRO_SERVE_TEST_CRASH=<scenario-hash>`` makes
the worker ``os._exit(23)`` when it picks up a job for that scenario,
and ``REPRO_SERVE_TEST_SLOW=<scenario-hash>:<seconds>`` sleeps before
executing it -- a deterministic window for cancel-while-running.

:func:`crashing_server_main` is the crash-point harness: a spawn
target serving with :func:`crashing_write` substituted for the
store's one write path, so a test can kill a server at each
persistence step of a served run.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional

from repro import store

#: Scenario hash a worker must crash on.
CRASH_ENV = "REPRO_SERVE_TEST_CRASH"

#: ``<scenario-hash>:<seconds>`` a worker must stall on before running.
SLOW_ENV = "REPRO_SERVE_TEST_SLOW"

#: Exit code of an injected crash (distinguishes it from real faults).
CRASH_EXIT = 23


def apply_faults(scenario_hash: str) -> None:
    """Honor the fault markers for one picked-up job."""
    if os.environ.get(CRASH_ENV, "") == scenario_hash:
        os._exit(CRASH_EXIT)
    slow = os.environ.get(SLOW_ENV, "")
    if slow:
        target, _, seconds = slow.partition(":")
        if target == scenario_hash:
            try:
                time.sleep(float(seconds or "1"))
            except ValueError:
                pass


class _FaultyConnection:
    """A job pipe that applies the fault markers to every job it hands
    the stock worker loop (``job[0]`` is the ``(scenario, config)``
    key)."""

    def __init__(self, conn) -> None:
        self._conn = conn

    def recv(self):
        job = self._conn.recv()
        if job is not None:
            apply_faults(job[0][0])
        return job

    def __getattr__(self, name: str):
        return getattr(self._conn, name)


def faulty_worker_main(conn, cache_root: Optional[Path],
                       cache_disabled: bool) -> None:
    """Serve pool worker entry point with fault injection (spawn
    target): the stock worker loop over a fault-applying pipe."""
    from repro.serve import pool

    pool.pool_worker_main(_FaultyConnection(conn), cache_root,
                          cache_disabled)


def crashing_write(write, at: int, before_rename: bool):
    """Wrap :func:`repro.store.write_atomic`: its ``at``-th call exits
    the process (:data:`CRASH_EXIT`) at once, or -- ``before_rename``
    -- once the payload sits in its fsynced temp file."""
    calls = 0

    def crashing(path, payload):
        nonlocal calls
        calls += 1
        if calls == at:
            if before_rename:
                store.stage(Path(path), payload)
            os._exit(CRASH_EXIT)
        return write(path, payload)

    return crashing


def crashing_server_main(conn, at: int, before_rename: bool,
                         **serve_kwargs) -> None:
    """Spawn target: a server whose ``at``-th store write crashes it.
    Sends its bound port on ``conn``, then serves until the crash."""
    from repro.serve.app import serve

    store.write_atomic = crashing_write(store.write_atomic, at,
                                        before_rename)
    server = serve(port=0, **serve_kwargs)
    conn.send(server.server_address[1])
    server.serve_forever()
