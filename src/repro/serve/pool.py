"""The serve data plane: one import-warm worker process per pool slot.

``repro serve`` keeps its HTTP surface on threads (cheap, IO-bound)
and pushes point execution onto real processes so CPU-bound
packed-tier replays run truly in parallel instead of serializing
behind the GIL.  Each scheduler worker thread owns at most one
:class:`WorkerProcess`; jobs travel over a ``multiprocessing`` pipe
one at a time, so a worker child is always either idle or executing
exactly one point.

Design points, all load-bearing:

* **spawn, not fork.**  The parent is a heavily multithreaded HTTP
  server; forking it would clone lock state mid-flight.  Spawned
  children import :mod:`repro` fresh, then stay warm for many jobs.
* **Crash isolation.**  A child that dies mid-job (segfault, OOM kill,
  ``os._exit``) surfaces as EOF on the pipe: the scheduler fails that
  one point and lazily respawns the worker.  The server never goes
  down with a point.
* **True cancel.**  Cancelling an in-flight point terminates the child
  outright -- the pool slot frees immediately instead of finishing
  doomed work.
* **Recycling.**  After ``recycle_after`` jobs a child is retired and
  replaced, capping RSS growth from allocator fragmentation and
  per-job caches in long-lived workers.

Fault injection for tests and the fuzz lane rides on two environment
variables (inherited by spawn children, so they are set before the
worker exists): ``REPRO_SERVE_TEST_CRASH=<scenario-hash>`` makes a
worker ``os._exit(23)`` when it picks up a job for that scenario, and
``REPRO_SERVE_TEST_SLOW=<scenario-hash>:<seconds>`` sleeps before
executing -- a deterministic window for cancel-while-running.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path
from typing import Optional, Tuple

#: Scenario hash a worker must crash on (test/fuzz fault injection).
CRASH_ENV = "REPRO_SERVE_TEST_CRASH"

#: ``<scenario-hash>:<seconds>`` a worker must stall on before running.
SLOW_ENV = "REPRO_SERVE_TEST_SLOW"

#: Exit code of an injected crash (distinguishes it from real faults).
CRASH_EXIT = 23


def _apply_test_hooks(scenario_hash: str) -> None:
    """Honor the fault-injection markers for one picked-up job."""
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


def pool_worker_main(conn, cache_root: Optional[Path],
                     cache_disabled: bool) -> None:
    """Entry point of one worker child (spawn target).

    Protocol: the parent sends ``(key, point, engine)`` jobs and the
    child replies ``("ok", document)`` or ``("error", message)``; a
    ``None`` job asks the child to exit (recycling / shutdown).  One
    job is in flight at a time, which is what makes the per-job
    ``REPRO_ENGINE`` override in
    :func:`repro.sim.runner.execute_point_job` safe.
    """
    try:
        # The parent handles interrupts; a Ctrl-C must not take the
        # children down before the scheduler can drain them.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    from repro.sim.runner import execute_point_job

    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break
        if job is None:
            break
        key, point, engine = job
        _apply_test_hooks(key[0])
        try:
            document = execute_point_job(
                point, cache_root=cache_root,
                cache_disabled=cache_disabled, engine=engine)
            reply = ("ok", document)
        except BaseException as exc:  # noqa: BLE001 - one bad point
            # must report, not kill the worker loop.
            reply = ("error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


class WorkerProcess:
    """One pool worker child plus the parent-side end of its pipe."""

    def __init__(self, name: str, cache_root: Optional[Path],
                 cache_disabled: bool) -> None:
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=pool_worker_main,
            args=(child_conn, cache_root, cache_disabled),
            name=name, daemon=True)
        self.process.start()
        child_conn.close()
        #: Jobs completed since this child was spawned (recycling).
        self.jobs_done = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode

    def alive(self) -> bool:
        return self.process.is_alive()

    def submit(self, key: Tuple[str, str], point: object,
               engine: Optional[str]) -> None:
        """Hand one job to the child (raises OSError if it is gone)."""
        self.conn.send((key, point, engine))

    def poll(self, timeout: float) -> bool:
        """True when a reply (or the child's EOF) is readable."""
        return self.conn.poll(timeout)

    def recv(self):
        """The child's reply (raises EOFError if it crashed)."""
        return self.conn.recv()

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful retirement: drain signal, then escalate."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck child
            self.process.terminate()
            self.process.join(timeout)
        self._close()

    def kill(self, timeout: float = 5.0) -> None:
        """Immediate termination (cancel, crash cleanup, shutdown)."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck child
            self.process.kill()
            self.process.join(timeout)
        self._close()

    def _close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
