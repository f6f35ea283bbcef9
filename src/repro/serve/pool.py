"""The serve data plane: one import-warm worker process per pool slot.

``repro serve`` keeps its HTTP surface on threads (cheap, IO-bound)
and pushes point execution onto real processes so CPU-bound
trace replays run truly in parallel instead of serializing
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

Tests inject faults by substituting the spawn target (see
:mod:`repro.testing.faults`); nothing here reads a test hook.
"""

from __future__ import annotations

import multiprocessing
import signal
from pathlib import Path
from typing import Optional, Tuple


def pool_worker_main(conn, cache_root: Optional[Path],
                     cache_disabled: bool) -> None:
    """Entry point of one worker child (spawn target).

    Protocol: the parent sends ``(key, point)`` jobs and the child
    replies ``("ok", document)`` or ``("error", message)``; a ``None``
    job asks the child to exit (recycling / shutdown).  One job is in
    flight at a time.
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
        _, point = job
        try:
            document = execute_point_job(
                point, cache_root=cache_root,
                cache_disabled=cache_disabled)
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
               unused: None = None) -> None:
        """Hand one job to the child (raises OSError if it is gone).

        ``unused`` keeps the call shape ``benchmarks/perf/spans.py``
        wraps; it is ignored.
        """
        self.conn.send((key, point))

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
