"""Run phase of the serve split: bounded queue, dedup, worker pool.

A *run* schedules sweep points against built scenarios.  Each point is
``(scenario-hash, config-hash)``; identical points -- whether inside
one request or across concurrent requests -- share a single execution
through the point dedup table (the ``points_deduped`` counter in
``/debug/state``).  Points flow through one bounded FIFO queue into a
pool of workers, producing exactly the manifest+stats JSON document
``repro sweep --stats-json`` writes (re-tagged ``kind: servepoint``),
so served output is held to the CLI output by the ``repro diff`` gate.

Two executors:

* ``process`` (the default) -- each scheduler worker thread owns one
  import-warm :class:`~repro.serve.pool.WorkerProcess`; points execute
  truly in parallel (CPU-bound replays no longer serialize behind the
  GIL), a crashed worker fails only its point, cancel of an in-flight
  point terminates the child and frees the slot immediately, and
  children are recycled after ``recycle_after`` jobs to cap RSS.
* ``thread`` -- the in-process path, measured against the pool by
  ``benchmarks/test_serve_throughput.py`` and kept for environments
  where spawning processes is unwanted.  No in-flight cancel.

Both executors run a point through
:func:`repro.sim.runner.execute_point_job`, so they produce the same
documents.

Progress is observable incrementally: every run keeps an append-only
completion-ordered event list, long-polled via ``GET
/v1/runs/<id>?since=<counter>`` (:meth:`RunScheduler.wait_events`).

Bounded everywhere: the queue rejects submissions past
``queue_limit`` (HTTP 429), and completed runs/points are retired
oldest-first past the retention limits -- a long-lived server must not
grow RSS with its request history.  With a workspace attached
(``--workspace``), retirement is eviction from a cache: completed
point documents and run records persist to disk first, and
resubmitted points are served straight from the workspace
(``workspace_hits``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.core.errors import ConfigurationError
from repro.serve.pool import WorkerProcess
from repro.serve.scenarios import ScenarioEntry, ScenarioStore
from repro.serve.workspace import ArtifactWorkspace
from repro.sim.runner import execute_point_job
from repro.store import write_documents

#: Completed runs retained in memory for ``GET /v1/runs/<id>``
#: (oldest retired first; with a workspace attached they remain
#: servable from disk, otherwise their documents go with them unless
#: another live run shares the point).
RUN_RETENTION = 64


class QueueFullError(Exception):
    """The bounded work queue cannot take this submission (HTTP 429)."""


@dataclass
class ServeStats:
    """Server counters, exposed as the ``serve`` stat group.

    Follows the repo-wide StatGroup protocol
    (:func:`repro.core.stats.stat_values`), so the same object feeds
    ``/debug/state`` and any registry that wants to mount it.
    """

    requests: int = 0
    scenarios_built: int = 0
    scenarios_cached: int = 0
    scenarios_deduped: int = 0
    runs_submitted: int = 0
    runs_completed: int = 0
    runs_cancelled: int = 0
    points_submitted: int = 0
    points_deduped: int = 0
    points_dispatched: int = 0
    points_executed: int = 0
    points_failed: int = 0
    points_cancelled_running: int = 0
    workers_recycled: int = 0
    workers_crashed: int = 0
    workspace_hits: int = 0
    workspace_writes: int = 0
    workspace_evictions: int = 0
    queue_rejections: int = 0
    bad_requests: int = 0
    not_found: int = 0
    internal_errors: int = 0

    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def bump(self, name: str, by: int = 1) -> None:
        """Increment one counter (handler threads race; stay exact)."""
        with self._lock:
            setattr(self, name, getattr(self, name) + by)

    def stat_groups(self):
        """StatGroup protocol (registers as ``serve``)."""
        yield "serve", self


# ---------------------------------------------------------------------------
# Run configs -> points
# ---------------------------------------------------------------------------

def normalize_config(entry: ScenarioEntry, config: object
                     ) -> Dict[str, object]:
    """Check one run config against its scenario's point kind.

    The keys a config may hold are the kind's ``KNOBS``.  Returns the
    fully defaulted knob values as read back off the configured point
    (what gets hashed); raises :class:`ConfigurationError` -- HTTP 400
    -- on an unknown key or on any value the point refuses.
    """
    if config is None:
        config = {}
    if not isinstance(config, dict):
        raise ConfigurationError(
            f"run config must be a JSON object, "
            f"got {type(config).__name__}")
    knobs = entry.spec.point.KNOBS
    unknown = sorted(set(config) - set(knobs))
    if unknown:
        raise ConfigurationError(
            f"unknown {entry.spec.kind}-run config keys {unknown}; "
            f"allowed: {sorted(knobs)}")
    point = configured_point(entry, config)
    values = {knob: getattr(point, knob) for knob in knobs}
    return {knob: list(value) if isinstance(value, tuple) else value
            for knob, value in values.items()}


def configured_point(entry: ScenarioEntry, config: Dict[str, object]):
    """The scenario's identity point with the run knobs of ``config``
    applied (JSON lists become tuples); the point checks them."""
    return dataclasses.replace(entry.spec.point, **{
        knob: tuple(value) if isinstance(value, list) else value
        for knob, value in config.items()})


def config_hash(config: Dict[str, object]) -> str:
    """Content hash of one normalized run config (16 hex chars)."""
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Point and run records
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PointEntry:
    """One deduplicated unit of work: (scenario-hash, config-hash).

    Entries compare by identity (``eq=False``): the point table maps
    each key to its *latest* entry, but every run also keeps direct
    references to the entries it was submitted with.  A failed or
    cancelled entry is terminal forever -- a later submission of the
    same key builds a *fresh* entry rather than mutating this one, so
    completed runs never see their history rewritten by a retry.

    ``cancel_requested`` is the in-flight cancel signal: the worker
    thread executing this entry polls it and terminates its child
    worker, freeing the pool slot instead of finishing doomed work.
    """

    key: Tuple[str, str]
    point: object
    state: str = "pending"    # -> running -> done | failed | cancelled
    document: Optional[dict] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    cancel_requested: bool = False
    done: threading.Event = field(default_factory=threading.Event,
                                  repr=False)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled")


@dataclass
class RunHandle:
    """One submitted run: an ordered list of (possibly shared) points.

    ``entries`` pins the exact :class:`PointEntry` objects this run
    was submitted against; progress and documents are read from those,
    never from the point table, so retries of the same key by later
    runs cannot change this run's story.

    ``events`` is the append-only completion log behind
    ``?since=``/``?stream=1``: one entry per point index, in the order
    the points reached a terminal state (entries already terminal at
    submission -- dedup and workspace hits -- are logged immediately).
    """

    id: str
    point_keys: List[Tuple[str, str]]
    entries: List[PointEntry]
    names: List[str]
    out_dir: Optional[Path]
    created_at: float
    new: int = 0
    deduped: int = 0
    cancelled: bool = False
    written: Optional[int] = None
    events: List[Dict[str, object]] = field(default_factory=list,
                                            repr=False)
    evented: Set[int] = field(default_factory=set, repr=False)
    persisted: bool = False


class RunScheduler:
    """The bounded work queue and its worker pool.

    One instance per server.  ``submit`` deduplicates against the
    point table (and the workspace, when attached) and enqueues only
    new work; workers drain the queue FIFO.  ``workers=0`` is the
    inspection mode used by tests: points stay pending until a worker
    exists.
    """

    def __init__(self, store: ScenarioStore, stats: ServeStats,
                 workers: int = 2, queue_limit: int = 64,
                 executor: str = "process", recycle_after: int = 32,
                 workspace: Optional[ArtifactWorkspace] = None) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0: {workers}")
        if queue_limit <= 0:
            raise ConfigurationError(
                f"queue_limit must be > 0: {queue_limit}")
        if executor not in ("process", "thread"):
            raise ConfigurationError(
                f"executor must be 'process' or 'thread', "
                f"got {executor!r}")
        if recycle_after <= 0:
            raise ConfigurationError(
                f"recycle_after must be > 0: {recycle_after}")
        self.store = store
        self.stats = stats
        self.queue_limit = queue_limit
        self.executor = executor
        self.recycle_after = recycle_after
        self.workspace = workspace
        self._queue: "queue.Queue[Optional[PointEntry]]" = queue.Queue()
        self._lock = threading.Lock()
        self._persist_lock = threading.Lock()
        self._events_cond = threading.Condition(self._lock)
        self._points: Dict[Tuple[str, str], PointEntry] = {}
        self._runs: Dict[str, RunHandle] = {}
        self._run_order: List[str] = []
        self._next_run = 1
        if workspace is not None:
            # Resume the id sequence past everything persisted: a
            # restarted server must never reuse a served run id.
            self._next_run = workspace.max_run_number() + 1
        self._pending = 0
        self._stop = threading.Event()
        self._workers: List[threading.Thread] = []
        self._worker_info: List[Dict[str, object]] = []
        for i in range(workers):
            info: Dict[str, object] = {"name": f"worker-{i}",
                                       "executed": 0, "failed": 0,
                                       "current": None, "pid": None,
                                       "jobs_since_recycle": 0,
                                       "recycles": 0}
            thread = threading.Thread(target=self._worker_loop,
                                      args=(info,),
                                      name=f"repro-serve-{i}",
                                      daemon=True)
            self._worker_info.append(info)
            self._workers.append(thread)
            thread.start()

    # -- Submission -------------------------------------------------------

    def submit(self, points: List[Tuple[ScenarioEntry,
                                        Dict[str, object]]],
               out_dir: Optional[Path] = None) -> RunHandle:
        """Schedule one run over ``points``; returns its handle.

        ``points`` is an ordered list of (scenario entry, normalized
        config).  New (scenario, config) pairs enqueue; already known
        *live* pairs -- pending, running, or done -- are shared and
        counted as ``points_deduped``, and pairs whose final document
        is already in the workspace are served from disk without
        touching the queue (``workspace_hits``).  A key whose latest
        entry is terminal-unsuccessful (failed or cancelled) is
        rebuilt and re-enqueued: deduping onto a dead entry would park
        the new run in ``queued`` forever with nothing in the queue.
        Raises :class:`QueueFullError` when the new work would push
        the queue past its bound.
        """
        keys: List[Tuple[str, str]] = []
        names: List[str] = []
        entries: List[PointEntry] = []
        with self._lock:
            fresh: List[PointEntry] = []
            fresh_by_key: Dict[Tuple[str, str], PointEntry] = {}
            for index, (entry, config) in enumerate(points):
                key = (entry.hash, config_hash(config))
                point = configured_point(entry, config)
                keys.append(key)
                names.append(point.document_name(index))
                if key in fresh_by_key:
                    self.stats.bump("points_deduped")
                    entries.append(fresh_by_key[key])
                    continue
                known = self._points.get(key)
                if known is not None and known.state not in (
                        "failed", "cancelled"):
                    self.stats.bump("points_deduped")
                    entries.append(known)
                    continue
                restored = self._restore_from_workspace(key, point)
                if restored is not None:
                    entries.append(restored)
                    continue
                pe = PointEntry(key=key, point=point)
                fresh_by_key[key] = pe
                fresh.append(pe)
                entries.append(pe)
            if self._pending + len(fresh) > self.queue_limit:
                self.stats.bump("queue_rejections")
                raise QueueFullError(
                    f"queue full: {self._pending} pending + "
                    f"{len(fresh)} new > limit {self.queue_limit}")
            run = RunHandle(
                id=f"run-{self._next_run:06d}",
                point_keys=keys,
                entries=entries,
                names=names,
                out_dir=out_dir,
                created_at=time.time(),
                new=len(fresh),
                deduped=len(keys) - len(fresh),
            )
            self._next_run += 1
            self._runs[run.id] = run
            self._run_order.append(run.id)
            for pe in fresh:
                self._points[pe.key] = pe
                self._pending += 1
            self.stats.bump("runs_submitted")
            self.stats.bump("points_submitted", len(keys))
            # Entries already terminal at submission (dedup onto done,
            # workspace hits) appear in the event log right away.
            for index, pe in enumerate(run.entries):
                if pe.finished:
                    self._append_event_locked(run, index)
            if run.events:
                self._events_cond.notify_all()
            self._retire_locked()
        if self.workspace is not None:
            # The submit record precedes every point document.
            self._persist_run(run)
        for pe in fresh:
            self._queue.put(pe)
        # A run assembled entirely from finished entries completes at
        # submission -- there is no worker left to trigger it.
        self._maybe_complete_run(run)
        return run

    def _restore_from_workspace(self, key: Tuple[str, str],
                                point: object) -> Optional[PointEntry]:
        """An entry born ``done`` from a persisted document, or None.

        Called under the scheduler lock (lock order: scheduler before
        workspace, everywhere).
        """
        document = (self.workspace.load_point(key)
                    if self.workspace is not None else None)
        if document is None:
            return None
        pe = PointEntry(key=key, point=point, state="done",
                        document=document)
        pe.done.set()
        self._points[key] = pe
        self.stats.bump("workspace_hits")
        return pe

    def cancel(self, run_id: str) -> bool:
        """Mark a run cancelled.

        Pending points referenced only by cancelled runs are skipped
        by the workers; a *running* point (process executor only) gets
        its ``cancel_requested`` flag raised, and the worker thread
        terminates the child executing it -- the pool slot frees
        without finishing the doomed point.
        """
        touched: List[RunHandle] = []
        with self._lock:
            run = self._runs.get(run_id)
            if run is None:
                return False
            if run.cancelled:
                return True
            run.cancelled = True
            self.stats.bump("runs_cancelled")
            # A point survives iff some live run still wants this
            # exact entry (identity, not key: a later retry owns a
            # different entry).
            wanted = set()
            for other in self._runs.values():
                if not other.cancelled:
                    wanted.update(id(e) for e in other.entries)
            for pe in run.entries:
                if id(pe) in wanted:
                    continue
                if pe.state == "pending":
                    pe.state = "cancelled"
                    pe.error = f"cancelled by {run_id}"
                    pe.done.set()
                    self._pending -= 1
                    for other in self._runs.values():
                        if self._append_events_for_locked(other, pe):
                            if other not in touched:
                                touched.append(other)
                elif pe.state == "running" \
                        and self.executor == "process":
                    pe.cancel_requested = True
            if run not in touched:
                touched.append(run)
            self._events_cond.notify_all()
        for other in touched:
            self._maybe_complete_run(other)
        return True

    # -- Introspection ----------------------------------------------------

    def get_run(self, run_id: str) -> Optional[RunHandle]:
        with self._lock:
            return self._runs.get(run_id)

    def run_progress(self, run: RunHandle) -> Dict[str, object]:
        with self._lock:
            return self._progress_locked(run)

    def _progress_locked(self, run: RunHandle) -> Dict[str, object]:
        """Counts-by-state plus overall status for one run.

        A run reports a terminal status only once every point's
        completion event is in its log: a point turns terminal before
        its worker thread persists it and logs the event, and a stream
        or long-poll that ended on the terminal status in between would
        miss that last event.  A run with every point terminal is never
        ``queued`` -- there is nothing left in the queue that could
        advance it, so reporting ``queued`` would promise progress that
        cannot come.
        """
        counts = {"total": len(run.entries), "pending": 0,
                  "running": 0, "done": 0, "failed": 0, "cancelled": 0}
        for pe in run.entries:
            counts[pe.state] += 1
        terminal = (counts["done"] + counts["failed"]
                    + counts["cancelled"])
        logged = len(run.evented) == counts["total"]
        if run.cancelled:
            status = "cancelled"
        elif logged and counts["done"] == counts["total"]:
            status = "done"
        elif logged:
            status = "failed" if counts["failed"] else "cancelled"
        elif counts["running"] or terminal:
            status = "running"
        else:
            status = "queued"
        return {"status": status, "points": counts}

    def run_documents(self, run: RunHandle
                      ) -> Tuple[Dict[str, dict], Dict[str, str]]:
        """``(documents, errors)`` keyed by per-point document name."""
        docs: Dict[str, dict] = {}
        errors: Dict[str, str] = {}
        with self._lock:
            for name, pe in zip(run.names, run.entries):
                if pe.state == "done":
                    docs[name] = pe.document
                elif pe.state in ("failed", "cancelled"):
                    errors[name] = pe.error or pe.state
        return docs, errors

    # -- Progress events --------------------------------------------------

    def _append_event_locked(self, run: RunHandle, index: int) -> None:
        if index in run.evented:
            return
        run.evented.add(index)
        run.events.append({"seq": len(run.events), "index": index,
                           "name": run.names[index]})

    def _append_events_for_locked(self, run: RunHandle,
                                  pe: PointEntry) -> bool:
        """Log every index of ``run`` held by ``pe``; True if any."""
        touched = False
        for index, entry in enumerate(run.entries):
            if entry is pe and index not in run.evented:
                self._append_event_locked(run, index)
                touched = True
        return touched

    def _event_payload(self, run: RunHandle,
                       event: Dict[str, object]) -> Dict[str, object]:
        """The wire form of one event (terminal states are immutable,
        so reading the entry after the fact is race-free)."""
        pe = run.entries[event["index"]]
        payload: Dict[str, object] = {"seq": event["seq"],
                                      "name": event["name"],
                                      "state": pe.state}
        if pe.state == "done":
            payload["document"] = pe.document
            payload["wall_s"] = round(pe.wall_s, 6)
        elif pe.error:
            payload["error"] = pe.error
        return payload

    def wait_events(self, run: RunHandle, since: int, timeout: float
                    ) -> Tuple[List[Dict[str, object]], int,
                               Dict[str, object]]:
        """Long-poll: events past ``since`` (or terminal status).

        Returns ``(events, next_counter, progress)`` as soon as the
        run has events the caller has not seen, or immediately when
        the run is already terminal, else after ``timeout`` seconds.
        """
        if since < 0:
            raise ConfigurationError(f"since must be >= 0: {since}")
        deadline = time.monotonic() + max(0.0, timeout)
        with self._events_cond:
            while True:
                if len(run.events) > since:
                    break
                progress = self._progress_locked(run)
                if progress["status"] in ("done", "failed",
                                          "cancelled"):
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._events_cond.wait(remaining)
            events = [self._event_payload(run, ev)
                      for ev in run.events[since:]]
            return events, len(run.events), self._progress_locked(run)

    def queue_depth(self) -> int:
        with self._lock:
            return self._pending

    def worker_report(self) -> List[Dict[str, object]]:
        """Liveness and activity of every worker (``/debug/state``)."""
        report = []
        for thread, info in zip(self._workers, self._worker_info):
            with self._lock:
                snap = dict(info)
            snap["alive"] = thread.is_alive()
            report.append(snap)
        return report

    def workers_alive(self) -> int:
        return sum(1 for t in self._workers if t.is_alive())

    @property
    def configured_workers(self) -> int:
        return len(self._workers)

    def pool_report(self) -> Dict[str, object]:
        """The ``/health`` pool block: executor, recycling, children."""
        workers = []
        for thread, info in zip(self._workers, self._worker_info):
            with self._lock:
                workers.append({
                    "alive": thread.is_alive(),
                    "pid": info["pid"],
                    "jobs_since_recycle": info["jobs_since_recycle"],
                    "recycles": info["recycles"],
                })
        return {"executor": self.executor,
                "recycle_after": self.recycle_after,
                "workers": workers}

    def runs_summary(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            ids = list(self._run_order)
        out = {}
        for run_id in ids:
            run = self.get_run(run_id)
            if run is None:
                continue
            progress = self.run_progress(run)
            progress["created_at"] = run.created_at
            out[run_id] = progress
        return out

    def run_count(self) -> int:
        with self._lock:
            return len(self._runs)

    # -- Worker machinery -------------------------------------------------

    def _worker_loop(self, info: Dict[str, object]) -> None:
        worker: Optional[WorkerProcess] = None
        try:
            while not self._stop.is_set():
                try:
                    pe = self._queue.get(timeout=0.2)
                except queue.Empty:
                    continue
                if pe is None:
                    break
                with self._lock:
                    if pe.state != "pending":
                        continue
                    pe.state = "running"
                    self._pending -= 1
                    info["current"] = pe.key
                if self.executor == "process":
                    worker = self._execute_in_worker(pe, info, worker)
                else:
                    self._execute(pe, info)
                with self._lock:
                    info["current"] = None
        finally:
            if worker is not None:
                worker.kill()
                with self._lock:
                    info["pid"] = None

    # The in-process executor (the measured thread baseline).

    def _execute(self, pe: PointEntry, info: Dict[str, object]) -> None:
        t0 = time.perf_counter()
        try:
            doc = execute_point_job(
                pe.point, cache_root=self.store.cache_root,
                cache_disabled=self.store.cache_disabled)
            self._retag(doc, pe)
            self.stats.bump("points_executed")
            info["executed"] = int(info["executed"]) + 1
            self._finish(pe, t0, "done", document=doc)
        except Exception as exc:
            self.stats.bump("points_failed")
            info["failed"] = int(info["failed"]) + 1
            self._finish(pe, t0, "failed",
                         error=f"{type(exc).__name__}: {exc}")

    # The process-pool executor.

    def _execute_in_worker(self, pe: PointEntry,
                           info: Dict[str, object],
                           worker: Optional[WorkerProcess]
                           ) -> Optional[WorkerProcess]:
        """Run one entry in this thread's child; returns the child to
        keep for the next job (None forces a lazy respawn)."""
        t0 = time.perf_counter()
        try:
            worker = self._dispatch(pe, info, worker)
        except Exception as exc:
            if worker is not None:
                worker.kill()
                with self._lock:
                    info["pid"] = None
            self.stats.bump("points_failed")
            info["failed"] = int(info["failed"]) + 1
            self._finish(pe, t0, "failed",
                         error=f"worker dispatch failed: "
                               f"{type(exc).__name__}: {exc}")
            return None
        reply = None
        crashed = False
        while True:
            if self._stop.is_set():
                worker.kill()
                with self._lock:
                    info["pid"] = None
                self._finish(pe, t0, "cancelled",
                             error="server shutting down")
                return None
            if pe.cancel_requested:
                worker.kill()
                with self._lock:
                    info["pid"] = None
                self.stats.bump("points_cancelled_running")
                self._finish(pe, t0, "cancelled",
                             error="cancelled while running")
                return None
            try:
                if not worker.poll(0.05):
                    continue
                reply = worker.recv()
            except (EOFError, OSError):
                crashed = True
            break
        if crashed:
            # kill() joins, so the exit code is only readable after it.
            worker.kill()
            exitcode = worker.exitcode
            with self._lock:
                info["pid"] = None
            self.stats.bump("workers_crashed")
            self.stats.bump("points_failed")
            info["failed"] = int(info["failed"]) + 1
            self._finish(pe, t0, "failed",
                         error=f"worker crashed (exit {exitcode}) "
                               f"while executing this point")
            return None
        kind, payload = reply
        if kind == "ok":
            self._retag(payload, pe)
            self.stats.bump("points_executed")
            info["executed"] = int(info["executed"]) + 1
            self._finish(pe, t0, "done", document=payload)
        else:
            self.stats.bump("points_failed")
            info["failed"] = int(info["failed"]) + 1
            self._finish(pe, t0, "failed", error=str(payload))
        worker.jobs_done += 1
        with self._lock:
            info["jobs_since_recycle"] = worker.jobs_done
        if worker.jobs_done >= self.recycle_after:
            worker.stop()
            self.stats.bump("workers_recycled")
            with self._lock:
                info["pid"] = None
                info["jobs_since_recycle"] = 0
                info["recycles"] = int(info["recycles"]) + 1
            return None
        return worker

    def _dispatch(self, pe: PointEntry, info: Dict[str, object],
                  worker: Optional[WorkerProcess]) -> WorkerProcess:
        """Hand the job to a live child, spawning/respawning once."""
        for attempt in (0, 1):
            if worker is None or not worker.alive():
                if worker is not None:
                    worker.kill()
                worker = WorkerProcess(
                    name=f"repro-serve-pool-{info['name']}",
                    cache_root=self.store.cache_root,
                    cache_disabled=self.store.cache_disabled)
                with self._lock:
                    info["pid"] = worker.pid
                    info["jobs_since_recycle"] = 0
            try:
                # benchmarks/perf/spans.py wraps a three-argument submit.
                worker.submit(pe.key, pe.point, None)
                self.stats.bump("points_dispatched")
                return worker
            except (BrokenPipeError, OSError):
                worker.kill()
                worker = None
                if attempt:
                    raise
        raise OSError("unreachable")  # pragma: no cover

    # Shared completion plumbing.

    @staticmethod
    def _retag(doc: dict, pe: PointEntry) -> None:
        """Stamp the serve provenance block onto a finished document."""
        manifest = doc["manifest"]
        manifest["serve"] = {
            "scenario": pe.key[0],
            "config_hash": pe.key[1],
            "base_kind": manifest["kind"],
        }
        manifest["kind"] = "servepoint"

    def _finish(self, pe: PointEntry, t0: float, state: str,
                document: Optional[dict] = None,
                error: Optional[str] = None) -> None:
        with self._lock:
            pe.wall_s = time.perf_counter() - t0
            pe.state = state
            pe.document = document
            pe.error = error
        pe.done.set()
        self._after_point(pe)

    def _after_point(self, pe: PointEntry) -> None:
        """Workspace persistence + event log + run completion."""
        if self.workspace is not None and pe.state == "done":
            try:
                if self.workspace.save_point(pe.key, pe.document):
                    self.stats.bump("workspace_writes")
            except OSError:
                # The workspace is a cache; disk trouble must not fail
                # a point that already completed in memory.
                pass
        affected: List[RunHandle] = []
        with self._lock:
            for run in self._runs.values():
                if self._append_events_for_locked(run, pe):
                    affected.append(run)
            self._events_cond.notify_all()
        for run in affected:
            self._maybe_complete_run(run)

    def _maybe_complete_run(self, run: RunHandle) -> None:
        """Completion bookkeeping once every entry's event is logged."""
        write = persist = False
        with self._lock:
            if len(run.evented) < len(run.entries):
                return
            if not run.cancelled and run.written is None:
                self.stats.bump("runs_completed")
                run.written = -1   # claimed; actual count follows
                write = True
            if self.workspace is not None and not run.persisted:
                run.persisted = True
                persist = True
            self._events_cond.notify_all()
        if write:
            run.written = self._write_documents(run)
        if persist:
            self._persist_run(run)
            evicted = self.workspace.evict()
            if evicted:
                self.stats.bump("workspace_evictions", evicted)

    def _persist_run(self, run: RunHandle) -> None:
        """Write the run's workspace record (submit + terminal), in
        the order the states were read: a submit record never lands
        after the completion record of a run whose shared points
        finished meanwhile."""
        with self._persist_lock:
            with self._lock:
                progress = self._progress_locked(run)
                record = {
                    "run": run.id,
                    "status": progress["status"],
                    "points": progress["points"],
                    "names": list(run.names),
                    "point_keys": [list(k) for k in run.point_keys],
                    "states": [pe.state for pe in run.entries],
                    "errors": {name: pe.error
                               for name, pe in zip(run.names, run.entries)
                               if pe.error},
                    "created_at": run.created_at,
                    "updated_at": time.time(),
                }
            try:
                self.workspace.save_run(record)
            except OSError:
                pass

    def _write_documents(self, run: RunHandle) -> int:
        """Persist a completed run's documents to its ``out_dir``, in
        :func:`repro.store.dump_document` bytes like
        :func:`repro.sim.runner.write_point_documents`, so ``repro
        diff`` can gate a served directory against a CLI sweep."""
        if run.out_dir is None:
            return 0
        docs, _ = self.run_documents(run)
        return len(write_documents(run.out_dir, list(docs.items())))

    def _retire_locked(self) -> None:
        """Drop the oldest completed runs past the retention bound."""
        while len(self._run_order) > RUN_RETENTION:
            oldest = self._run_order[0]
            run = self._runs[oldest]
            unfinished = any(not e.finished for e in run.entries)
            if unfinished and not run.cancelled:
                break
            self._run_order.pop(0)
            del self._runs[oldest]
            wanted = set()
            for other in self._runs.values():
                wanted.update(other.point_keys)
            for key in run.point_keys:
                if key not in wanted and key in self._points:
                    pe = self._points[key]
                    if pe.finished:
                        del self._points[key]

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers (drain signal + join).

        Process-executor threads kill their in-flight child rather
        than waiting out the job; the entry is marked cancelled.
        """
        self._stop.set()
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join(timeout)
