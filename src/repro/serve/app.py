"""``repro serve``: the stdlib HTTP+JSON surface over scenarios/runs.

Endpoints (all bodies and responses are JSON):

* ``POST /v1/scenarios``      -- build (or reuse) a content-hashed
  scenario; concurrent identical requests share one build.
* ``GET  /v1/scenarios``      -- list built scenarios.
* ``GET  /v1/scenarios/<h>``  -- one scenario's summary.
* ``POST /v1/runs``           -- schedule sweep points against built
  scenarios (``{"scenario": h, "configs": [...]}`` or
  ``{"points": [{"scenario": h, "config": {...}}, ...]}``, plus an
  optional ``out_dir`` the server writes completed documents into).
* ``GET  /v1/runs``           -- list runs and their progress.
* ``GET  /v1/runs/<id>``      -- progress; completed runs include the
  per-point manifest+stats documents.  ``?since=<counter>`` long-polls
  and returns only the completion events past the counter (plus
  ``wait=<seconds>``, default 25, cap 60); ``?stream=1`` holds the
  connection open and chunks events as NDJSON until the run is
  terminal.  With ``--workspace``, runs retired from memory (or
  completed by a previous server process) are served from disk.
* ``DELETE /v1/runs/<id>``    -- cancel a run: still-pending points
  are skipped, and an in-flight point (process executor) has its
  worker terminated, freeing the pool slot.
* ``GET  /health``            -- liveness: queue depth, worker counts,
  pool state (executor, per-worker pid / jobs since last recycle).
* ``GET  /debug/state``       -- full introspection: serve counters,
  queue/worker/pool state, workspace usage, scenario and run tables,
  trace memo bounds, ``REPRO_*`` env.

Error mapping: malformed JSON and :class:`ConfigurationError` are 400
(a bad config must never surface as a 500), unknown
scenarios/runs/paths are 404, a full queue is 429, scenario build
failures are 500.  Every response body parses as JSON, including
errors -- the fuzz lane drives this surface with junk and concurrent
duplicates and asserts exactly that.

Built on ``http.server.ThreadingHTTPServer``: stdlib only, one thread
per connection for the control plane; the data plane is the process
pool in :mod:`repro.serve.jobs` / :mod:`repro.serve.pool`.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.stats import stat_values
from repro.serve.jobs import QueueFullError, RunScheduler, ServeStats
from repro.serve.scenarios import (
    ScenarioBuildError,
    ScenarioSpec,
    ScenarioStore,
    entry_from_record,
    scenario_record,
)
from repro.serve.workspace import ArtifactWorkspace
from repro.sim.stats import collect_repro_env

#: Request bodies past this size are rejected (413) before parsing.
MAX_BODY_BYTES = 4 << 20

#: Long-poll ``wait=`` default and ceiling, seconds.
LONGPOLL_DEFAULT_S = 25.0
LONGPOLL_MAX_S = 60.0

#: A ``?stream=1`` connection is closed after this long regardless.
STREAM_MAX_S = 600.0

#: A connection's write buffer: a reply up to this size is one send.
WRITE_BUFFER_BYTES = 64 << 10


def resolve_out_dir(raw: str, out_root: Optional[Path]) -> Path:
    """Validate a client-supplied ``out_dir`` against the server policy.

    The scheduler mkdirs and writes JSON documents under this path, so
    it is filesystem write access handed to the client.  ``..``
    components are always rejected.  With ``--out-root`` configured,
    ``out_dir`` must additionally be a relative path and is resolved
    inside that root; without it, the server trusts its clients with
    any writable path -- acceptable on the default loopback bind, and
    documented as such in docs/serve.md.
    """
    path = Path(raw).expanduser()
    if any(part == ".." for part in path.parts):
        raise ConfigurationError(
            f"out_dir must not contain '..' components: {raw!r}")
    if out_root is None:
        return path
    if path.is_absolute():
        raise ConfigurationError(
            f"out_dir must be relative to the server's --out-root, "
            f"got absolute path {raw!r}")
    return out_root / path


class ServeHTTPError(Exception):
    """An error with a definite HTTP status (maps straight to JSON)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServerState:
    """Everything one ``repro serve`` process owns."""

    def __init__(self, workers: int = 2, queue_limit: int = 64,
                 cache_dir: Optional[str] = None,
                 out_root: Optional[str] = None,
                 executor: str = "process",
                 recycle_after: int = 32,
                 workspace: Optional[str] = None,
                 workspace_ttl_s: float = 7 * 24 * 3600.0,
                 workspace_limit_bytes: int = 512 << 20,
                 verbose: bool = False) -> None:
        cache_root: Optional[Path] = None
        cache_disabled = False
        if cache_dir is not None:
            if cache_dir.strip().lower() in ("0", "off", "none", "false"):
                cache_disabled = True
            else:
                cache_root = Path(cache_dir).expanduser()
        self.stats = ServeStats()
        self.workspace: Optional[ArtifactWorkspace] = None
        if workspace is not None:
            self.workspace = ArtifactWorkspace(
                Path(workspace), ttl_s=workspace_ttl_s,
                limit_bytes=workspace_limit_bytes)
        self.store = ScenarioStore(
            cache_root=cache_root, cache_disabled=cache_disabled,
            on_built=(self._persist_scenario
                      if self.workspace is not None else None))
        if self.workspace is not None:
            # Scenarios built by a previous server process register at
            # boot, so clients can resubmit runs against their hashes
            # without rebuilding (traces regenerate lazily through the
            # normal cache layers if needed).
            for record in self.workspace.load_scenarios():
                entry = entry_from_record(record)
                if entry is not None:
                    self.store.rehydrate(entry)
        self.scheduler = RunScheduler(self.store, self.stats,
                                      workers=workers,
                                      queue_limit=queue_limit,
                                      executor=executor,
                                      recycle_after=recycle_after,
                                      workspace=self.workspace)
        self.out_root = (Path(out_root).expanduser()
                         if out_root is not None else None)
        self.verbose = verbose
        self.started_at = time.time()
        self._t0 = time.monotonic()

    def _persist_scenario(self, entry) -> None:
        self.workspace.save_scenario(scenario_record(entry))

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._t0

    def health(self) -> Tuple[int, Dict[str, object]]:
        """``GET /health``: 200 when every worker thread is alive.

        Pool children are reported, not gated on: they spawn lazily
        with the first job and are respawned after crash/recycle, so
        an idle or freshly recycled slot is healthy.
        """
        sched = self.scheduler
        alive = sched.workers_alive()
        configured = sched.configured_workers
        healthy = alive == configured
        doc = {
            "status": "ok" if healthy else "degraded",
            "uptime_s": round(self.uptime_s, 3),
            "queue_depth": sched.queue_depth(),
            "workers": {"alive": alive, "configured": configured},
            "pool": sched.pool_report(),
            "scenarios": len(self.store),
            "runs": sched.run_count(),
        }
        return (200 if healthy else 503), doc

    def debug_state(self) -> Dict[str, object]:
        """``GET /debug/state``: the full introspection document."""
        from repro.sim.runner import _MEMO, _MEMO_LIMIT

        sched = self.scheduler
        cache = self.store.new_cache()
        return {
            "serve": stat_values(self.stats),
            "uptime_s": round(self.uptime_s, 3),
            "env": collect_repro_env(),
            "queue": {"depth": sched.queue_depth(),
                      "limit": sched.queue_limit},
            "workers": sched.worker_report(),
            "pool": sched.pool_report(),
            "workspace": (self.workspace.usage()
                          if self.workspace is not None else None),
            "memo": {"entries": len(_MEMO), "limit": _MEMO_LIMIT},
            "trace_cache": {
                "dir": (str(cache.root) if cache.root is not None
                        else None),
                "enabled": cache.enabled,
            },
            "scenarios": self.store.summaries(),
            "runs": sched.runs_summary(),
        }

    def close(self) -> None:
        self.scheduler.shutdown()


# ---------------------------------------------------------------------------
# Request handling
# ---------------------------------------------------------------------------

def _query_int(query: Dict[str, str], name: str) -> Optional[int]:
    raw = query.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {raw!r}") from None


def _query_float(query: Dict[str, str], name: str,
                 default: float) -> float:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be a number, got {raw!r}") from None


def _chunk(doc: Dict[str, object]) -> bytes:
    """One NDJSON line framed as one HTTP/1.1 chunk."""
    data = (json.dumps(doc, sort_keys=True) + "\n").encode()
    return b"%x\r\n%s\r\n" % (len(data), data)


class ServeHandler(BaseHTTPRequestHandler):
    """Route table + JSON plumbing for one request.

    Transport: HTTP/1.1 keep-alive, so a connection serves request
    after request, and each one should cost its work and nothing
    more.  Two settings see to that.  ``disable_nagle_algorithm`` sets
    ``TCP_NODELAY``: with Nagle on, a reply written in two sends has
    its second one held back until the client's delayed ACK, about
    40 ms per request.  ``wbufsize`` buffers the writer, so a reply's
    status line, headers and body (error replies included) leave
    in one send when ``handle_one_request`` flushes.  A body past the
    buffer goes out right behind its headers.  ``?stream=1`` flushes
    its headers, then each chunk, as soon as they are written.  A
    client that goes away mid-request is not an error: :meth:`handle`
    and :meth:`finish` drop the connection without a traceback.
    """

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    wbufsize = WRITE_BUFFER_BYTES

    @property
    def state(self) -> ServerState:
        return self.server.state  # type: ignore[attr-defined]

    # -- stdlib hooks -----------------------------------------------------

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            # The client went away; a buffered reply surfaces that at
            # the flush in handle_one_request.  A resident server
            # shrugs, and this connection is done.
            pass

    def finish(self) -> None:
        try:
            super().finish()
        except ConnectionError:
            # Closing the writer retried the failed flush; the write
            # side is closed all the same.
            self.rfile.close()

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """The stdlib's error reply -- logged, ``Connection: close``, no
        body for HEAD or a 1xx/204/205/304 code, no head for an
        HTTP/0.9 line -- with ``{"error": message}`` for its HTML page,
        so the requests it rejects before routing (a malformed request
        line, an unsupported method) get JSON too."""
        if message is None:
            message = self.responses.get(code, ("???",))[0]
        self.log_error("code %d, message %s", code, message)
        self.send_response(code, message)
        self.send_header("Connection", "close")
        payload = b""
        if code >= 200 and code not in (204, 205, 304):
            payload = (json.dumps({"error": message}) + "\n").encode()
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload)

    def log_message(self, fmt: str, *args) -> None:
        if self.state.verbose:
            sys.stderr.write("serve: %s\n" % (fmt % args))

    def do_GET(self) -> None:          # noqa: N802 (stdlib casing)
        self._dispatch("GET")

    def do_POST(self) -> None:         # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:       # noqa: N802
        self._dispatch("DELETE")

    # -- dispatch ---------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        state = self.state
        state.stats.bump("requests")
        try:
            result = self._route(method)
            if result is None:
                # The handler streamed its own response.
                return
            status, doc = result
        except ConfigurationError as exc:
            state.stats.bump("bad_requests")
            status, doc = 400, {"error": str(exc)}
        except ServeHTTPError as exc:
            if exc.status == 404:
                state.stats.bump("not_found")
            elif exc.status == 400:
                state.stats.bump("bad_requests")
            status, doc = exc.status, {"error": str(exc)}
        except QueueFullError as exc:
            status, doc = 429, {"error": str(exc)}
        except ScenarioBuildError as exc:
            state.stats.bump("internal_errors")
            status, doc = 500, {"error": str(exc)}
        except ConnectionError:
            # The client went away mid-request: no reply, no 500.
            raise
        except Exception as exc:                 # noqa: BLE001
            state.stats.bump("internal_errors")
            status, doc = 500, {
                "error": f"{type(exc).__name__}: {exc}"}
        self._reply(status, doc)

    def _route(self, method: str
               ) -> Optional[Tuple[int, Dict[str, object]]]:
        path, _, raw_query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        query = {k: v[-1] for k, v in
                 urllib.parse.parse_qs(raw_query).items()}
        if method == "GET":
            if path == "/health":
                return self.state.health()
            if path == "/debug/state":
                return 200, self.state.debug_state()
            if path == "/v1/scenarios":
                return 200, {"scenarios": self.state.store.summaries()}
            if len(parts) == 3 and parts[:2] == ["v1", "scenarios"]:
                entry = self.state.store.get(parts[2])
                if entry is None:
                    raise ServeHTTPError(
                        404, f"unknown scenario {parts[2]!r}")
                return 200, entry.summary()
            if path == "/v1/runs":
                doc = {"runs": self.state.scheduler.runs_summary()}
                ws = self.state.workspace
                if ws is not None:
                    sched = self.state.scheduler
                    doc["archived"] = [
                        rid for rid in ws.run_ids()
                        if sched.get_run(rid) is None]
                return 200, doc
            if len(parts) == 3 and parts[:2] == ["v1", "runs"]:
                return self._get_run(parts[2], query)
        elif method == "POST":
            if path == "/v1/scenarios":
                return self._post_scenario()
            if path == "/v1/runs":
                return self._post_run()
        elif method == "DELETE":
            if len(parts) == 3 and parts[:2] == ["v1", "runs"]:
                if not self.state.scheduler.cancel(parts[2]):
                    raise ServeHTTPError(
                        404, f"unknown run {parts[2]!r}")
                return 200, {"run": parts[2], "status": "cancelled"}
        raise ServeHTTPError(404, f"no route for {method} {self.path}")

    # -- endpoints --------------------------------------------------------

    def _post_scenario(self) -> Tuple[int, Dict[str, object]]:
        body = self._read_json()
        spec = ScenarioSpec.from_request(body)
        entry, created, deduped = self.state.store.get_or_build(
            spec, self.state.stats)
        doc = entry.summary()
        doc["created"] = created
        doc["deduped"] = deduped
        return (201 if created else 200), doc

    def _post_run(self) -> Tuple[int, Dict[str, object]]:
        body = self._read_json()
        if not isinstance(body, dict):
            raise ConfigurationError(
                f"run request must be a JSON object, "
                f"got {type(body).__name__}")
        allowed = {"scenario", "configs", "points", "out_dir"}
        unknown = sorted(set(body) - allowed)
        if unknown:
            raise ConfigurationError(
                f"unknown run-request keys {unknown}; "
                f"allowed: {sorted(allowed)}")
        raw_points = []
        if "points" in body:
            if "scenario" in body or "configs" in body:
                raise ConfigurationError(
                    "pass either points or scenario+configs, not both")
            if not isinstance(body["points"], list) or not body["points"]:
                raise ConfigurationError(
                    f"points must be a non-empty list, "
                    f"got {body['points']!r}")
            for item in body["points"]:
                if not isinstance(item, dict):
                    raise ConfigurationError(
                        f"each point must be an object, got {item!r}")
                bad = sorted(set(item) - {"scenario", "config"})
                if bad:
                    raise ConfigurationError(
                        f"unknown point keys {bad}; "
                        f"allowed: ['config', 'scenario']")
                raw_points.append((item.get("scenario"),
                                   item.get("config")))
        else:
            if "scenario" not in body:
                raise ConfigurationError(
                    "run request needs a scenario (or a points list)")
            configs = body.get("configs", [{}])
            if not isinstance(configs, list) or not configs:
                raise ConfigurationError(
                    f"configs must be a non-empty list, "
                    f"got {configs!r}")
            raw_points = [(body["scenario"], c) for c in configs]
        resolved = []
        for scenario_hash, config in raw_points:
            if not isinstance(scenario_hash, str):
                raise ConfigurationError(
                    f"scenario must be a hash string, "
                    f"got {scenario_hash!r}")
            entry = self.state.store.get(scenario_hash)
            if entry is None:
                raise ServeHTTPError(
                    404, f"unknown scenario {scenario_hash!r}; "
                         f"POST /v1/scenarios first")
            from repro.serve.jobs import normalize_config
            resolved.append((entry, normalize_config(entry, config)))
        out_dir = body.get("out_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigurationError(
                f"out_dir must be a path string, got {out_dir!r}")
        run = self.state.scheduler.submit(
            resolved,
            out_dir=(resolve_out_dir(out_dir, self.state.out_root)
                     if out_dir else None))
        progress = self.state.scheduler.run_progress(run)
        return 202, {
            "run": run.id,
            "url": f"/v1/runs/{run.id}",
            "points": len(run.point_keys),
            "new": run.new,
            "deduped": run.deduped,
            "status": progress["status"],
        }

    def _get_run(self, run_id: str, query: Dict[str, str]
                 ) -> Optional[Tuple[int, Dict[str, object]]]:
        sched = self.state.scheduler
        run = sched.get_run(run_id)
        if run is None:
            return self._get_archived_run(run_id)
        if query.get("stream") == "1":
            since = _query_int(query, "since") or 0
            self._stream_run(run, since)
            return None
        since = _query_int(query, "since")
        if since is not None:
            wait_s = _query_float(query, "wait", LONGPOLL_DEFAULT_S)
            wait_s = min(max(wait_s, 0.0), LONGPOLL_MAX_S)
            events, next_seq, progress = sched.wait_events(
                run, since, wait_s)
            return 200, {
                "run": run.id,
                "status": progress["status"],
                "points": progress["points"],
                "since": since,
                "next": next_seq,
                "events": events,
            }
        progress = sched.run_progress(run)
        doc: Dict[str, object] = {
            "run": run.id,
            "status": progress["status"],
            "points": progress["points"],
            "names": list(run.names),
            "created_at": run.created_at,
        }
        docs, errors = sched.run_documents(run)
        if errors:
            doc["errors"] = errors
        if progress["status"] in ("done", "failed", "cancelled"):
            doc["documents"] = docs
            if run.out_dir is not None:
                doc["out_dir"] = str(run.out_dir)
                # -1 is the scheduler's internal claimed-but-flushing
                # sentinel; expose the count only once the files exist.
                if run.written is not None and run.written >= 0:
                    doc["written"] = run.written
        return 200, doc

    def _get_archived_run(self, run_id: str
                          ) -> Tuple[int, Dict[str, object]]:
        """A run served from the workspace after retirement/restart.

        A run with a point that never finished (the server died
        mid-batch) or whose document is gone (evicted, or corrupt)
        reports ``failed``: its documents on disk are served, the
        others carry an error with the resubmit hint, and resubmitting
        the same points is the recovery path (completed ones become
        workspace hits; only the remainder re-executes).
        """
        ws = self.state.workspace
        record = ws.load_run(run_id) if ws is not None else None
        if record is None:
            raise ServeHTTPError(404, f"unknown run {run_id!r}")
        names = list(record.get("names", []))
        keys = [tuple(k) for k in record.get("point_keys", [])]
        states = list(record.get("states", []))
        errors = dict(record.get("errors", {}))
        status = record.get("status", "failed")
        terminal = status in ("done", "failed", "cancelled")
        documents: Dict[str, dict] = {}
        counts = {"total": len(names), "pending": 0, "running": 0,
                  "done": 0, "failed": 0, "cancelled": 0}
        for index, name in enumerate(names):
            doc = ws.load_point(keys[index]) if index < len(keys) else None
            if doc is not None:
                # The document on disk is authoritative: a point that
                # completed after the last record write still serves.
                documents[name] = doc
                counts["done"] += 1
                errors.pop(name, None)
                continue
            state = states[index] if index < len(states) else "pending"
            if terminal and state in counts and state != "done":
                counts[state] += 1
                continue
            # Never finished, or recorded done but evicted or corrupt
            # since: say so rather than serving a hole silently.
            counts["failed"] += 1
            errors.setdefault(name, (
                "document missing from the workspace (evicted or corrupt)"
                if terminal else "interrupted by server restart")
                + "; resubmit to re-execute")
        if status not in ("failed", "cancelled"):
            status = "failed" if counts["failed"] else "done"
        doc = {
            "run": run_id,
            "status": status,
            "points": counts,
            "names": names,
            "created_at": record.get("created_at"),
            "archived": True,
            "documents": documents,
        }
        if errors:
            doc["errors"] = errors
        return 200, doc

    # -- streaming --------------------------------------------------------

    def _stream_run(self, run, since: int) -> None:
        """``?stream=1``: chunked NDJSON events until terminal.

        One JSON object per line: the run's completion events as they
        land, then a final summary line with the terminal status.  The
        headers leave at once, so a client sees the status line before
        the first event; each chunk is one send, and the summary goes
        out together with the terminal chunk.
        """
        sched = self.state.scheduler
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            self.wfile.flush()
            deadline = time.monotonic() + STREAM_MAX_S
            while True:
                timeout = min(10.0, deadline - time.monotonic())
                events, next_seq, progress = sched.wait_events(
                    run, since, max(timeout, 0.0))
                for event in events:
                    self._send(_chunk(event))
                since = next_seq
                terminal = progress["status"] in ("done", "failed",
                                                  "cancelled")
                if terminal or time.monotonic() >= deadline:
                    summary = {"run": run.id,
                               "status": progress["status"],
                               "points": progress["points"],
                               "next": next_seq}
                    self._send(_chunk(summary) + b"0\r\n\r\n")
                    break
        except ConnectionError:
            # The consumer went away mid-stream; a resident server
            # shrugs (but this connection is done).
            self.close_connection = True

    def _send(self, data: bytes) -> None:
        self.wfile.write(data)
        self.wfile.flush()

    # -- JSON plumbing ----------------------------------------------------

    def _read_json(self) -> object:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            self.close_connection = True
            raise ServeHTTPError(400, "bad Content-Length") from None
        if length < 0:
            # A negative length would pass the size check below and
            # turn rfile.read(length) into read-until-EOF, parking the
            # handler thread on a keep-alive connection.
            self.close_connection = True
            raise ServeHTTPError(
                400, f"bad Content-Length {length}")
        if length > MAX_BODY_BYTES:
            # Refused without reading: close the connection so the
            # unread body cannot desync later keep-alive requests.
            self.close_connection = True
            raise ServeHTTPError(
                413, f"body of {length} bytes exceeds "
                     f"{MAX_BODY_BYTES}")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServeHTTPError(400, "empty request body")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ServeHTTPError(
                400, f"request body is not JSON: {exc}") from None

    def _reply(self, status: int, doc: Dict[str, object]) -> None:
        payload = (json.dumps(doc, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)


class ReproServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`ServerState`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 state: Optional[ServerState] = None) -> None:
        super().__init__(address, ServeHandler)
        self.state = state if state is not None else ServerState()

    def close(self) -> None:
        """Stop serving and drain the worker pool."""
        self.state.close()
        self.server_close()


def serve(host: str = "127.0.0.1", port: int = 8642,
          workers: int = 2, queue_limit: int = 64,
          cache_dir: Optional[str] = None,
          out_root: Optional[str] = None,
          executor: str = "process",
          recycle_after: int = 32,
          workspace: Optional[str] = None,
          workspace_ttl_s: float = 7 * 24 * 3600.0,
          workspace_limit_bytes: int = 512 << 20,
          verbose: bool = False) -> ReproServer:
    """Build a ready-to-run server (callers invoke ``serve_forever``)."""
    state = ServerState(workers=workers, queue_limit=queue_limit,
                        cache_dir=cache_dir, out_root=out_root,
                        executor=executor, recycle_after=recycle_after,
                        workspace=workspace,
                        workspace_ttl_s=workspace_ttl_s,
                        workspace_limit_bytes=workspace_limit_bytes,
                        verbose=verbose)
    return ReproServer((host, port), state)


def main(host: str, port: int, workers: int, queue_limit: int,
         cache_dir: Optional[str], verbose: bool,
         out_root: Optional[str] = None,
         executor: str = "process",
         recycle_after: int = 32,
         workspace: Optional[str] = None,
         workspace_ttl_s: float = 7 * 24 * 3600.0,
         workspace_limit_bytes: int = 512 << 20) -> int:
    """The ``repro serve`` entry point: run until interrupted."""
    try:
        server = serve(host=host, port=port, workers=workers,
                       queue_limit=queue_limit, cache_dir=cache_dir,
                       out_root=out_root, executor=executor,
                       recycle_after=recycle_after,
                       workspace=workspace,
                       workspace_ttl_s=workspace_ttl_s,
                       workspace_limit_bytes=workspace_limit_bytes,
                       verbose=verbose)
    except OSError as exc:
        print(f"cannot bind {host}:{port}: {exc}", file=sys.stderr)
        return 2
    bound = server.server_address
    print(f"repro serve: listening on http://{bound[0]}:{bound[1]} "
          f"(workers={workers}, executor={executor}, "
          f"queue_limit={queue_limit}"
          + (f", workspace={workspace}" if workspace else "")
          + ")", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0
