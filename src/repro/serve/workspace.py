"""Disk-backed artifact workspace: served results that survive restarts.

With ``repro serve --workspace DIR`` every completed point document
and every run record persists under one server-owned directory, and
the in-memory run table becomes a cache over it: a run retired by the
retention bound -- or completed by a previous server process -- is
still served by ``GET /v1/runs/<id>``, byte-identical, straight from
disk.  The celine digital-twin pattern from SNIPPETS.md, folded into
the serve layer.

Layout (all JSON, all written atomically via temp-file + rename)::

    <root>/scenarios/<scenario-hash>.json   canonical spec + build info
    <root>/points/<scenario>_<config>.json  final servepoint documents,
                                            exact serve byte format
    <root>/runs/<run-id>.json               run records (names, keys,
                                            per-point states, status)

Point documents are content-addressed by ``(scenario-hash,
config-hash)`` -- the same dedup identity the scheduler uses -- so a
resubmitted point after a restart is a *workspace hit*: the entry is
born ``done`` from disk and never touches the queue.

Eviction runs whenever a run record is written: run records older
than ``ttl_s`` go first, then oldest-first until total size fits
``limit_bytes``; point documents and scenario records referenced by
no surviving run are garbage-collected with them.

Trust model: the workspace is operator-owned server state, like the
trace cache -- clients never name workspace paths (run ids are
server-generated and validated against ``run-<digits>`` before any
path is formed), and the directory must not be shared between
concurrently running servers (single-writer; the in-process lock is
the only coordination).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Server-generated run ids are the only accepted file stems.
_RUN_ID_RE = re.compile(r"run-\d{6,}")

#: Scenario/config hashes are 16 lowercase hex chars.
_HASH_RE = re.compile(r"[0-9a-f]{16}")


def _dump_json(doc: object) -> bytes:
    """The serve document byte format (sorted keys, indent 2, LF)."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


class ArtifactWorkspace:
    """One server's on-disk artifact store (see module docstring)."""

    def __init__(self, root: Path, ttl_s: float = 7 * 24 * 3600.0,
                 limit_bytes: int = 512 << 20) -> None:
        self.root = Path(root).expanduser()
        self.ttl_s = float(ttl_s)
        self.limit_bytes = int(limit_bytes)
        self._lock = threading.Lock()
        for sub in ("scenarios", "points", "runs"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- paths ------------------------------------------------------------

    def _point_path(self, key: Tuple[str, str]) -> Optional[Path]:
        scenario, config = key
        if not (_HASH_RE.fullmatch(str(scenario))
                and _HASH_RE.fullmatch(str(config))):
            return None
        return self.root / "points" / f"{scenario}_{config}.json"

    def _run_path(self, run_id: str) -> Optional[Path]:
        if not _RUN_ID_RE.fullmatch(str(run_id)):
            return None
        return self.root / "runs" / f"{run_id}.json"

    def _scenario_path(self, scenario_hash: str) -> Optional[Path]:
        if not _HASH_RE.fullmatch(str(scenario_hash)):
            return None
        return self.root / "scenarios" / f"{scenario_hash}.json"

    def _write_atomic(self, path: Path, payload: bytes) -> None:
        """Temp file + rename.  The temp file goes on *every* failure
        path, not just ``OSError``: eviction and size accounting only
        see ``*.json``, so a stranded ``.tmp`` (say, after a
        ``KeyboardInterrupt`` between ``mkstemp`` and ``os.replace``)
        would escape the workspace bound forever."""
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @staticmethod
    def _load_json(path: Path) -> Optional[dict]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        return doc if isinstance(doc, dict) else None

    # -- point documents --------------------------------------------------

    def save_point(self, key: Tuple[str, str], document: dict) -> bool:
        """Persist one completed point document; False when already
        present (content-addressed: the first write wins)."""
        path = self._point_path(key)
        if path is None:
            return False
        with self._lock:
            if path.exists():
                return False
            self._write_atomic(path, _dump_json(document))
            return True

    def load_point(self, key: Tuple[str, str]) -> Optional[dict]:
        path = self._point_path(key)
        if path is None:
            return None
        with self._lock:
            if not path.exists():
                return None
            return self._load_json(path)

    # -- run records ------------------------------------------------------

    def save_run(self, record: Dict[str, object]) -> None:
        path = self._run_path(str(record.get("run", "")))
        if path is None:
            return
        with self._lock:
            self._write_atomic(path, _dump_json(record))

    def load_run(self, run_id: str) -> Optional[dict]:
        path = self._run_path(run_id)
        if path is None:
            return None
        with self._lock:
            if not path.exists():
                return None
            return self._load_json(path)

    def run_ids(self) -> List[str]:
        """Persisted run ids, oldest first by run number."""
        with self._lock:
            stems = [p.stem for p in (self.root / "runs").glob("run-*.json")
                     if _RUN_ID_RE.fullmatch(p.stem)]
        return sorted(stems)

    def max_run_number(self) -> int:
        """The highest persisted run number (0 when none): a restarted
        server resumes its id sequence past everything on disk."""
        best = 0
        for stem in self.run_ids():
            try:
                best = max(best, int(stem.split("-", 1)[1]))
            except ValueError:  # pragma: no cover - filtered by regex
                pass
        return best

    # -- scenario records -------------------------------------------------

    def save_scenario(self, record: Dict[str, object]) -> None:
        path = self._scenario_path(str(record.get("scenario", "")))
        if path is None:
            return
        with self._lock:
            self._write_atomic(path, _dump_json(record))

    def load_scenarios(self) -> List[dict]:
        with self._lock:
            paths = sorted((self.root / "scenarios").glob("*.json"))
            records = [self._load_json(p) for p in paths]
        return [r for r in records if r is not None]

    # -- introspection ----------------------------------------------------

    def usage(self) -> Dict[str, object]:
        """Counts and byte totals for ``/debug/state``."""
        out: Dict[str, object] = {"dir": str(self.root),
                                  "ttl_s": self.ttl_s,
                                  "limit_bytes": self.limit_bytes}
        total = 0
        with self._lock:
            for sub in ("scenarios", "points", "runs"):
                paths = list((self.root / sub).glob("*.json"))
                size = 0
                for p in paths:
                    try:
                        size += p.stat().st_size
                    except OSError:
                        pass
                out[sub] = {"files": len(paths), "bytes": size}
                total += size
        out["bytes"] = total
        return out

    # -- eviction ---------------------------------------------------------

    def evict(self, now: Optional[float] = None) -> int:
        """Apply the TTL + size bound; returns files removed.

        Run records are the eviction unit: expired ones (mtime past
        ``ttl_s``) go first, then oldest-first while the workspace
        exceeds ``limit_bytes``.  Point documents and scenario records
        referenced by no surviving run go with them.
        """
        now = time.time() if now is None else now
        removed = 0
        with self._lock:
            runs: List[Tuple[float, Path, Optional[dict]]] = []
            for path in (self.root / "runs").glob("*.json"):
                try:
                    mtime = path.stat().st_mtime
                except OSError:
                    continue
                runs.append((mtime, path, self._load_json(path)))
            runs.sort(key=lambda item: (item[0], item[1].name))

            survivors: List[Tuple[float, Path, dict]] = []
            doomed: List[Path] = []
            for mtime, path, record in runs:
                if record is None or now - mtime > self.ttl_s:
                    doomed.append(path)
                else:
                    survivors.append((mtime, path, record))

            def total_bytes() -> int:
                size = 0
                for sub in ("scenarios", "points", "runs"):
                    for p in (self.root / sub).glob("*.json"):
                        try:
                            size += p.stat().st_size
                        except OSError:
                            pass
                return size

            for path in doomed:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            removed += self._gc_unreferenced(survivors, now)
            while survivors and total_bytes() > self.limit_bytes:
                _, path, _ = survivors.pop(0)
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
                removed += self._gc_unreferenced(survivors, now)
        return removed

    def _gc_unreferenced(self,
                         survivors: List[Tuple[float, Path, dict]],
                         now: float) -> int:
        """Drop point files no surviving run references, and scenario
        records that are both unreferenced and past the TTL (a built
        scenario stays rehydratable for a full TTL even before any run
        names it)."""
        point_refs = set()
        scenario_refs = set()
        for _, _, record in survivors:
            for pair in record.get("point_keys", []):
                if isinstance(pair, list) and len(pair) == 2:
                    point_refs.add(f"{pair[0]}_{pair[1]}")
                    scenario_refs.add(str(pair[0]))
        removed = 0
        for path in (self.root / "points").glob("*.json"):
            if path.stem not in point_refs:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        for path in (self.root / "scenarios").glob("*.json"):
            if path.stem in scenario_refs:
                continue
            try:
                expired = now - path.stat().st_mtime > self.ttl_s
            except OSError:
                expired = True
            if expired:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
