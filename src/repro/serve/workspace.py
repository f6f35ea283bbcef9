"""Disk-backed artifact workspace: served results that survive restarts.

With ``repro serve --workspace DIR`` every completed point document
and every run record persists under one server-owned directory, and
the in-memory run table becomes a cache over it: a run retired by the
retention bound -- or completed by a previous server process -- is
still served by ``GET /v1/runs/<id>``, byte-identical, from disk (the
celine digital-twin pattern from SNIPPETS.md).  Layout: three
:class:`repro.store.Store` directories, written crash-consistently and
sha256-verified on read (docs/serve.md has the format)::

    <root>/scenarios/<scenario-hash>.json   canonical spec + build info
    <root>/points/<scenario>_<config>.json  final servepoint documents
    <root>/runs/<run-id>.json               run records

Point documents are keyed by ``(scenario-hash, config-hash)``, the
scheduler's dedup identity, so a resubmitted point after a restart is
a *workspace hit*, born ``done`` from disk.  A corrupt entry reads as
absent and is purged: it is never served, and re-executes on resubmit.

A served run writes, in order: the scenario record (at build), the
run record at submission, each point document before its completion
event, and the run record at completion.  After a crash between any
two, a restart serves the run complete or ``failed`` with a resubmit
hint.  Eviction runs whenever a run record is written: run records
older than ``ttl_s`` go first, then the oldest
(:func:`repro.store.evict_oldest`) until the entries fit
``limit_bytes``; point documents and scenario records referenced by
no surviving run go with them.

Trust model: operator-owned server state -- clients never name
workspace paths (run ids are server-generated and validated against
``run-<digits>`` before any path is formed) -- and single-writer: the
directory must not be shared between running servers, so every temp
file found at boot is a dead writer's and is swept.
"""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.store import Entry, Store, dump_document, evict_oldest

#: Server-generated run ids are the only accepted file stems.
_RUN_ID_RE = re.compile(r"run-\d{6,}")

#: Scenario/config hashes are 16 lowercase hex chars.
_HASH_RE = re.compile(r"[0-9a-f]{16}")

_SUBDIRS = ("scenarios", "points", "runs")


def _parse(payload: Optional[bytes]) -> Optional[dict]:
    """A verified entry's document (only ``save_*`` wrote it)."""
    return json.loads(payload) if payload is not None else None


class ArtifactWorkspace:
    """One server's on-disk artifact store (see module docstring)."""

    def __init__(self, root: Path, ttl_s: float = 7 * 24 * 3600.0,
                 limit_bytes: int = 512 << 20) -> None:
        self.root = Path(root).expanduser()
        self.ttl_s = float(ttl_s)
        self.limit_bytes = int(limit_bytes)
        self._lock = threading.Lock()
        self._stores = [Store(self.root / sub, ".json") for sub in _SUBDIRS]
        self._scenarios, self._points, self._runs = self._stores
        for store in self._stores:
            store.root.mkdir(parents=True, exist_ok=True)
            store.sweep_tmp(0.0)

    # -- point documents --------------------------------------------------

    @staticmethod
    def _point_name(key: Tuple[str, str]) -> Optional[str]:
        scenario, config = key
        if not (_HASH_RE.fullmatch(str(scenario))
                and _HASH_RE.fullmatch(str(config))):
            return None
        return f"{scenario}_{config}"

    def save_point(self, key: Tuple[str, str], document: dict) -> bool:
        """Persist one completed point document; False when already
        present (content-addressed: the first write wins)."""
        name = self._point_name(key)
        if name is None:
            return False
        with self._lock:
            if self._points.get(name) is not None:
                return False
            self._points.put(name, dump_document(document))
            return True

    def load_point(self, key: Tuple[str, str]) -> Optional[dict]:
        name = self._point_name(key)
        if name is None:
            return None
        with self._lock:
            return _parse(self._points.get(name))

    # -- run records ------------------------------------------------------

    def save_run(self, record: Dict[str, object]) -> None:
        run_id = str(record.get("run", ""))
        if _RUN_ID_RE.fullmatch(run_id):
            with self._lock:
                self._runs.put(run_id, dump_document(record))

    def load_run(self, run_id: str) -> Optional[dict]:
        if not _RUN_ID_RE.fullmatch(str(run_id)):
            return None
        with self._lock:
            return _parse(self._runs.get(run_id))

    def run_ids(self) -> List[str]:
        """Persisted run ids, oldest first by run number."""
        with self._lock:
            return sorted(e.name for e in self._runs.entries()
                          if _RUN_ID_RE.fullmatch(e.name))

    def max_run_number(self) -> int:
        """The highest persisted run number (0 when none): a restarted
        server resumes its id sequence past everything on disk."""
        return max((int(rid.split("-", 1)[1]) for rid in self.run_ids()),
                   default=0)

    # -- scenario records -------------------------------------------------

    def save_scenario(self, record: Dict[str, object]) -> None:
        scenario = str(record.get("scenario", ""))
        if _HASH_RE.fullmatch(scenario):
            with self._lock:
                self._scenarios.put(scenario, dump_document(record))

    def load_scenarios(self) -> List[dict]:
        with self._lock:
            records = [_parse(self._scenarios.get(e.name))
                       for e in self._scenarios.entries()]
        return [r for r in records if r is not None]

    # -- introspection ----------------------------------------------------

    def usage(self) -> Dict[str, object]:
        """Entry counts and byte totals for ``/debug/state`` (temp
        files are not entries)."""
        out: Dict[str, object] = {"dir": str(self.root),
                                  "ttl_s": self.ttl_s,
                                  "limit_bytes": self.limit_bytes}
        total = 0
        with self._lock:
            for sub, store in zip(_SUBDIRS, self._stores):
                entries = store.entries()
                size = sum(e.size for e in entries)
                out[sub] = {"files": len(entries), "bytes": size}
                total += size
        out["bytes"] = total
        return out

    # -- eviction ---------------------------------------------------------

    def evict(self, now: Optional[float] = None) -> int:
        """Apply the TTL + size bound; returns files removed.

        Run records are the eviction unit: expired or unreadable ones
        go first, then oldest-first while the workspace exceeds
        ``limit_bytes``.  Point documents and scenario records
        referenced by no surviving run go with them.
        """
        now = time.time() if now is None else now
        with self._lock:
            survivors: List[Tuple[Entry, dict]] = []
            removed: List[Entry] = []
            for entry in self._runs.entries():
                record = _parse(self._runs.get(entry.name))
                if record is None or now - entry.mtime > self.ttl_s:
                    self._runs.discard(entry.name)  # (corrupt: gone)
                    removed.append(entry)
                else:
                    survivors.append((entry, record))
            removed += self._gc_unreferenced(survivors, now)

            def drop(item: Tuple[Entry, dict]) -> int:
                survivors.remove(item)
                self._runs.discard(item[0].name)
                gone = [item[0]] + self._gc_unreferenced(survivors, now)
                removed.extend(gone)
                return sum(e.size for e in gone)

            used = sum(e.size for store in self._stores
                       for e in store.entries())
            evict_oldest(list(survivors), used, self.limit_bytes, drop)
        return len(removed)

    def _gc_unreferenced(self, survivors: List[Tuple[Entry, dict]],
                         now: float) -> List[Entry]:
        """Drop point files no surviving run references, and scenario
        records that are both unreferenced and past the TTL (a built
        scenario stays rehydratable for a full TTL even before any run
        names it).  Returns the entries removed."""
        point_refs = set()
        scenario_refs = set()
        for _, record in survivors:
            for pair in record.get("point_keys", []):
                if isinstance(pair, list) and len(pair) == 2:
                    point_refs.add(f"{pair[0]}_{pair[1]}")
                    scenario_refs.add(str(pair[0]))
        removed = [e for e in self._points.entries()
                   if e.name not in point_refs
                   and self._points.discard(e.name)]
        removed += [e for e in self._scenarios.entries()
                    if e.name not in scenario_refs
                    and now - e.mtime > self.ttl_s
                    and self._scenarios.discard(e.name)]
        return removed
