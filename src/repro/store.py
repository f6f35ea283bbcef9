"""One verified, crash-consistent artifact store.

Every file the project persists -- trace-cache entries, the serve
workspace's records, ``--stats-json`` and ``out_dir`` documents -- is
written by :func:`write_atomic`: a temp file next to the target,
fsync, rename, directory fsync, the temp file removed on any failure.
A crash at any step leaves the old file or the new one, never a mix,
plus at most one ``*.tmp`` for :meth:`Store.sweep_tmp`.

A :class:`Store` is a flat directory of ``<name><suffix>`` entries,
each one header line ``repro-store/1 <sha256>`` and then the payload.
The digest covers name and payload, so a flipped bit, a truncation or
a file renamed to another key fails :meth:`Store.get`, which purges
the entry and reports a miss.  :func:`evict_oldest` is the one size
bound.  :func:`dump_document` is the one document byte format.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

#: The first bytes of every entry (format version 1).
MAGIC = b"repro-store/1 "
_HEADER = len(MAGIC) + 65                # magic, hex digest, LF

#: Temp files older than this belong to a dead writer; younger ones
#: may be a concurrent writer's (no live write takes minutes).
STALE_TMP_S = 600.0


def dump_document(doc: object) -> bytes:
    """The document byte format (sorted keys, indent 2, trailing LF)."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _unlink(path) -> bool:
    """Best-effort delete, tolerant of concurrent deleters."""
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


def stage(path: Path, payload: bytes) -> str:
    """The first half of :func:`write_atomic`: ``payload`` in a fsynced
    temp file next to ``path``, created with the mode ``open`` would
    give (the umask's); returns the temp file's name."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        _unlink(tmp)
        raise
    return tmp


def write_atomic(path: Path, payload: bytes) -> None:
    """The one write path: temp file, fsync, rename, directory fsync."""
    tmp = stage(path, payload)
    try:
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise
    fd = os.open(str(path.parent), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_documents(root: Path,
                    documents: Sequence[Tuple[str, object]]) -> List[Path]:
    """Write ``(file name, document)`` pairs under ``root`` in the
    :func:`dump_document` format; returns the paths written."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for name, doc in documents:
        write_atomic(root / name, dump_document(doc))
    return [root / name for name, _ in documents]


def _digest(name: str, payload: bytes) -> bytes:
    digest = hashlib.sha256(name.encode() + b"\n")
    digest.update(payload)
    return digest.hexdigest().encode()


class Entry(NamedTuple):
    name: str
    size: int
    mtime: float


class Store:
    """A flat directory of digest-verified entries (module docstring).
    Safe for concurrent processes: writes are renames, and every
    delete tolerates a file another process removed first."""

    def __init__(self, root: Path, suffix: str) -> None:
        self.root = Path(root)
        self.suffix = suffix

    def path(self, name: str) -> Path:
        return self.root / f"{name}{self.suffix}"

    def put(self, name: str, payload: bytes) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomic(self.path(name),
                     MAGIC + _digest(name, payload) + b"\n" + payload)

    def get(self, name: str) -> Optional[bytes]:
        """The verified payload, or None: missing, or corrupt (then
        purged, so the next :meth:`put` replaces it)."""
        try:
            raw = self.path(name).read_bytes()
        except OSError:
            return None
        payload = raw[_HEADER:]
        header = raw[len(MAGIC):_HEADER - 1]
        if not raw.startswith(MAGIC) or header != _digest(name, payload):
            self.discard(name)
            return None
        return payload

    def discard(self, name: str) -> bool:
        """Delete one entry; False when it was already gone."""
        return _unlink(self.path(name))

    def entries(self) -> List[Entry]:
        """Every entry, oldest first (mtime, then name)."""
        out = []
        for path in self.root.glob(f"*{self.suffix}"):
            try:
                st = path.stat()
            except OSError:              # a concurrent delete
                continue
            out.append(Entry(path.name[:-len(self.suffix)], st.st_size,
                             st.st_mtime))
        return sorted(out, key=lambda e: (e.mtime, e.name))

    def sweep_tmp(self, max_age_s: float = STALE_TMP_S) -> int:
        """Delete temp files older than ``max_age_s``; returns how many."""
        cutoff = time.time() - max_age_s
        swept = 0
        for tmp in self.root.glob("*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff and _unlink(tmp):
                    swept += 1
            except OSError:              # a concurrent sweeper
                continue
        return swept

    def bound(self, limit_bytes: int) -> int:
        """Evict entries oldest-first until they fit ``limit_bytes``."""
        entries = self.entries()
        return evict_oldest(
            entries, sum(e.size for e in entries), limit_bytes,
            lambda e: e.size if self.discard(e.name) else 0)


def evict_oldest(victims: Sequence, used_bytes: int, limit_bytes: int,
                 drop: Callable[[object], int]) -> int:
    """The one size bound: ``drop`` victims in order (oldest first)
    while ``used_bytes`` exceeds ``limit_bytes``.  ``drop(victim)``
    removes one, with whatever goes with it, and returns the bytes it
    freed.  Returns how many victims were dropped."""
    dropped = 0
    for victim in victims:
        if used_bytes <= limit_bytes:
            break
        used_bytes -= drop(victim)
        dropped += 1
    return dropped
