"""Parallel experiment execution with trace record/replay caching.

Every figure in the paper is a sweep over independent (workload,
configuration, system) points, so the experiment drivers were paying
twice for the same work: each point regenerated the identical memory
trace for every system it compared, and the points ran strictly
serially.  This module fixes both:

* **Trace record/replay.**  :func:`get_recording` walks a kernel's
  loop nest once and materializes the stream into a
  :class:`TraceRecording` holding a packed columnar
  :class:`~repro.cpu.trace.PackedTrace` (parallel ``array('q')``
  columns + an XMemOp side-table; no per-event objects).  The
  recording is replayed for every system of the point: XMem machines
  get the setup calls re-applied and the full packed trace; baseline
  machines consume the same columns with the side-table dropped
  (``strip_xmem`` is O(1) on a packed trace -- hints are supplemental,
  so the dense stream *is* the baseline binary).  Recordings are also
  cached on disk, keyed by a hash of (kernel, n, tile,
  instrumentation); the columns serialize via ``tobytes()``/
  ``frombytes()`` -- a memcpy, not a per-event pickle -- and the blob
  is zlib-compressed on disk (strided address columns compress well).
  Entries carry
  a content digest; corrupted or stale files are detected and
  silently regenerated, never replayed.

* **Process fan-out.**  :func:`sweep` (and the generic
  :func:`run_parallel`) distribute points over a
  ``ProcessPoolExecutor``.  The worker count comes from the
  ``REPRO_JOBS`` environment variable (default ``os.cpu_count()``);
  ``jobs=1`` runs serially in-process -- the debugging path.  Results
  are returned in submission order, so parallel output is
  bit-identical to serial output.

Environment knobs:

* ``REPRO_JOBS``        -- worker processes for sweeps (default: all
  cores; ``1`` = serial in-process execution).
* ``REPRO_ENGINE``      -- engine tier for every run
  (``object``/``packed``/``analytical``; default
  ``packed``; see :mod:`repro.cpu.tiers`).  Inherited by sweep
  workers and recorded in the run manifest.
* ``REPRO_TRACE_CACHE`` -- trace cache directory; ``0``/``off``
  disables the on-disk layer (the in-memory layer still shares one
  generation across the systems of a point).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import threading
import zlib
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.xmemlib import XMemLib
from repro.cpu.engine import EngineStats
from repro.cpu.tiers import corun_tier, resolve_engine_tier
from repro.cpu.trace import PackedTrace, TraceBuilder, TraceEvent, XMemOp
from repro.sim.config import SimConfig, scaled_config
from repro.sim.corun import CoreStats, CorunSystem
from repro.sim.stats import PhaseTimer, Snapshot, collect_repro_env
from repro.sim.system import (
    SystemHandle,
    build_baseline,
    build_xmem,
    build_xmem_pref,
)

#: Bump when the payload layout or trace semantics change; old cache
#: entries then key-miss instead of replaying stale streams.
#: v2: packed columnar payload (raw column bytes + XMemOp side-table)
#: replacing the v1 per-event tuple list.
TRACE_FORMAT_VERSION = 2

#: The three machine builders a point may compare.
SYSTEM_BUILDERS: Dict[str, Callable[..., SystemHandle]] = {
    "baseline": build_baseline,
    "xmem": build_xmem,
    "xmem-pref": build_xmem_pref,
}


# ---------------------------------------------------------------------------
# Job-count resolution
# ---------------------------------------------------------------------------

def jobs_from_env(default: Optional[int] = None) -> int:
    """Worker count: ``REPRO_JOBS`` if set, else ``default``/cpu_count."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if raw:
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_JOBS must be an integer, got {raw!r}"
            ) from None
        if jobs <= 0:
            raise ConfigurationError(f"REPRO_JOBS must be > 0: {jobs}")
        return jobs
    if default is not None:
        return default
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Trace recording
# ---------------------------------------------------------------------------

class SetupRecorder:
    """A stand-in XMemLib that logs the calls a kernel's setup makes.

    Kernels call ``lib.create_atom(...)`` / ``lib.atom_activate(...)``
    at trace-build time -- live side effects on the library.  To make a
    recorded trace replayable on a *fresh* machine, the recorder
    forwards every call to a throwaway :class:`XMemLib` (so atom IDs
    are allocated with the real dedup semantics) and logs
    ``(method, args, kwargs, result)`` for later re-application.
    """

    def __init__(self) -> None:
        self._lib = XMemLib()
        self.log: List[Tuple[str, tuple, dict, object]] = []

    def __getattr__(self, name: str):
        target = getattr(self._lib, name)
        if not callable(target):
            return target

        def record_call(*args, **kwargs):
            result = target(*args, **kwargs)
            self.log.append((name, args, kwargs, result))
            return result

        return record_call


class StaleRecordingError(Exception):
    """A cached recording no longer matches the live library semantics."""


def apply_setup(lib: XMemLib, log: Sequence[Tuple[str, tuple, dict,
                                                  object]]) -> None:
    """Re-apply a recorded setup log to a fresh library.

    The returned values (atom IDs) must match the recording -- the
    trace's :class:`XMemOp` events have those IDs baked in.  A mismatch
    means the recording predates a library change and must be
    regenerated.
    """
    for method, args, kwargs, expected in log:
        got = getattr(lib, method)(*args, **kwargs)
        if expected is not None and got != expected:
            raise StaleRecordingError(
                f"setup replay of {method} returned {got!r}, "
                f"recording expects {expected!r}"
            )


@dataclass
class TraceRecording:
    """One kernel invocation's stream, materialized in packed form."""

    kernel: str
    n: int
    tile: int
    instrumented: bool
    setup: List[Tuple[str, tuple, dict, object]] = field(
        default_factory=list)
    packed: PackedTrace = field(default_factory=PackedTrace)

    @property
    def events(self) -> List[TraceEvent]:
        """The stream as event objects (debug/compat; materializes)."""
        return list(self.packed.events())

    def replay(self, lib: Optional[XMemLib] = None) -> PackedTrace:
        """The packed trace, with setup re-applied when a lib is given.

        Returns the shared packed trace (the engine only reads it), so
        replay costs nothing beyond the setup calls.  Pass it to a
        baseline :class:`~repro.sim.system.SystemHandle` directly --
        its ``run`` drops the XMemOp side-table itself (O(1) on a
        packed trace).
        """
        if lib is not None:
            apply_setup(lib, self.setup)
        return self.packed

    # -- Compact disk form ------------------------------------------------

    def to_payload(self) -> dict:
        """Encode into raw column bytes (compact, version-tagged)."""
        packed = self.packed
        return {
            "version": TRACE_FORMAT_VERSION,
            "kernel": self.kernel,
            "n": self.n,
            "tile": self.tile,
            "instrumented": self.instrumented,
            "setup": self.setup,
            "events": len(packed),
            "itemsize": packed.vaddr.itemsize,
            "vaddr": packed.vaddr.tobytes(),
            "meta": packed.meta.tobytes(),
            "xmem": [(idx, op.method, op.args)
                     for idx, op in packed.xmem],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TraceRecording":
        """Decode a :meth:`to_payload` dict back into a packed trace."""
        if payload.get("version") != TRACE_FORMAT_VERSION:
            raise StaleRecordingError(
                f"trace format {payload.get('version')} != "
                f"{TRACE_FORMAT_VERSION}"
            )
        vaddr = array("q")
        if payload.get("itemsize") != vaddr.itemsize:
            # 'q' width is platform-dependent in principle; refuse to
            # reinterpret columns written with a different one.
            raise StaleRecordingError(
                f"column itemsize {payload.get('itemsize')} != "
                f"{vaddr.itemsize}"
            )
        meta = array("q")
        vaddr.frombytes(payload["vaddr"])
        meta.frombytes(payload["meta"])
        if len(vaddr) != payload["events"] or len(meta) != len(vaddr):
            raise StaleRecordingError(
                f"column length mismatch: {len(vaddr)}/{len(meta)} "
                f"vs {payload['events']} events"
            )
        xmem = tuple((idx, XMemOp(method, *args))
                     for idx, method, args in payload["xmem"])
        return cls(
            kernel=payload["kernel"],
            n=payload["n"],
            tile=payload["tile"],
            instrumented=payload["instrumented"],
            setup=list(payload["setup"]),
            packed=PackedTrace(vaddr, meta, xmem),
        )


def record_trace(kernel_name: str, n: int, tile: int,
                 instrument: bool = True) -> TraceRecording:
    """Walk a kernel's loop nest once and pack its trace."""
    from repro.workloads.polybench import KERNELS
    try:
        kernel = KERNELS[kernel_name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel {kernel_name!r}"
        ) from None
    recorder = SetupRecorder() if instrument else None
    packed = kernel.build_packed(n, tile, lib=recorder)
    return TraceRecording(
        kernel=kernel_name, n=n, tile=tile, instrumented=instrument,
        setup=recorder.log if recorder is not None else [],
        packed=packed,
    )


# ---------------------------------------------------------------------------
# On-disk trace cache
# ---------------------------------------------------------------------------

def trace_key(kernel: str, n: int, tile: int, instrumented: bool) -> str:
    """Stable hash identifying one recording."""
    text = (f"v{TRACE_FORMAT_VERSION}:{kernel}:{n}:{tile}:"
            f"{int(instrumented)}")
    return hashlib.sha256(text.encode()).hexdigest()


def default_cache_dir() -> Optional[Path]:
    """The trace-cache directory, or None when disabled.

    ``REPRO_TRACE_CACHE`` overrides the location; the values ``0``,
    ``off``, and ``none`` disable the on-disk layer entirely.
    """
    raw = os.environ.get("REPRO_TRACE_CACHE", "").strip()
    if raw.lower() in ("0", "off", "none", "false"):
        return None
    if raw:
        return Path(raw).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "traces"


class TraceCache:
    """Content-verified pickle cache of :class:`TraceRecording` files.

    Each entry stores the payload bytes together with their SHA-256
    digest and the entry key.  ``load`` re-hashes on read: a mismatch
    (bit rot, a partial write, a stale format) deletes the entry and
    returns None so the caller regenerates -- a bad entry is never
    replayed.
    """

    #: Tmp files older than this are stale (a crashed/killed writer's
    #: leftovers); :meth:`sweep_stale_tmp` removes them.  Generous --
    #: no live trace write takes minutes.
    STALE_TMP_S = 600

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = root if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self._swept_tmp = False

    @property
    def enabled(self) -> bool:
        """Whether an on-disk layer is configured."""
        return self.root is not None

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.trace"

    def load(self, key: str) -> Optional[TraceRecording]:
        """The cached recording, or None (missing/corrupt/stale)."""
        if self.root is None:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                wrapper = pickle.load(fh)
            blob = wrapper["blob"]
            if (wrapper["key"] != key
                    or hashlib.sha256(blob).hexdigest()
                    != wrapper["digest"]):
                raise StaleRecordingError("digest mismatch")
            recording = TraceRecording.from_payload(
                pickle.loads(zlib.decompress(blob)))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (StaleRecordingError, KeyError, TypeError, ValueError,
                EOFError, pickle.UnpicklingError, IndexError,
                zlib.error):
            # Corrupt or stale: purge so the regenerated entry replaces
            # it, and report a miss.  Concurrent sweep workers race on
            # exactly this purge (two workers both find a stale v1
            # entry), so a vanished file -- or any other unlink failure
            # on a path another worker owns -- must never crash a run.
            self._purge(path)
            self.misses += 1
            return None
        self.hits += 1
        return recording

    @staticmethod
    def _purge(path: Path) -> None:
        """Best-effort delete, tolerant of concurrent purgers."""
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass

    def counters(self) -> Dict[str, int]:
        """StatGroup view of the cache's hit/miss counters."""
        return {"hits": self.hits, "misses": self.misses,
                "enabled": int(self.enabled)}

    def stat_groups(self):
        """StatGroup protocol (registers as ``trace_cache``)."""
        yield "trace_cache", self.counters

    def sweep_stale_tmp(self, max_age_s: Optional[float] = None) -> int:
        """Delete abandoned ``*.trace.tmp`` files older than the bound.

        A writer that dies between ``mkstemp`` and ``os.replace``
        (SIGKILL, power loss) strands its tmp file; in a long-lived
        server those would otherwise accumulate forever.  Young tmp
        files belong to live concurrent writers and are left alone.
        Returns the number of files removed.
        """
        if self.root is None or not self.root.is_dir():
            return 0
        if max_age_s is None:
            max_age_s = self.STALE_TMP_S
        import time
        cutoff = time.time() - max_age_s
        swept = 0
        for tmp in self.root.glob("*.trace.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    swept += 1
            except OSError:
                # Vanished (a concurrent sweeper) or unreadable: either
                # way not ours to crash on.
                continue
        return swept

    def store(self, key: str, recording: TraceRecording) -> None:
        """Persist a recording (atomic rename; concurrent-writer safe).

        The tmp file is cleaned up on *every* failure path -- not just
        ``OSError``.  A ``KeyboardInterrupt`` or pickling error between
        ``mkstemp`` and ``os.replace`` used to strand a ``.trace.tmp``
        file per incident; ``_purge`` after a successful rename is a
        no-op (the path no longer exists).
        """
        if self.root is None:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return
        if not self._swept_tmp:
            # Once per cache instance: collect tmp files stranded by
            # earlier crashed writers before adding our own.
            self._swept_tmp = True
            self.sweep_stale_tmp()
        # The columns compress well (regular address deltas, repeated
        # flag words); zlib is stdlib and decompression is a small
        # fraction of a cold trace walk.  Uncompressed v1/v2 entries
        # fail zlib.decompress on load and purge like any stale entry.
        blob = zlib.compress(
            pickle.dumps(recording.to_payload(), protocol=4), 6)
        wrapper = {
            "key": key,
            "digest": hashlib.sha256(blob).hexdigest(),
            "blob": blob,
        }
        fd, tmp = tempfile.mkstemp(dir=str(self.root),
                                   suffix=".trace.tmp")
        try:
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(wrapper, fh, protocol=4)
                os.replace(tmp, self._path(key))
            except OSError:
                pass
        finally:
            self._purge(Path(tmp))


#: In-process memo of recently used recordings (shared across the
#: systems of a point and across points of the same kernel).  Small:
#: recordings run to millions of events.
_MEMO: Dict[str, TraceRecording] = {}
_MEMO_LIMIT = 4
#: ``repro serve`` hits the memo from its worker pool and its
#: scenario-build handler threads at once; unguarded, two threads
#: evicting at the bound can race ``next(iter(_MEMO))`` into a
#: ``KeyError`` (or transiently exceed the bound).
_MEMO_LOCK = threading.Lock()


def _memo_put(key: str, recording: TraceRecording) -> None:
    """Insert into the in-process memo, holding the size bound.

    Every insertion -- first generation and the stale-recording
    regeneration paths alike -- must come through here: a direct
    ``_MEMO[key] = ...`` bypasses the eviction loop, and in a
    long-lived ``repro serve`` process that bypass grows RSS without
    bound (each recording can run to millions of events).
    """
    with _MEMO_LOCK:
        while len(_MEMO) >= _MEMO_LIMIT and key not in _MEMO:
            _MEMO.pop(next(iter(_MEMO)), None)
        _MEMO[key] = recording


def _cached_recording(key: str, generate: Callable[[], TraceRecording],
                      cache: Optional[TraceCache]
                      ) -> Tuple[TraceRecording, str]:
    """Memo -> disk -> ``generate()``, with the provenance string.

    The source string lands in run manifests: ``memo`` (in-process),
    ``disk`` (trace-cache hit), or ``generated`` (fresh walk); callers
    upgrade it to ``regenerated`` when a cached recording turns out
    stale at replay time.
    """
    with _MEMO_LOCK:
        recording = _MEMO.get(key)
    if recording is not None:
        return recording, "memo"
    if cache is None:
        cache = TraceCache()
    recording = cache.load(key)
    source = "disk"
    if recording is None:
        recording = generate()
        cache.store(key, recording)
        source = "generated"
    _memo_put(key, recording)
    return recording, source


def get_recording_with_source(
        kernel: str, n: int, tile: int, instrument: bool = True,
        cache: Optional[TraceCache] = None
) -> Tuple[TraceRecording, str]:
    """One kernel recording plus where it came from."""
    key = trace_key(kernel, n, tile, instrument)
    return _cached_recording(
        key, lambda: record_trace(kernel, n, tile, instrument), cache)


def get_recording(kernel: str, n: int, tile: int,
                  instrument: bool = True,
                  cache: Optional[TraceCache] = None) -> TraceRecording:
    """One recording, via memo -> disk cache -> fresh generation."""
    return get_recording_with_source(kernel, n, tile, instrument,
                                     cache=cache)[0]


# ---------------------------------------------------------------------------
# Simulation points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimPoint:
    """One independent Use-Case-1 simulation point.

    Everything here is plain data so points pickle cleanly into worker
    processes.  ``systems`` selects which machines to compare (any of
    ``baseline``/``xmem``/``xmem-pref``); all of them replay the same
    recording.
    """

    kernel: str
    n: int
    tile: int
    scale: int = 32
    llc_bytes: Optional[int] = None
    bandwidth: float = 1.0
    systems: Tuple[str, ...] = ("baseline", "xmem")

    def config(self) -> SimConfig:
        """The machine configuration this point runs on."""
        cfg = scaled_config(self.scale)
        if self.llc_bytes is not None:
            cfg = cfg.with_llc(self.llc_bytes)
        if self.bandwidth != 1.0:
            cfg = cfg.with_bandwidth(self.bandwidth)
        return cfg


@dataclass
class SystemRun:
    """What one (point, system) execution measured."""

    system: str
    stats: EngineStats
    llc_miss_rate: float
    llc_accesses: int
    dram_reads: int
    dram_row_hit_rate: float

    @property
    def cycles(self) -> float:
        """Execution time in CPU cycles."""
        return self.stats.cycles


@dataclass
class PointResult:
    """All systems of one point, plus the point itself.

    ``stats`` and ``manifest`` are populated only by collecting runs
    (``run_point(..., collect=True)`` / ``sweep(collect_stats=True)``):
    ``stats`` maps system name -> full registry snapshot, ``manifest``
    records the provenance of the run (point, config, trace-cache
    outcome, ``REPRO_*`` env, per-phase wall time and peak RSS).
    """

    point: SimPoint
    runs: Dict[str, SystemRun]
    stats: Optional[Dict[str, Snapshot]] = None
    manifest: Optional[dict] = None

    def cycles(self, system: str) -> float:
        """Shorthand: one system's cycle count."""
        return self.runs[system].cycles


def run_point(point: SimPoint,
              cache: Optional[TraceCache] = None,
              collect: bool = False) -> PointResult:
    """Execute every system of one point from one shared recording.

    ``collect=True`` additionally snapshots each system's full stats
    registry and assembles a run manifest.  Collection happens strictly
    after each system's run completes, so it cannot perturb timing --
    collecting and plain runs produce identical ``SystemRun`` numbers.
    """
    timer = PhaseTimer() if collect else None
    cfg = point.config()
    if cache is None:
        cache = TraceCache()
    if timer is not None:
        timer.start("trace")
    recording, source = get_recording_with_source(
        point.kernel, point.n, point.tile, instrument=True, cache=cache)
    if timer is not None:
        timer.stop()
    runs: Dict[str, SystemRun] = {}
    snapshots: Optional[Dict[str, Snapshot]] = {} if collect else None
    for system in point.systems:
        try:
            build = SYSTEM_BUILDERS[system]
        except KeyError:
            raise ConfigurationError(
                f"unknown system {system!r}; "
                f"choices: {sorted(SYSTEM_BUILDERS)}"
            ) from None
        handle = build(cfg)
        if timer is not None:
            timer.start(f"run:{system}")
        try:
            trace = recording.replay(handle.xmemlib)
        except StaleRecordingError:
            # The recording no longer re-applies cleanly (library
            # semantics moved): regenerate once and refresh the caches.
            recording = record_trace(point.kernel, point.n, point.tile)
            source = "regenerated"
            key = trace_key(point.kernel, point.n, point.tile, True)
            cache.store(key, recording)
            _memo_put(key, recording)
            handle = build(cfg)
            trace = recording.replay(handle.xmemlib)
        stats = handle.run(trace)
        if timer is not None:
            timer.stop()
        runs[system] = SystemRun(
            system=system,
            stats=stats,
            llc_miss_rate=handle.llc.stats.miss_rate,
            llc_accesses=handle.llc.stats.accesses,
            dram_reads=handle.dram.stats.reads,
            dram_row_hit_rate=handle.dram.stats.row_hit_rate,
        )
        if snapshots is not None:
            snapshots[system] = handle.stats_snapshot()
    manifest = None
    if collect:
        manifest = {
            "schema": 1,
            "kind": "simpoint",
            "point": dataclasses.asdict(point),
            "config": dataclasses.asdict(cfg),
            "trace": {
                "key": trace_key(point.kernel, point.n, point.tile, True),
                "source": source,
                "format_version": TRACE_FORMAT_VERSION,
                # Which engine tier produced the stats: `repro diff`
                # flags cross-tier comparisons (an analytical-vs-exact
                # diff reports estimation error, not nondeterminism).
                "tier": resolve_engine_tier(),
                "cache_dir": (str(cache.root) if cache.root is not None
                              else None),
                "cache_hits": cache.hits,
                "cache_misses": cache.misses,
            },
            "env": collect_repro_env(),
            "phases": timer.phases,
        }
    return PointResult(point=point, runs=runs, stats=snapshots,
                       manifest=manifest)


def _run_point_collecting(point: SimPoint) -> PointResult:
    """Module-level ``collect=True`` wrapper (pickles into workers)."""
    return run_point(point, collect=True)


# ---------------------------------------------------------------------------
# Fan-out
# ---------------------------------------------------------------------------

def run_parallel(fn: Callable, items: Sequence,
                 jobs: Optional[int] = None) -> List:
    """Map ``fn`` over ``items`` with deterministic result ordering.

    ``fn`` must be a module-level callable and every item picklable.
    ``jobs`` resolves explicit argument -> ``REPRO_JOBS`` ->
    ``os.cpu_count()``; 1 means serial in-process execution (no pool,
    full tracebacks -- the debugging path).  Results always come back
    in item order, so parallel runs are bit-identical to serial ones.
    """
    items = list(items)
    if jobs is None:
        jobs = jobs_from_env()
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(jobs, len(items))
    chunksize = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def sweep(points: Sequence[SimPoint],
          jobs: Optional[int] = None,
          collect_stats: bool = False) -> List[PointResult]:
    """Run independent simulation points, fanned out over processes.

    ``collect_stats=True`` makes every point also return its registry
    snapshots and run manifest (see :func:`run_point`); pair with
    :func:`write_point_documents` to persist them.  Points may mix
    :class:`SimPoint`, :class:`ScenarioPoint`, and :class:`CorunPoint`
    freely -- dispatch is per point via :func:`run_any_point`.
    """
    fn = _run_any_collecting if collect_stats else run_any_point
    return run_parallel(fn, points, jobs=jobs)


# ---------------------------------------------------------------------------
# Stats/manifest documents
# ---------------------------------------------------------------------------

def point_document(result) -> dict:
    """The one-JSON-document form of a collecting point run
    (:class:`PointResult` or :class:`CorunResult`)."""
    if result.manifest is None or result.stats is None:
        raise ConfigurationError(
            "point_document needs a collect=True run "
            "(manifest/stats missing)"
        )
    return {"manifest": result.manifest, "stats": result.stats}


def point_document_name(index: int, result) -> str:
    """Deterministic per-point filename for a sweep's documents.

    Accepts :class:`PointResult` and :class:`CorunResult` (suite
    workload names are filename-safe identifiers, so a mix joins with
    ``+``; a ``scenario:`` tenant's colon becomes ``-``).  Scenario
    points name themselves by declared name plus hash prefix, so two
    specs sharing a name cannot collide in one sweep directory.
    """
    p = result.point
    if isinstance(p, CorunPoint):
        div = f"_d{p.footprint_div}" if p.footprint_div != 1 else ""
        mix = "+".join(t.replace(":", "-").replace("/", "-")
                       for t in p.tenants)
        return f"{index:03d}_corun_{mix}_a{p.accesses}{div}.json"
    if isinstance(p, ScenarioPoint):
        return (f"{index:03d}_scn_{p.name}"
                f"_{p.scenario_hash[:8]}.json")
    return f"{index:03d}_{p.kernel}_n{p.n}_t{p.tile}.json"


def write_point_documents(root: Path,
                          results: Sequence[PointResult]) -> List[Path]:
    """Write one manifest+stats JSON per collecting point under root.

    Filenames encode the sweep index and point identity, and keys are
    sorted, so two runs of the same sweep produce directly comparable
    trees (the ``repro diff`` determinism gate relies on this).
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for index, result in enumerate(results):
        path = root / point_document_name(index, result)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(point_document(result), fh, sort_keys=True,
                      indent=2)
            fh.write("\n")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Use-Case-2 points (Figures 7/8)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UC2Point:
    """One independent Use-Case-2 (workload, three-system) point.

    ``collect_stats`` makes each system's result carry its registry
    snapshot (``UseCase2Result.stats``).
    """

    workload: str
    accesses: Optional[int] = None
    pick_mapping: bool = False
    collect_stats: bool = False


def run_uc2_point(point: UC2Point):
    """All three Figure 7/8 systems for one workload.

    Returns the :func:`repro.sim.usecase2.run_figure7` dict
    (system name -> ``UseCase2Result``); everything in it is plain
    data, so results travel cleanly back from worker processes.
    """
    import dataclasses

    from repro.sim.usecase2 import run_figure7
    from repro.workloads.suite import BY_NAME

    try:
        workload = BY_NAME[point.workload]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {point.workload!r}"
        ) from None
    if point.accesses is not None:
        workload = dataclasses.replace(workload,
                                       accesses=point.accesses)
    return run_figure7(workload, pick_mapping=point.pick_mapping,
                       collect=point.collect_stats)


def uc2_sweep(points: Sequence[UC2Point],
              jobs: Optional[int] = None) -> List[dict]:
    """Run independent Use-Case-2 points, fanned out over processes."""
    return run_parallel(run_uc2_point, points, jobs=jobs)


# ---------------------------------------------------------------------------
# Scenario points (declarative workload specs; repro.scenarios)
# ---------------------------------------------------------------------------

def scenario_trace_key(scenario_hash: str) -> str:
    """Cache key of one compiled scenario recording.

    Shares :func:`trace_key`'s keyspace: the ``scenario:`` prefix
    cannot collide with a Polybench kernel or a ``suite:`` tenant, and
    the spec's content hash *is* the identity -- the n/tile slots
    carry nothing.
    """
    return trace_key(f"scenario:{scenario_hash}", 0, 0, True)


def get_scenario_recording_with_source(
        spec_json: str, cache: Optional[TraceCache] = None
) -> Tuple[TraceRecording, str]:
    """One compiled-scenario recording plus where it came from.

    ``spec_json`` is the canonical compact JSON of the spec (see
    :func:`repro.scenarios.spec.canonical_json`) -- a plain string so
    scenario points pickle cleanly into sweep workers.  The content
    hash keys all three cache layers, so identical specs share one
    compilation across processes and sessions.
    """
    from repro.scenarios.spec import compile_canonical, spec_hash

    canonical = json.loads(spec_json)
    key = scenario_trace_key(spec_hash(canonical))
    return _cached_recording(
        key, lambda: compile_canonical(canonical), cache)


@dataclass(frozen=True)
class ScenarioPoint:
    """One independent spec-defined simulation point.

    The mirror of :class:`SimPoint` with the kernel identity replaced
    by a canonical spec (as compact JSON, so the point stays plain
    picklable data).  Runs on the same machines, caches, manifests,
    and diff tooling.
    """

    spec_json: str
    scale: int = 32
    llc_bytes: Optional[int] = None
    bandwidth: float = 1.0
    systems: Tuple[str, ...] = ("baseline", "xmem")

    def canonical(self) -> dict:
        """The canonical spec dict (parsed on demand)."""
        return json.loads(self.spec_json)

    @property
    def name(self) -> str:
        """The spec's declared name."""
        return self.canonical()["name"]

    @property
    def scenario_hash(self) -> str:
        """The spec's 16-hex content hash."""
        from repro.scenarios.spec import spec_hash
        return spec_hash(self.canonical())

    def config(self) -> SimConfig:
        """The machine configuration this point runs on."""
        cfg = scaled_config(self.scale)
        if self.llc_bytes is not None:
            cfg = cfg.with_llc(self.llc_bytes)
        if self.bandwidth != 1.0:
            cfg = cfg.with_bandwidth(self.bandwidth)
        return cfg


def run_scenario_point(point: ScenarioPoint,
                       cache: Optional[TraceCache] = None,
                       collect: bool = False) -> PointResult:
    """Execute every system of one scenario point (see
    :func:`run_point`).

    The manifest's ``point`` block carries the scenario's name and
    content hash rather than the full spec (an import spec embeds the
    whole trace text); the ``scenario`` block records the provenance a
    reader needs to re-resolve it.
    """
    from repro.scenarios.spec import compile_canonical, spec_hash

    timer = PhaseTimer() if collect else None
    cfg = point.config()
    if cache is None:
        cache = TraceCache()
    canonical = point.canonical()
    scn_hash = spec_hash(canonical)
    key = scenario_trace_key(scn_hash)
    if timer is not None:
        timer.start("trace")
    recording, source = get_scenario_recording_with_source(
        point.spec_json, cache=cache)
    if timer is not None:
        timer.stop()
    runs: Dict[str, SystemRun] = {}
    snapshots: Optional[Dict[str, Snapshot]] = {} if collect else None
    for system in point.systems:
        try:
            build = SYSTEM_BUILDERS[system]
        except KeyError:
            raise ConfigurationError(
                f"unknown system {system!r}; "
                f"choices: {sorted(SYSTEM_BUILDERS)}"
            ) from None
        handle = build(cfg)
        if timer is not None:
            timer.start(f"run:{system}")
        try:
            trace = recording.replay(handle.xmemlib)
        except StaleRecordingError:
            # The cached compilation predates a library change:
            # recompile from the spec and refresh the caches.
            recording = compile_canonical(canonical)
            source = "regenerated"
            cache.store(key, recording)
            _memo_put(key, recording)
            handle = build(cfg)
            trace = recording.replay(handle.xmemlib)
        stats = handle.run(trace)
        if timer is not None:
            timer.stop()
        runs[system] = SystemRun(
            system=system,
            stats=stats,
            llc_miss_rate=handle.llc.stats.miss_rate,
            llc_accesses=handle.llc.stats.accesses,
            dram_reads=handle.dram.stats.reads,
            dram_row_hit_rate=handle.dram.stats.row_hit_rate,
        )
        if snapshots is not None:
            snapshots[system] = handle.stats_snapshot()
    manifest = None
    if collect:
        scenario_block = {
            "name": canonical["name"],
            "hash": scn_hash,
            "kind": canonical["kind"],
            "version": canonical["version"],
            "events": len(recording.packed),
            "setup_calls": len(recording.setup),
        }
        if canonical["kind"] == "import":
            scenario_block["format"] = canonical["format"]
            scenario_block["sha256"] = canonical["sha256"]
        manifest = {
            "schema": 1,
            "kind": "scenariopoint",
            "point": {
                "scenario": canonical["name"],
                "hash": scn_hash,
                "scale": point.scale,
                "llc_bytes": point.llc_bytes,
                "bandwidth": point.bandwidth,
                "systems": list(point.systems),
            },
            "config": dataclasses.asdict(cfg),
            "trace": {
                "key": key,
                "source": source,
                "format_version": TRACE_FORMAT_VERSION,
                "tier": resolve_engine_tier(),
                "cache_dir": (str(cache.root) if cache.root is not None
                              else None),
                "cache_hits": cache.hits,
                "cache_misses": cache.misses,
            },
            "scenario": scenario_block,
            "env": collect_repro_env(),
            "phases": timer.phases,
        }
    return PointResult(point=point, runs=runs, stats=snapshots,
                       manifest=manifest)


# ---------------------------------------------------------------------------
# Co-run points (multi-tenant co-location mixes)
# ---------------------------------------------------------------------------

#: Structure bases are page-aligned; the co-run engine adds the
#: per-core address-space offset on top.
PAGE_BYTES = 4096


def suite_trace_key(name: str, accesses: int,
                    footprint_div: int = 1) -> str:
    """Cache key of one suite-tenant recording.

    Shares :func:`trace_key`'s keyspace: the ``suite:`` prefix cannot
    collide with a Polybench kernel name, ``accesses`` rides in the
    ``n`` slot, and the footprint divisor in the ``tile`` slot (both
    are meaningless for suite streams).
    """
    return trace_key(f"suite:{name}", accesses, footprint_div, True)


def record_suite_trace(name: str, accesses: int,
                       footprint_div: int = 1) -> TraceRecording:
    """Walk one suite workload's access stream and pack it as a tenant.

    Suite workloads are the co-run engine's tenants.  Each structure
    becomes one atom whose expressed reuse is its access intensity, so
    the shared controller's global pin decision ranks every tenant's
    structures together; structures sit at page-aligned bases from
    virtual address 0 (per-application addresses -- the co-run system
    shifts each core into its own slice of the global space).  The
    atom_map/atom_activate XMemOps head the trace; baseline tenants
    replay the same recording with the side-table dropped
    (``packed.without_xmem()``).

    ``footprint_div`` shrinks every structure by the same factor
    (line-rounded, floor one page) -- the suite's footprints are sized
    for the DRAM-placement studies, so LLC-contention studies scale
    them down by the same discipline ``scaled_config`` applies to the
    caches.  Working sets then wrap within a few thousand accesses,
    which is what gives the shared LLC temporal reuse to protect.
    """
    from repro.workloads.suite import BY_NAME, LINE
    try:
        workload = BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown suite workload {name!r}"
        ) from None
    if footprint_div < 1:
        raise ConfigurationError(
            f"footprint_div must be >= 1: {footprint_div}")
    workload = dataclasses.replace(workload, accesses=accesses)
    if footprint_div > 1:
        workload = dataclasses.replace(workload, structures=tuple(
            dataclasses.replace(s, size_bytes=max(
                PAGE_BYTES,
                s.size_bytes // footprint_div // LINE * LINE))
            for s in workload.structures))
    recorder = SetupRecorder()
    builder = TraceBuilder()
    bases: Dict[str, int] = {}
    base = 0
    for s in workload.structures:
        bases[s.name] = base
        base += -(-s.size_bytes // PAGE_BYTES) * PAGE_BYTES
    for s in workload.structures:
        atom = recorder.create_atom(
            f"{workload.name}.{s.name}",
            pattern=s.pattern,
            stride_bytes=s.atom_stride,
            rw=s.expressed_rw,
            access_intensity=s.intensity,
            reuse=s.intensity,
        )
        builder.op(XMemOp("atom_map", atom, bases[s.name], s.size_bytes))
        builder.op(XMemOp("atom_activate", atom))
    for ev in workload.trace(bases):
        builder.access(ev.vaddr, ev.is_write, ev.work)
    return TraceRecording(
        kernel=f"suite:{name}", n=accesses, tile=0, instrumented=True,
        setup=recorder.log, packed=builder.build(),
    )


def get_suite_recording_with_source(
        name: str, accesses: int, footprint_div: int = 1,
        cache: Optional[TraceCache] = None
) -> Tuple[TraceRecording, str]:
    """One suite-tenant recording plus where it came from."""
    return _cached_recording(
        suite_trace_key(name, accesses, footprint_div),
        lambda: record_suite_trace(name, accesses, footprint_div),
        cache)


def _scenario_tenant(ref: str, accesses: int, cache: TraceCache
                     ) -> Tuple[TraceRecording, str, str]:
    """Resolve one ``scenario:<ref>`` co-run tenant.

    The full compiled trace is what the cache holds (keyed by the
    spec's content hash alone); the mix's ``accesses`` budget is
    applied in-memory via :meth:`PackedTrace.truncated`, so every
    budget shares one compilation.
    """
    from repro.scenarios import resolve
    from repro.scenarios.spec import compile_canonical, spec_hash

    canonical = resolve(ref)
    key = scenario_trace_key(spec_hash(canonical))
    recording, source = _cached_recording(
        key, lambda: compile_canonical(canonical), cache)
    try:
        apply_setup(XMemLib(), recording.setup)
    except StaleRecordingError:
        recording = compile_canonical(canonical)
        source = "regenerated"
        cache.store(key, recording)
        _memo_put(key, recording)
    packed = recording.packed.truncated(accesses)
    if packed is not recording.packed:
        recording = dataclasses.replace(recording, n=accesses,
                                        packed=packed)
    return recording, source, key


@dataclass(frozen=True)
class CorunPoint:
    """One independent multi-tenant co-location point.

    ``tenants`` names suite workloads, one per core, each truncated to
    ``accesses`` dense events.  ``modes`` selects the machines the mix
    runs on: ``baseline`` (no semantics anywhere) and/or ``xmem`` (the
    cores listed in ``xmem_tenants`` carry an XMemLib, so their
    structures become atoms the shared controller may pin against the
    other tenants).  Plain data; pickles cleanly into sweep workers.
    """

    tenants: Tuple[str, ...]
    accesses: int = 4000
    scale: int = 32
    xmem_tenants: Tuple[int, ...] = (0,)
    modes: Tuple[str, ...] = ("baseline", "xmem")
    #: Structure shrink factor (see :func:`record_suite_trace`).
    footprint_div: int = 1

    def config(self) -> SimConfig:
        """The machine configuration this mix runs on."""
        return scaled_config(self.scale)


@dataclass
class CorunResult:
    """Per-mode, per-core results of one co-run point.

    ``stats`` and ``manifest`` follow the :class:`PointResult`
    contract: populated only by collecting runs, with ``stats``
    mapping mode -> full registry snapshot and ``manifest`` recording
    per-tenant trace provenance -- so co-run stats documents flow
    through ``repro diff`` unchanged.
    """

    point: CorunPoint
    runs: Dict[str, List[CoreStats]]
    stats: Optional[Dict[str, Snapshot]] = None
    manifest: Optional[dict] = None

    def cycles(self, mode: str, core: int = 0) -> float:
        """Shorthand: one tenant's cycle count under one mode."""
        return self.runs[mode][core].cycles


def run_corun_point(point: CorunPoint,
                    cache: Optional[TraceCache] = None,
                    collect: bool = False) -> CorunResult:
    """Run one tenant mix under every requested mode.

    All modes replay the same per-tenant recordings: XMem tenants get
    the recorded atom setup re-applied on their core's library plus
    the full packed trace (XMemOps inline); every other tenant consumes
    the same columns with the side-table dropped.  Setup logs are
    validated against a throwaway library up front, so a stale cached
    recording is regenerated once, before any machine state exists.
    ``collect=True`` snapshots each mode's full stats registry and
    assembles a manifest, strictly after the runs -- collecting and
    plain runs produce identical :class:`CoreStats`.
    """
    if not point.tenants:
        raise ConfigurationError("a co-run point needs tenants")
    bad_modes = [m for m in point.modes if m not in ("baseline", "xmem")]
    if bad_modes:
        raise ConfigurationError(
            f"unknown co-run modes {bad_modes}; "
            f"choices: ('baseline', 'xmem')")
    out_of_range = [i for i in point.xmem_tenants
                    if not 0 <= i < len(point.tenants)]
    if out_of_range:
        raise ConfigurationError(
            f"xmem_tenants {out_of_range} outside the "
            f"{len(point.tenants)}-tenant mix")
    timer = PhaseTimer() if collect else None
    cfg = point.config()
    if cache is None:
        cache = TraceCache()
    if timer is not None:
        timer.start("trace")
    tenants: List[Tuple[TraceRecording, str]] = []
    tenant_info: List[Dict[str, str]] = []
    for name in point.tenants:
        if name.startswith("scenario:"):
            # A compiled spec as a tenant: full-trace cache key,
            # truncated in-memory to the mix's access budget.
            if point.footprint_div != 1:
                raise ConfigurationError(
                    f"footprint_div scales suite structures; scenario "
                    f"tenant {name!r} has a fixed declared footprint")
            recording, source, key = _scenario_tenant(
                name[len("scenario:"):], point.accesses, cache)
        else:
            key = suite_trace_key(name, point.accesses,
                                  point.footprint_div)
            recording, source = get_suite_recording_with_source(
                name, point.accesses, point.footprint_div, cache=cache)
            try:
                apply_setup(XMemLib(), recording.setup)
            except StaleRecordingError:
                recording = record_suite_trace(name, point.accesses,
                                               point.footprint_div)
                source = "regenerated"
                cache.store(key, recording)
                _memo_put(key, recording)
        tenants.append((recording, source))
        tenant_info.append({"workload": name, "key": key,
                            "source": source})
    if timer is not None:
        timer.stop()
    runs: Dict[str, List[CoreStats]] = {}
    snapshots: Optional[Dict[str, Snapshot]] = {} if collect else None
    for mode in point.modes:
        xmem = tuple(point.xmem_tenants) if mode == "xmem" else ()
        system = CorunSystem(cfg, len(point.tenants), xmem_cores=xmem)
        traces = []
        for core, (recording, _) in zip(system.cores, tenants):
            if core.xmemlib is not None:
                traces.append(recording.replay(core.xmemlib))
            else:
                traces.append(recording.packed.without_xmem())
        if timer is not None:
            timer.start(f"run:{mode}")
        runs[mode] = list(system.run(traces))
        if timer is not None:
            timer.stop()
        if snapshots is not None:
            snapshots[mode] = system.stats_snapshot()
    manifest = None
    if collect:
        manifest = {
            "schema": 1,
            "kind": "corunpoint",
            "point": dataclasses.asdict(point),
            "config": dataclasses.asdict(cfg),
            "trace": {
                # Which co-run engine produced the stats ("object" is
                # the legacy oracle, "packed" the heap-scheduled
                # interleaver); both are exact, so `repro diff` holds
                # cross-engine documents to zero deltas.
                "tier": corun_tier(),
                "format_version": TRACE_FORMAT_VERSION,
                "tenants": tenant_info,
                "cache_dir": (str(cache.root) if cache.root is not None
                              else None),
                "cache_hits": cache.hits,
                "cache_misses": cache.misses,
            },
            "env": collect_repro_env(),
            "phases": timer.phases,
        }
    return CorunResult(point=point, runs=runs, stats=snapshots,
                       manifest=manifest)


def _run_corun_collecting(point: CorunPoint) -> CorunResult:
    """Module-level ``collect=True`` wrapper (pickles into workers)."""
    return run_corun_point(point, collect=True)


def run_any_point(point, cache: Optional[TraceCache] = None,
                  collect: bool = False):
    """Execute one point of either kind (the serve job-queue adapter).

    ``repro serve`` queues :class:`SimPoint` and :class:`CorunPoint`
    work items through one bounded queue; this is the single dispatch
    its workers call.  Passing a fresh :class:`TraceCache` per request
    keeps the manifest's hit/miss provenance scoped to that request
    instead of accumulating across the server's lifetime.
    """
    if isinstance(point, CorunPoint):
        return run_corun_point(point, cache=cache, collect=collect)
    if isinstance(point, ScenarioPoint):
        return run_scenario_point(point, cache=cache, collect=collect)
    if isinstance(point, SimPoint):
        return run_point(point, cache=cache, collect=collect)
    raise ConfigurationError(
        f"not a runnable point: {type(point).__name__}")


def _run_any_collecting(point):
    """Module-level ``collect=True`` wrapper (pickles into workers)."""
    return run_any_point(point, collect=True)


def execute_point_job(point, cache_root: Optional[Path] = None,
                      cache_disabled: bool = False,
                      engine: Optional[str] = None) -> dict:
    """One serve pool job: run a point, return its JSON document.

    Module-level and argument-complete so it pickles into spawn-started
    worker processes (the serve process pool's counterpart of
    :func:`_run_any_collecting`).  ``engine`` overrides the engine tier
    for exactly this job by scoping ``REPRO_ENGINE`` around the run --
    safe because a pool worker executes one job at a time, and exactly
    what ``REPRO_ENGINE=<tier> repro sweep`` would do, so the manifest's
    ``trace.tier`` and ``env`` blocks come out the same.
    """
    if engine is not None:
        engine = resolve_engine_tier(engine)
    cache = TraceCache(cache_root)
    if cache_disabled:
        cache.root = None
    previous = os.environ.get("REPRO_ENGINE")
    try:
        if engine is not None:
            os.environ["REPRO_ENGINE"] = engine
        result = run_any_point(point, cache=cache, collect=True)
    finally:
        if engine is not None:
            if previous is None:
                os.environ.pop("REPRO_ENGINE", None)
            else:
                os.environ["REPRO_ENGINE"] = previous
    return point_document(result)


def corun_sweep(points: Sequence[CorunPoint],
                jobs: Optional[int] = None,
                collect_stats: bool = False) -> List[CorunResult]:
    """Run independent co-location mixes, fanned out over processes.

    Each worker replays the per-tenant recordings from the shared
    content-verified trace cache (one generation per tenant across the
    whole sweep, not per mix); results come back in point order, so
    parallel sweeps are bit-identical to serial ones.
    """
    fn = _run_corun_collecting if collect_stats else run_corun_point
    return run_parallel(fn, points, jobs=jobs)
