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
  Entries live in a :class:`repro.store.Store`: sha256-verified on
  load (corrupted or stale files are purged and silently regenerated,
  never replayed), written crash-consistently, and bounded in size.

* **One point protocol, one run context.**  The four point kinds
  (:class:`SimPoint`, :class:`ScenarioPoint`, :class:`CorunPoint`,
  :class:`UC2Point`) each implement ``run(ctx, collect)``, and
  :func:`run_point` / :func:`sweep` are the only entry points.  The
  frozen :class:`RunContext` (trace-cache root, ``REPRO_*``
  provenance) is resolved once at the CLI or serve
  boundary and passed down, into sweep workers too.

* **Process fan-out.**  :func:`sweep` (and the generic
  :func:`run_parallel`) distribute points over a
  ``ProcessPoolExecutor``.  The worker count comes from the
  ``REPRO_JOBS`` environment variable (default ``os.cpu_count()``);
  ``jobs=1`` runs serially in-process -- the debugging path.  Results
  are returned in submission order, so parallel output is
  bit-identical to serial output.

Environment knobs (read, never written):

* ``REPRO_JOBS``        -- worker processes for sweeps (default: all
  cores; ``1`` = serial in-process execution).
* ``REPRO_TRACE_CACHE`` -- trace cache directory; ``0``/``off``
  disables the on-disk layer (the in-memory layer still shares one
  generation across the systems of a point).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import threading
import time
import zlib
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.xmemlib import XMemLib
from repro.cpu.engine import EngineStats
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
from repro.store import Store, write_documents

#: Bump when the payload layout or trace semantics change; old cache
#: entries then key-miss instead of replaying stale streams.
#: v2: packed columnar payload (raw column bytes + XMemOp side-table)
#: replacing the v1 per-event tuple list.  v3: entries in the
#: verified :mod:`repro.store` format.
TRACE_FORMAT_VERSION = 3

#: The trace cache's size bound: ``TraceCache.store`` evicts the
#: oldest entries past it (an n=80 kernel entry is 0.2-0.4 MB).
TRACE_CACHE_LIMIT_BYTES = 1 << 30

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


def _kernel(name: object):
    """The Polybench kernel called ``name``, or a ConfigurationError."""
    from repro.workloads.polybench import KERNELS
    if not isinstance(name, str) or name not in KERNELS:
        raise ConfigurationError(
            f"unknown kernel {name!r}; choices: {sorted(KERNELS)}")
    return KERNELS[name]


def record_trace(kernel_name: str, n: int, tile: int) -> TraceRecording:
    """Walk a kernel's XMem-instrumented loop nest once and pack its
    trace (baseline machines drop the hints at replay)."""
    recorder = SetupRecorder()
    packed = _kernel(kernel_name).build_packed(n, tile, lib=recorder)
    return TraceRecording(kernel=kernel_name, n=n, tile=tile,
                          instrumented=True, setup=recorder.log,
                          packed=packed)


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
    """The on-disk layer: a :class:`repro.store.Store` of
    ``<key>.trace`` entries, each the zlib-compressed pickle of
    :meth:`TraceRecording.to_payload`.  ``load`` verifies: a corrupt,
    renamed or stale entry is purged and counts as a miss, never
    replayed.  ``store`` then sweeps dead writers' temp files and
    evicts the oldest entries past :data:`TRACE_CACHE_LIMIT_BYTES`.
    Concurrent sweep workers may share the directory.
    """

    def __init__(self, root: Optional[Path] = None,
                 disabled: bool = False) -> None:
        """``root`` None is :func:`default_cache_dir`; ``disabled``
        turns the on-disk layer off."""
        self.root = None if disabled else root or default_cache_dir()
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        """Whether an on-disk layer is configured."""
        return self.root is not None

    def _entries(self) -> Store:
        return Store(self.root, ".trace")

    def load(self, key: str) -> Optional[TraceRecording]:
        """The cached recording, or None (missing/corrupt/stale)."""
        if self.root is None:
            return None
        entries = self._entries()
        blob = entries.get(key)
        recording = None
        if blob is not None:
            try:
                recording = TraceRecording.from_payload(
                    pickle.loads(zlib.decompress(blob)))
            except StaleRecordingError:
                # Verified, but another platform's column width.
                entries.discard(key)
        self.hits += recording is not None
        self.misses += recording is None
        return recording

    def counters(self) -> Dict[str, int]:
        """StatGroup view of the cache's hit/miss counters."""
        return {"hits": self.hits, "misses": self.misses,
                "enabled": int(self.enabled)}

    def stat_groups(self):
        """StatGroup protocol (registers as ``trace_cache``)."""
        yield "trace_cache", self.counters

    def store(self, key: str, recording: TraceRecording) -> None:
        """Persist a recording; disk trouble only loses the entry."""
        if self.root is None:
            return
        # The columns compress well (regular address deltas, repeated
        # flag words); zlib is stdlib and decompression is a small
        # fraction of a cold trace walk.
        blob = zlib.compress(
            pickle.dumps(recording.to_payload(), protocol=4), 6)
        entries = self._entries()
        try:
            entries.put(key, blob)
            entries.sweep_tmp()
            entries.bound(TRACE_CACHE_LIMIT_BYTES)
        except OSError:
            pass


#: In-process memo of recently used recordings (shared across the
#: systems of a point and across points of the same kernel), and of
#: Use Case 2's virtual streams (:func:`repro.sim.usecase2.
#: virtual_stream`).  Small: recordings run to millions of events.
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


def fetch_recording(key: str, generate: Callable[[], TraceRecording],
                    cache: Optional[TraceCache]
                    ) -> Tuple[TraceRecording, str]:
    """Memo -> disk -> ``generate()``, with the provenance string.

    The source string lands in run manifests: ``memo`` (in-process),
    ``disk`` (trace-cache hit), ``generated`` (fresh walk), or
    ``regenerated``.  A disk entry whose setup log no longer re-applies
    to a fresh library predates a library change: it is regenerated
    and written back here, the one place a stale recording is
    replaced.  Memo entries need no such check -- each was generated
    or validated in this process.
    """
    with _MEMO_LOCK:
        recording = _MEMO.get(key)
    if recording is not None:
        return recording, "memo"
    if cache is None:
        cache = TraceCache()
    recording = cache.load(key)
    source = "disk" if recording is not None else "generated"
    if recording is not None:
        try:
            apply_setup(XMemLib(), recording.setup)
        except StaleRecordingError:
            recording, source = None, "regenerated"
    if recording is None:
        recording = generate()
        cache.store(key, recording)
    _memo_put(key, recording)
    return recording, source


def get_recording(kernel: str, n: int, tile: int,
                  cache: Optional[TraceCache] = None) -> TraceRecording:
    """One recording, via memo -> disk cache -> fresh generation."""
    return fetch_recording(*SimPoint(kernel, n, tile).trace_source(),
                           cache)[0]


# ---------------------------------------------------------------------------
# The run context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunContext:
    """What a run takes from its caller: resolved once, passed down.

    ``cache_root`` is the trace-cache directory (None: the on-disk
    layer is off); ``env`` is the ``REPRO_*`` provenance block that
    manifests record, as sorted pairs so the context stays immutable.
    Plain data, so it pickles into sweep and serve workers.
    """

    cache_root: Optional[Path]
    env: Tuple[Tuple[str, str], ...]

    @classmethod
    def from_env(cls, cache_root: Optional[Path] = None,
                 cache_disabled: bool = False) -> "RunContext":
        """The context this process's environment describes.

        ``cache_root`` overrides ``REPRO_TRACE_CACHE``;
        ``cache_disabled`` turns the on-disk layer off.
        """
        if cache_disabled:
            cache_root = None
        elif cache_root is None:
            cache_root = default_cache_dir()
        return cls(cache_root=cache_root,
                   env=tuple(sorted(collect_repro_env().items())))

    def trace_cache(self) -> TraceCache:
        """A fresh cache at this context's root.

        Fresh per run on purpose: the hit/miss counters that land in
        the manifest stay scoped to that run.
        """
        return TraceCache(self.cache_root,
                          disabled=self.cache_root is None)


def _manifest(kind: str, cfg: SimConfig, trace: dict, cache: TraceCache,
              ctx: RunContext, timer: PhaseTimer, **blocks) -> dict:
    """The run manifest every collecting point kind writes.

    ``trace`` gains the cache provenance; ``blocks`` holds what names
    the point (``point``, plus ``scenario`` for spec points).
    """
    trace.update(
        cache_dir=str(cache.root) if cache.root is not None else None,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )
    return {"schema": 1, "kind": kind, **blocks,
            "config": dataclasses.asdict(cfg), "trace": trace,
            "env": dict(ctx.env), "phases": timer.phases}


# ---------------------------------------------------------------------------
# Point checks: every point kind refuses itself at construction
# ---------------------------------------------------------------------------

def _positive_int(name: str, value: object) -> None:
    """Refuse anything but a positive int; a bool is no int here, as
    points take JSON from outside the program (``repro serve``)."""
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ConfigurationError(
            f"{name} must be a positive integer, got {value!r}")


def _names(name: str, values: object, choices, what: str) -> None:
    """Refuse ``values`` unless it is a non-empty tuple of ``choices``."""
    if not isinstance(values, tuple) or not values:
        raise ConfigurationError(
            f"{name} must be a non-empty tuple of names, got {values!r}")
    unknown = [v for v in values
               if not isinstance(v, str) or v not in choices]
    if unknown:
        raise ConfigurationError(
            f"unknown {what} {unknown[0]!r}; choices: {sorted(choices)}")


# ---------------------------------------------------------------------------
# Machine points: every system replays one recording
# ---------------------------------------------------------------------------

@dataclass
class SystemRun:
    """What one (point, system) execution measured."""

    system: str
    stats: EngineStats
    llc_miss_rate: float
    llc_accesses: int
    dram_reads: int
    dram_row_hit_rate: float
    dram_read_latency: float
    dram_write_latency: float

    @classmethod
    def of(cls, system: str, handle: SystemHandle,
           stats: EngineStats) -> "SystemRun":
        """The measurement of ``handle``'s finished run ``stats``."""
        llc, dram = handle.llc.stats, handle.dram.stats
        return cls(system=system, stats=stats,
                   llc_miss_rate=llc.miss_rate, llc_accesses=llc.accesses,
                   dram_reads=dram.reads,
                   dram_row_hit_rate=dram.row_hit_rate,
                   dram_read_latency=dram.avg_read_latency,
                   dram_write_latency=dram.avg_write_latency)

    @property
    def cycles(self) -> float:
        """Execution time in CPU cycles."""
        return self.stats.cycles


@dataclass
class PointResult:
    """What one point's run measured, plus the point itself.

    ``runs`` maps each machine the point compared -- a system, or a
    co-run mode -- to its measurement: a :class:`SystemRun`, or a
    co-run mode's per-core :class:`CoreStats` list.  ``stats`` and
    ``manifest`` are populated only by collecting runs
    (``run_point(..., collect=True)`` / ``sweep(collect_stats=True)``):
    ``stats`` maps the same names to full registry snapshots,
    ``manifest`` records the provenance of the run (point, config,
    trace-cache outcome, ``REPRO_*`` env, per-phase wall time and peak
    RSS).
    """

    point: object
    runs: Dict[str, object]
    stats: Optional[Dict[str, Snapshot]] = None
    manifest: Optional[dict] = None

    def cycles(self, system: str, core: int = 0) -> float:
        """Shorthand: one machine's cycle count (a co-run mode's: the
        cycle count of the tenant on ``core``)."""
        run = self.runs[system]
        return run[core].cycles if isinstance(run, list) else run.cycles


def _run_systems(systems: Sequence[str],
                 build: Callable[[str], Tuple[SystemHandle, object]],
                 timer: PhaseTimer, collect: bool
                 ) -> Tuple[Dict[str, SystemRun], Dict[str, Snapshot]]:
    """Run each system on the machine and trace ``build(system)``
    gives, one after the other: a later machine whose private levels
    equal an earlier one's replays its front-end.  Phase
    ``run:<system>`` times the build and the run.  Returns each
    :class:`SystemRun` and, with ``collect``, each registry snapshot,
    taken after the machine's run."""
    runs: Dict[str, SystemRun] = {}
    snapshots: Dict[str, Snapshot] = {}
    for system in systems:
        t0 = time.perf_counter()
        handle, trace = build(system)
        stats = handle.run(trace)
        timer.record(f"run:{system}", time.perf_counter() - t0)
        runs[system] = SystemRun.of(system, handle, stats)
        if collect:
            snapshots[system] = handle.stats_snapshot()
    return runs, snapshots


class _MachinePoint:
    """What :class:`SimPoint` and :class:`ScenarioPoint` share: every
    system of the point replays one recording on one configuration.

    A subclass names its recording (``trace_source``) and may override
    the manifest blocks that identify it (``_describe``).  Construction
    checks the machine fields, and that every cache of ``config()`` can
    be built, without building a machine.
    """

    #: The fields ``repro serve`` lets a run set on a scenario's point.
    KNOBS = ("scale", "llc_bytes", "bandwidth", "systems")

    def __post_init__(self) -> None:
        _positive_int("scale", self.scale)
        if self.llc_bytes is not None:
            _positive_int("llc_bytes", self.llc_bytes)
        if (isinstance(self.bandwidth, bool)
                or not isinstance(self.bandwidth, (int, float))
                or not self.bandwidth > 0):
            raise ConfigurationError(
                f"bandwidth must be a positive number, "
                f"got {self.bandwidth!r}")
        object.__setattr__(self, "bandwidth", float(self.bandwidth))
        _names("systems", self.systems, SYSTEM_BUILDERS, "system")
        self.config().check_geometry()

    def config(self) -> SimConfig:
        """The machine configuration this point runs on."""
        cfg = scaled_config(self.scale)
        if self.llc_bytes is not None:
            cfg = cfg.with_llc(self.llc_bytes)
        if self.bandwidth != 1.0:
            cfg = cfg.with_bandwidth(self.bandwidth)
        return cfg

    def _describe(self, recording: TraceRecording) -> dict:
        return {"point": dataclasses.asdict(self)}

    def run(self, ctx: RunContext, collect: bool = False,
            cache: Optional[TraceCache] = None) -> PointResult:
        """Execute every system of this point from one shared recording.

        ``collect=True`` additionally snapshots each system's full
        stats registry and assembles a run manifest.  Collection
        happens strictly after each system's run completes, so it
        cannot perturb timing -- collecting and plain runs produce
        identical ``SystemRun`` numbers.
        """
        if cache is None:
            cache = ctx.trace_cache()
        cfg = self.config()
        key, generate = self.trace_source()
        timer = PhaseTimer()
        timer.start("trace")
        recording, source = fetch_recording(key, generate, cache)
        timer.stop()

        def build(system):
            handle = SYSTEM_BUILDERS[system](cfg)
            return handle, recording.replay(handle.xmemlib)

        runs, snapshots = _run_systems(self.systems, build, timer, collect)
        if not collect:
            return PointResult(point=self, runs=runs)
        trace = {
            "key": key,
            "source": source,
            "format_version": TRACE_FORMAT_VERSION,
            # One exact engine; the field stays for document
            # compatibility.
            "tier": "packed",
        }
        manifest = _manifest(self.KIND, cfg, trace, cache, ctx, timer,
                             **self._describe(recording))
        return PointResult(point=self, runs=runs, stats=snapshots,
                           manifest=manifest)


@dataclass(frozen=True)
class SimPoint(_MachinePoint):
    """One independent Use-Case-1 simulation point.

    Everything here is plain data so points pickle cleanly into worker
    processes.  ``systems`` selects which machines to compare (any of
    ``baseline``/``xmem``/``xmem-pref``); all of them replay the same
    recording.
    """

    KIND = "simpoint"

    kernel: str
    n: int
    tile: int
    scale: int = 32
    llc_bytes: Optional[int] = None
    bandwidth: float = 1.0
    systems: Tuple[str, ...] = ("baseline", "xmem")

    def __post_init__(self) -> None:
        _kernel(self.kernel)
        _positive_int("n", self.n)
        _positive_int("tile", self.tile)
        super().__post_init__()

    def trace_source(self) -> Tuple[str, Callable[[], TraceRecording]]:
        """The recording's cache key and its generator."""
        return (trace_key(self.kernel, self.n, self.tile, True),
                lambda: record_trace(self.kernel, self.n, self.tile))

    def document_name(self, index: int) -> str:
        """This point's stats-document filename in a sweep."""
        return f"{index:03d}_{self.kernel}_n{self.n}_t{self.tile}.json"


def scenario_trace_key(scenario_hash: str) -> str:
    """Cache key of one compiled scenario recording.

    Shares :func:`trace_key`'s keyspace: the ``scenario:`` prefix
    cannot collide with a Polybench kernel or a ``suite:`` tenant, and
    the spec's content hash *is* the identity -- the n/tile slots
    carry nothing.
    """
    return trace_key(f"scenario:{scenario_hash}", 0, 0, True)


@dataclass(frozen=True)
class ScenarioPoint(_MachinePoint):
    """One independent spec-defined simulation point.

    The mirror of :class:`SimPoint` with the kernel identity replaced
    by a canonical spec (as compact JSON, so the point stays plain
    picklable data; canonicalizing checked the spec).  Runs on the
    same machines, caches, manifests, and diff tooling.  The manifest's ``point`` block carries the
    scenario's name and content hash rather than the full spec (an
    import spec embeds the whole trace text); the ``scenario`` block
    records the provenance a reader needs to re-resolve it.
    """

    KIND = "scenariopoint"

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

    def trace_source(self) -> Tuple[str, Callable[[], TraceRecording]]:
        """The compilation's cache key and its generator.

        The content hash keys all three cache layers, so identical
        specs share one compilation across processes and sessions.
        """
        from repro.scenarios.spec import compile_canonical, spec_hash
        canonical = self.canonical()
        return (scenario_trace_key(spec_hash(canonical)),
                lambda: compile_canonical(canonical))

    def _describe(self, recording: TraceRecording) -> dict:
        canonical = self.canonical()
        scn_hash = self.scenario_hash
        scenario = {
            "name": canonical["name"],
            "hash": scn_hash,
            "kind": canonical["kind"],
            "version": canonical["version"],
            "events": len(recording.packed),
            "setup_calls": len(recording.setup),
        }
        if canonical["kind"] == "import":
            scenario["format"] = canonical["format"]
            scenario["sha256"] = canonical["sha256"]
        point = {
            "scenario": canonical["name"],
            "hash": scn_hash,
            "scale": self.scale,
            "llc_bytes": self.llc_bytes,
            "bandwidth": self.bandwidth,
            "systems": list(self.systems),
        }
        return {"point": point, "scenario": scenario}

    def document_name(self, index: int) -> str:
        """Declared name plus hash prefix, so two specs sharing a name
        cannot collide in one sweep directory."""
        return (f"{index:03d}_scn_{self.name}"
                f"_{self.scenario_hash[:8]}.json")


# ---------------------------------------------------------------------------
# Co-run points (multi-tenant co-location mixes)
# ---------------------------------------------------------------------------

#: Structure bases are page-aligned; the co-run engine adds the
#: per-core address-space offset on top.
PAGE_BYTES = 4096


def _suite_names(names: Sequence[object]) -> None:
    """Refuse any name that is not a suite catalog workload."""
    from repro.workloads.suite import BY_NAME
    unknown = [n for n in names if not isinstance(n, str) or n not in BY_NAME]
    if unknown:
        raise ConfigurationError(
            f"unknown workloads {unknown}; choices: {sorted(BY_NAME)}")


def _suite_workload(name: str, accesses: Optional[int]):
    """A suite catalog entry by name (the point naming it checked the
    name), with its access budget set (``None`` keeps the catalog's)."""
    from repro.workloads.suite import BY_NAME
    workload = BY_NAME[name]
    if accesses is None:
        return workload
    return dataclasses.replace(workload, accesses=accesses)


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
    from repro.workloads.suite import LINE
    workload = _suite_workload(name, accesses)
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
    workload.pack_into(builder, bases)
    return TraceRecording(
        kernel=f"suite:{name}", n=accesses, tile=0, instrumented=True,
        setup=recorder.log, packed=builder.build(),
    )


def suite_trace_source(name: str, accesses: int, footprint_div: int = 1
                       ) -> Tuple[str, Callable[[], TraceRecording]]:
    """One suite tenant's cache key and its generator.

    The key shares :func:`trace_key`'s keyspace: the ``suite:`` prefix
    cannot collide with a Polybench kernel name, ``accesses`` rides in
    the ``n`` slot, and the footprint divisor in the ``tile`` slot
    (both are meaningless for suite streams).
    """
    return (trace_key(f"suite:{name}", accesses, footprint_div, True),
            lambda: record_suite_trace(name, accesses, footprint_div))


@dataclass(frozen=True)
class CorunPoint:
    """One independent multi-tenant co-location point.

    ``tenants`` names suite workloads, one per core, each truncated to
    ``accesses`` dense events.  ``modes`` selects the machines the mix
    runs on: ``baseline`` (no semantics anywhere) and/or ``xmem`` (the
    cores listed in ``xmem_tenants`` carry an XMemLib, so their
    structures become atoms the shared controller may pin against the
    other tenants).  A ``scenario:<ref>`` tenant names a spec instead
    of a suite workload.  Construction checks every field, resolves
    every scenario tenant, and checks that the caches can be built.
    Plain data; pickles cleanly into sweep workers.
    """

    KIND = "corunpoint"
    #: The fields ``repro serve`` lets a run set on a scenario's point.
    KNOBS = ("scale", "xmem_tenants", "modes")

    tenants: Tuple[str, ...]
    accesses: int = 4000
    scale: int = 32
    xmem_tenants: Tuple[int, ...] = (0,)
    modes: Tuple[str, ...] = ("baseline", "xmem")
    #: Structure shrink factor (see :func:`record_suite_trace`).
    footprint_div: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.tenants, tuple) or not self.tenants:
            raise ConfigurationError(
                f"tenants must be a non-empty tuple of names, "
                f"got {self.tenants!r}")
        scenarios = [t for t in self.tenants
                     if isinstance(t, str) and t.startswith("scenario:")]
        _suite_names([t for t in self.tenants if t not in scenarios])
        _positive_int("accesses", self.accesses)
        _positive_int("scale", self.scale)
        _positive_int("footprint_div", self.footprint_div)
        if scenarios and self.footprint_div != 1:
            raise ConfigurationError(
                f"footprint_div scales suite structures; scenario "
                f"tenants {scenarios} have fixed declared footprints")
        for tenant in scenarios:
            from repro.scenarios import resolve
            try:
                resolve(tenant[len("scenario:"):])
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"bad scenario tenant {tenant!r}: {exc}") from None
        _names("modes", self.modes, ("baseline", "xmem"), "co-run mode")
        if not isinstance(self.xmem_tenants, tuple) or any(
                isinstance(i, bool) or not isinstance(i, int)
                or not 0 <= i < len(self.tenants)
                for i in self.xmem_tenants):
            raise ConfigurationError(
                f"xmem_tenants {self.xmem_tenants!r} must be core "
                f"indices, none outside the {len(self.tenants)}-tenant "
                f"mix")
        self.config().check_geometry()

    def config(self) -> SimConfig:
        """The machine configuration this mix runs on."""
        return scaled_config(self.scale)

    def document_name(self, index: int) -> str:
        """Suite workload names are filename-safe identifiers, so a
        mix joins with ``+``; a ``scenario:`` tenant's colon becomes
        ``-``."""
        div = f"_d{self.footprint_div}" if self.footprint_div != 1 else ""
        mix = "+".join(t.replace(":", "-").replace("/", "-")
                       for t in self.tenants)
        return f"{index:03d}_corun_{mix}_a{self.accesses}{div}.json"

    def tenant_source(self, name: str
                      ) -> Tuple[str, Callable[[], TraceRecording]]:
        """One tenant's cache key and its generator.

        A ``scenario:<ref>`` tenant's cache entry is the full compiled
        trace (keyed by the spec's content hash alone); :meth:`_tenant`
        applies the mix's ``accesses`` budget in memory, so every
        budget shares one compilation.
        """
        if not name.startswith("scenario:"):
            return suite_trace_source(name, self.accesses,
                                      self.footprint_div)
        from repro.scenarios import resolve
        from repro.scenarios.spec import canonical_json
        return ScenarioPoint(canonical_json(
            resolve(name[len("scenario:"):]))).trace_source()

    def _tenant(self, name: str, cache: TraceCache
                ) -> Tuple[TraceRecording, str, str]:
        """One tenant's recording, its provenance and its cache key."""
        key, generate = self.tenant_source(name)
        recording, source = fetch_recording(key, generate, cache)
        if name.startswith("scenario:"):
            packed = recording.packed.truncated(self.accesses)
            if packed is not recording.packed:
                recording = dataclasses.replace(
                    recording, n=self.accesses, packed=packed)
        return recording, source, key

    def run(self, ctx: RunContext, collect: bool = False,
            cache: Optional[TraceCache] = None) -> PointResult:
        """Run this tenant mix under every requested mode.

        All modes replay the same per-tenant recordings: XMem tenants
        get the recorded atom setup re-applied on their core's library
        plus the full packed trace (XMemOps inline); every other tenant
        consumes the same columns with the side-table dropped.
        ``collect=True`` snapshots each mode's full stats registry and
        assembles a manifest, strictly after the runs -- collecting and
        plain runs produce identical :class:`CoreStats`.
        """
        if cache is None:
            cache = ctx.trace_cache()
        cfg = self.config()
        timer = PhaseTimer()
        timer.start("trace")
        tenants = [self._tenant(name, cache) for name in self.tenants]
        timer.stop()
        runs: Dict[str, List[CoreStats]] = {}
        snapshots: Dict[str, Snapshot] = {}
        for mode in self.modes:
            xmem = tuple(self.xmem_tenants) if mode == "xmem" else ()
            system = CorunSystem(cfg, len(self.tenants), xmem_cores=xmem)
            traces = [recording.replay(core.xmemlib)
                      if core.xmemlib is not None
                      else recording.packed.without_xmem()
                      for core, (recording, _, _)
                      in zip(system.cores, tenants)]
            timer.start(f"run:{mode}")
            runs[mode] = list(system.run(traces))
            timer.stop()
            if collect:
                snapshots[mode] = system.stats_snapshot()
        if not collect:
            return PointResult(point=self, runs=runs)
        trace = {
            "tier": "packed",
            "format_version": TRACE_FORMAT_VERSION,
            "tenants": [{"workload": name, "key": key, "source": source}
                        for name, (_, source, key)
                        in zip(self.tenants, tenants)],
        }
        manifest = _manifest(self.KIND, cfg, trace, cache, ctx, timer,
                             point=dataclasses.asdict(self))
        return PointResult(point=self, runs=runs, stats=snapshots,
                           manifest=manifest)


# ---------------------------------------------------------------------------
# Use-Case-2 points (Figures 7/8)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UC2Point:
    """One independent Use-Case-2 (workload, three-system) point.

    ``accesses`` truncates the suite workload's stream (None keeps the
    catalog's); ``pick_mapping`` probes the baseline's best controller
    mapping (:func:`repro.sim.usecase2.pick_baseline_mapping`) instead
    of holding :data:`~repro.sim.usecase2.XMEM_MAPPING` fixed.
    """

    KIND = "uc2point"

    workload: str
    accesses: Optional[int] = None
    pick_mapping: bool = False

    def __post_init__(self) -> None:
        _suite_names((self.workload,))
        if self.accesses is not None:
            _positive_int("accesses", self.accesses)
        if not isinstance(self.pick_mapping, bool):
            raise ConfigurationError(
                f"pick_mapping must be a bool, got {self.pick_mapping!r}")

    def document_name(self, index: int) -> str:
        """This point's stats-document filename in a sweep."""
        budget = "" if self.accesses is None else f"_a{self.accesses}"
        pick = "_pick" if self.pick_mapping else ""
        return f"{index:03d}_uc2_{self.workload}{budget}{pick}.json"

    def run(self, ctx: RunContext, collect: bool = False,
            cache: Optional[TraceCache] = None) -> PointResult:
        """All three Figure 7/8 systems for this workload, built by
        :func:`repro.sim.usecase2.build_systems` and run one after the
        other: ``ideal`` replays ``baseline``'s front-end.  The
        manifest adds each system's mapping and the xmem placement
        report.  Streams are generated in place: ``cache`` only names
        its root in the manifest.
        """
        from repro.sim import usecase2
        workload = _suite_workload(self.workload, self.accesses)
        if cache is None:
            cache = ctx.trace_cache()
        timer = PhaseTimer()
        mapping = usecase2.XMEM_MAPPING
        if self.pick_mapping:
            timer.start("mapping")
            mapping = usecase2.pick_baseline_mapping(workload)
        timer.start("trace")
        handles, traces, mappings, report = usecase2.build_systems(
            workload, usecase2.SYSTEMS, mapping)
        timer.stop()
        machines = dict(zip(usecase2.SYSTEMS, zip(handles, traces)))
        runs, snapshots = _run_systems(usecase2.SYSTEMS, machines.get,
                                       timer, collect)
        if not collect:
            return PointResult(point=self, runs=runs)
        trace = {"tier": "packed", "source": "generated"}
        manifest = _manifest(self.KIND, usecase2.usecase2_config(), trace,
                             cache, ctx, timer,
                             point=dataclasses.asdict(self),
                             mappings=mappings, placement=report)
        return PointResult(point=self, runs=runs, stats=snapshots,
                           manifest=manifest)


# ---------------------------------------------------------------------------
# Running points
# ---------------------------------------------------------------------------

#: The point kinds :func:`run_point` and :func:`sweep` accept.
POINT_KINDS = (SimPoint, ScenarioPoint, CorunPoint, UC2Point)


def run_point(point, cache: Optional[TraceCache] = None,
              collect: bool = False, ctx: Optional[RunContext] = None):
    """Execute one point of any kind; the single per-point entry.

    ``ctx`` defaults to :meth:`RunContext.from_env`.  ``cache``
    defaults to a fresh cache at the context's root; ``repro serve``
    passes a fresh one per request so the manifest's hit/miss
    provenance stays scoped to that request.  ``collect=True``
    snapshots every machine's stats and assembles the run manifest
    (:func:`point_document` turns the result into one JSON document).
    """
    if not isinstance(point, POINT_KINDS):
        raise ConfigurationError(
            f"not a runnable point: {type(point).__name__}")
    if ctx is None:
        ctx = RunContext.from_env()
    return point.run(ctx, collect=collect, cache=cache)


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


def sweep(points: Sequence, jobs: Optional[int] = None,
          collect_stats: bool = False,
          ctx: Optional[RunContext] = None) -> List:
    """Run independent points of any kinds, fanned out over processes.

    The context is resolved once, here in the parent, and pickled into
    every worker with its points.  ``collect_stats=True`` makes every
    point also return its registry snapshots and run manifest (see
    :func:`run_point`); pair with :func:`write_point_documents` to
    persist them.
    """
    if ctx is None:
        ctx = RunContext.from_env()
    return run_parallel(
        functools.partial(run_point, collect=collect_stats, ctx=ctx),
        points, jobs=jobs)


def execute_point_job(point, cache_root: Optional[Path] = None,
                      cache_disabled: bool = False) -> dict:
    """One serve job: run a point, return its JSON document.

    Module-level and argument-complete so it pickles into spawn-started
    pool workers; the thread executor calls it in-process.
    """
    ctx = RunContext.from_env(cache_root=cache_root,
                              cache_disabled=cache_disabled)
    return point_document(run_point(point, collect=True, ctx=ctx))


# ---------------------------------------------------------------------------
# Stats/manifest documents
# ---------------------------------------------------------------------------

def point_document(result: PointResult) -> dict:
    """The one-JSON-document form of a collecting point run."""
    if result.manifest is None or result.stats is None:
        raise ConfigurationError(
            "point_document needs a collect=True run "
            "(manifest/stats missing)"
        )
    return {"manifest": result.manifest, "stats": result.stats}


def write_point_documents(root: Path, results: Sequence) -> List[Path]:
    """Write one manifest+stats JSON per collecting point under root.

    Filenames come from each point's ``document_name`` (sweep index
    plus point identity), and the bytes are
    :func:`repro.store.dump_document`'s, so two runs of the same sweep
    produce directly comparable trees (the ``repro diff`` determinism
    gate relies on this).
    """
    return write_documents(root, [
        (result.point.document_name(index), point_document(result))
        for index, result in enumerate(results)])
