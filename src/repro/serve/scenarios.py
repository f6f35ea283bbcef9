"""Scenario phase of the serve split: content-hashed trace + setup log.

A *scenario* is the expensive, cacheable half of a simulation request:
one recorded memory trace (packed columns + XMem setup log) identified
by a content hash of its normalized spec.  Building a scenario walks
the workload once -- through the existing memo / disk
:class:`~repro.sim.runner.TraceCache` layers -- after which any number
of cheap parameterized *runs* replay it (see :mod:`repro.serve.jobs`).
This mirrors the paper's own split between semantic registration (atom
setup, once) and use (every access), lifted to service granularity.

Three scenario kinds are accepted:

* ``kernel`` -- a Polybench kernel invocation ``(kernel, n, tile)``;
  runs against it are :class:`~repro.sim.runner.SimPoint` sweeps.
* ``suite``  -- a suite-catalog workload ``(workload, accesses,
  footprint_div)`` recorded as a co-run tenant; runs against it are
  one-tenant :class:`~repro.sim.runner.CorunPoint` mixes.
* ``spec``   -- a declarative :mod:`repro.scenarios` workload/import
  spec, inlined in the request body (the server never reads
  server-side paths); runs against it are
  :class:`~repro.sim.runner.ScenarioPoint` sweeps.

Bodies without an explicit ``kind`` are inferred from their
distinguishing keys (``kernel``/``workload``/``spec``/``phases``/
``format``); a body matching none of them is rejected with a 400
rather than half-parsed against the kernel schema.

Concurrent identical ``POST /v1/scenarios`` requests share one build:
the first requester generates, the rest park on an event and reuse the
result (the ``scenarios_deduped`` counter in ``/debug/state`` counts
the parked requests).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

from repro.core.errors import ConfigurationError
from repro.sim.runner import (
    CorunPoint,
    ScenarioPoint,
    SimPoint,
    TraceCache,
    fetch_recording,
)

#: How long a parked duplicate request waits for the in-flight build.
BUILD_WAIT_S = 300.0


class ScenarioBuildError(Exception):
    """A scenario build failed (the waiting duplicates get this too)."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One normalized scenario request: its identity point (see the
    module docstring), with the default run knobs.  The point checked
    itself when it was built, names the recording, and is what every
    run against the scenario configures
    (:func:`repro.serve.jobs.normalize_config`)."""

    point: object

    @classmethod
    def from_request(cls, body: object) -> "ScenarioSpec":
        """Validate and normalize one request body (raises
        :class:`ConfigurationError` -- an HTTP 400 -- on anything
        malformed)."""
        if not isinstance(body, dict):
            raise ConfigurationError(
                f"scenario request must be a JSON object, "
                f"got {type(body).__name__}")
        kind = body.get("kind")
        if kind is None:
            # Infer from the distinguishing keys; a body matching none
            # of them is rejected outright instead of half-parsing
            # against the kernel schema (which used to turn a typo'd
            # spec body into a baffling "unknown kernel None").
            if ("spec" in body or "phases" in body
                    or "format" in body):
                kind = "spec"
            elif "workload" in body:
                kind = "suite"
            elif "kernel" in body:
                kind = "kernel"
            else:
                raise ConfigurationError(
                    "cannot infer scenario kind: give 'kind' "
                    "explicitly, or one of the distinguishing keys "
                    "'kernel' / 'workload' / 'spec' / 'phases' / "
                    "'format'")
        elif kind in ("workload", "import"):
            # A repro.scenarios spec body pasted in directly, its own
            # kind field intact.
            kind = "spec"
        if kind == "spec":
            from repro.scenarios.spec import (
                canonical_json,
                canonicalize,
            )
            if "spec" in body:
                _known_keys(body, "spec", {"kind", "spec"})
                raw = body["spec"]
            else:
                # The spec fields inline in the scenario body.
                raw = {k: v for k, v in body.items() if k != "kind"}
            # canonicalize raises ScenarioError (a ConfigurationError
            # subclass) on unknown fields at any level -> HTTP 400.
            return cls(ScenarioPoint(canonical_json(canonicalize(raw))))
        if kind == "kernel":
            _known_keys(body, "kernel", {"kind", "kernel", "n", "tile"})
            n = body.get("n", 96)
            return cls(SimPoint(body.get("kernel"), n,
                                body.get("tile", n)))
        if kind == "suite":
            _known_keys(body, "suite",
                        {"kind", "workload", "accesses", "footprint_div"})
            workload = body.get("workload")
            # A scenario tenant would resolve a server-side path.
            if isinstance(workload, str) \
                    and workload.startswith("scenario:"):
                raise ConfigurationError(
                    f"a suite scenario names a suite workload, "
                    f"got {workload!r}")
            sizes = {k: body[k] for k in ("accesses", "footprint_div")
                     if k in body}
            return cls(CorunPoint((workload,), **sizes))
        raise ConfigurationError(
            f"unknown scenario kind {kind!r}; "
            f"choices: kernel, suite, spec")

    @property
    def kind(self) -> str:
        """``kernel``, ``suite`` or ``spec``."""
        return _KINDS[type(self.point)]

    def canonical(self) -> Dict[str, object]:
        """The normalized, kind-specific spec (what gets hashed)."""
        point = self.point
        if self.kind == "spec":
            return point.canonical()
        if self.kind == "kernel":
            return {"kind": "kernel", "kernel": point.kernel,
                    "n": point.n, "tile": point.tile}
        return {"kind": "suite", "workload": point.tenants[0],
                "accesses": point.accesses,
                "footprint_div": point.footprint_div}

    def display(self) -> Dict[str, object]:
        """The canonical spec, safe for listings.

        An import spec's canonical form embeds the whole trace text;
        the scenario-listing endpoints replace it with a size
        placeholder (the sha256 stays, so provenance is intact).
        """
        canonical = self.canonical()
        if self.kind == "spec" and canonical.get("kind") == "import":
            text = canonical["text"]
            canonical = dict(canonical)
            canonical["text"] = f"<{len(text)} chars inlined>"
        return canonical

    @property
    def scenario_hash(self) -> str:
        """Content hash identifying this scenario (16 hex chars)."""
        payload = json.dumps(self.canonical(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def trace_source(self):
        """The recording's cache key and generator: the same hook the
        runs against this scenario use, so a build warms their
        caches."""
        if self.kind == "suite":
            return self.point.tenant_source(self.point.tenants[0])
        return self.point.trace_source()

    @property
    def trace_cache_key(self) -> str:
        """The underlying trace-cache key the build populates."""
        return self.trace_source()[0]

    def build(self, cache: TraceCache):
        """Generate (or fetch) the recording; returns
        ``(recording, source)``."""
        return fetch_recording(*self.trace_source(), cache)


#: Each scenario kind by the type of its identity point.
_KINDS = {SimPoint: "kernel", CorunPoint: "suite", ScenarioPoint: "spec"}


def _known_keys(body: Dict[str, object], kind: str,
                allowed: Set[str]) -> None:
    unknown = sorted(set(body) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown {kind}-scenario keys {unknown}; "
            f"allowed: {sorted(allowed)}")


@dataclass
class ScenarioEntry:
    """Metadata of one built scenario.

    Deliberately does *not* hold the recording itself: recordings run
    to millions of events and live in the bounded in-process memo plus
    the on-disk trace cache.  Holding them here would reintroduce the
    unbounded-RSS bug class this PR's sweep fixes.
    """

    spec: ScenarioSpec
    hash: str
    trace_key: str
    source: str
    events: int
    setup_calls: int
    build_wall_s: float
    created_at: float
    cache_counters: Dict[str, int]

    def summary(self) -> Dict[str, object]:
        """The JSON view returned by the scenario endpoints."""
        return {
            "scenario": self.hash,
            "spec": self.spec.display(),
            "trace": {
                "key": self.trace_key,
                "source": self.source,
                "events": self.events,
                "setup_calls": self.setup_calls,
                "cache": dict(self.cache_counters),
            },
            "build_wall_s": round(self.build_wall_s, 6),
            "created_at": self.created_at,
        }


def scenario_record(entry: ScenarioEntry) -> Dict[str, object]:
    """The workspace persistence form of one built scenario.

    ``canonical`` is the full normalized spec (import specs keep their
    inlined trace text -- :meth:`ScenarioSpec.display` would truncate
    it), so :func:`entry_from_record` can round-trip the record back
    through :meth:`ScenarioSpec.from_request` after a restart.
    """
    return {
        "scenario": entry.hash,
        "canonical": entry.spec.canonical(),
        "trace_key": entry.trace_key,
        "source": entry.source,
        "events": entry.events,
        "setup_calls": entry.setup_calls,
        "build_wall_s": entry.build_wall_s,
        "created_at": entry.created_at,
        "cache_counters": dict(entry.cache_counters),
    }


def entry_from_record(record: Dict[str, object]
                      ) -> Optional[ScenarioEntry]:
    """Rebuild a :class:`ScenarioEntry` from its workspace record.

    Returns None -- never raises -- on anything that does not round-trip
    to the recorded hash: a stale or hand-edited record must not keep a
    server from booting, and must not register under a hash its spec
    no longer produces.
    """
    try:
        spec = ScenarioSpec.from_request(record["canonical"])
        if spec.scenario_hash != record["scenario"]:
            return None
        return ScenarioEntry(
            spec=spec,
            hash=spec.scenario_hash,
            trace_key=spec.trace_cache_key,
            source="workspace",
            events=int(record["events"]),
            setup_calls=int(record["setup_calls"]),
            build_wall_s=float(record["build_wall_s"]),
            created_at=float(record["created_at"]),
            cache_counters=dict(record.get("cache_counters", {})),
        )
    except (ConfigurationError, KeyError, TypeError, ValueError):
        return None


class ScenarioStore:
    """The scenario registry: build-once semantics under concurrency.

    ``get_or_build`` is the only mutation path for *new* builds; the
    first requester of a hash builds, concurrent requesters of the same
    hash wait on the builder's event instead of generating the trace a
    second time.  ``rehydrate`` seeds entries recovered from a
    workspace at boot (their traces regenerate lazily through the
    normal cache layers when a run first needs them).  ``on_built``,
    when set, observes every fresh build -- the workspace persistence
    hook.
    """

    def __init__(self, cache_root: Optional[Path] = None,
                 cache_disabled: bool = False,
                 on_built=None) -> None:
        self.cache_root = cache_root
        self.cache_disabled = cache_disabled
        self.on_built = on_built
        self._lock = threading.Lock()
        self._entries: Dict[str, ScenarioEntry] = {}
        self._building: Dict[str, threading.Event] = {}
        self._errors: Dict[str, str] = {}

    def rehydrate(self, entry: ScenarioEntry) -> bool:
        """Register a recovered entry; False when the hash is taken."""
        with self._lock:
            if entry.hash in self._entries:
                return False
            self._entries[entry.hash] = entry
            return True

    def new_cache(self) -> TraceCache:
        """A fresh trace cache on the server's root: fresh per request
        or job, so the hit/miss counters that land in manifests and
        ``/debug/state`` stay scoped to it instead of racing across
        the server's lifetime."""
        return TraceCache(self.cache_root, disabled=self.cache_disabled)

    def get(self, scenario_hash: str) -> Optional[ScenarioEntry]:
        """One built scenario by hash, or None."""
        with self._lock:
            return self._entries.get(scenario_hash)

    def summaries(self) -> Dict[str, Dict[str, object]]:
        """All built scenarios (the ``GET /v1/scenarios`` listing)."""
        with self._lock:
            return {h: e.summary() for h, e in
                    sorted(self._entries.items())}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_build(self, spec: ScenarioSpec, stats
                     ) -> Tuple[ScenarioEntry, bool, bool]:
        """The entry for ``spec``: ``(entry, created, deduped)``.

        ``created`` is True for the request that performed the build;
        ``deduped`` is True for a request that parked behind an
        in-flight identical build.  ``stats`` is the server's
        :class:`~repro.serve.jobs.ServeStats`.
        """
        h = spec.scenario_hash
        with self._lock:
            entry = self._entries.get(h)
            if entry is not None:
                stats.bump("scenarios_cached")
                return entry, False, False
            event = self._building.get(h)
            if event is None:
                event = threading.Event()
                self._building[h] = event
                self._errors.pop(h, None)
                builder = True
            else:
                builder = False
        if not builder:
            stats.bump("scenarios_deduped")
            if not event.wait(BUILD_WAIT_S):
                raise ScenarioBuildError(
                    f"timed out waiting for in-flight build of {h}")
            with self._lock:
                entry = self._entries.get(h)
                error = self._errors.get(h)
            if entry is None:
                raise ScenarioBuildError(
                    error or f"in-flight build of {h} failed")
            return entry, False, True
        try:
            cache = self.new_cache()
            t0 = time.perf_counter()
            recording, source = spec.build(cache)
            entry = ScenarioEntry(
                spec=spec,
                hash=h,
                trace_key=spec.trace_cache_key,
                source=source,
                events=len(recording.packed),
                setup_calls=len(recording.setup),
                build_wall_s=time.perf_counter() - t0,
                created_at=time.time(),
                cache_counters=cache.counters(),
            )
            with self._lock:
                self._entries[h] = entry
            stats.bump("scenarios_built")
            if self.on_built is not None:
                try:
                    self.on_built(entry)
                except OSError:
                    # Persistence is best-effort: a full disk must not
                    # fail the build that already succeeded in memory.
                    pass
            return entry, True, False
        except Exception as exc:
            with self._lock:
                self._errors[h] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            with self._lock:
                self._building.pop(h, None)
            event.set()
