"""Differential fuzzing: optimized models vs. reference models.

Seven lanes, each pairing a hot-path implementation with its oracle
(:mod:`repro.testing.oracles`) over seeded random input
(:mod:`repro.testing.generators`):

* ``packed``  -- the same trace (MemAccess/Work streams with attached
  work) through two identically built full systems (baseline or XMem,
  with atom churn, issue widths 1-4, windows small enough to saturate
  the MSHR file): as an object stream through
  :class:`~repro.testing.oracles.ReferenceEngine` in place of the
  machine's engine, and as a :class:`PackedTrace` through
  :meth:`SystemHandle.run` (the split interpreter).  Engine statistics
  and full stats snapshots must be bit-identical, and so must the L1's
  tags, dirty bits, LRU stamps and clock.  A *shared* leg runs
  the trace on two machines that differ only below L2 (LLC size, DRAM
  bandwidth, or XMem vs. baseline) in one shared call -- one front-end
  pass over L1, L2 and stride training -- and holds each to its own
  ``ReferenceEngine`` twin.
* ``corun``   -- random multi-tenant mixes (2-3 cores, per-core
  generated streams, atom churn on the XMem tenant, the ``packed``
  lane's issue widths and windows) through two identically built
  :class:`~repro.sim.corun.CorunSystem` machines: the per-event
  :class:`~repro.testing.oracles.ReferenceCorun` vs. the
  heap-scheduled interleaver (folded time on the dyadic grid,
  per-position time at width 3), per-core CoreStats, full snapshot
  and each core's L1 tags, dirty bits, stamps and clock bit-identical.
  Items are ``(core, event)`` pairs, so shrinking drops events from
  any tenant.
* ``cache``   -- random access/fill/unpin op strings through the
  columnar :class:`~repro.mem.cache.Cache` (LRU) and the dict-of-lists
  :class:`~repro.testing.oracles.ReferenceCache`: per-op hits,
  writeback addresses, eviction/refusal counts, pinned totals, and the
  final resident set must match.
* ``dram``    -- timed FIFO request streams, under every mapping
  scheme on a drawn geometry (1, 2 or 4 channels, 1 or 2 ranks, 4, 8
  or 16 banks, a capacity small enough that the generated addresses
  reach every field and alias past it) and with ``perfect_rbl`` drawn
  in a quarter of the cases, through
  :class:`~repro.dram.system.DramSystem` (whose
  ``access_completes`` is every engine's DRAM access) and the naive
  :class:`~repro.testing.oracles.ReferenceDram`: per-request row
  outcome, latency, and completion time, plus the counters, the read
  and write latency histograms and the per-bank row counters, read at
  a drawn mid-stream step and again at the end (the DRAM system folds
  its latency logs on every read, so both reads must agree).
* ``sched``   -- request lists, on the ``dram`` lane's drawn
  geometries, through
  :class:`~repro.dram.scheduler.FRFCFSScheduler`: every request
  serviced exactly once, completions self-consistent, service never
  before arrival (starvation bounds are the scheduler's own
  ``REPRO_CHECK`` hook).
* ``serve``   -- random request sequences (including concurrent
  duplicate POSTs and deliberate junk) against a real in-process
  ``repro serve`` HTTP server (:mod:`repro.serve`): every response is
  JSON with the documented status, concurrent identical scenario
  requests share one build (build-once accounting), completed runs
  carry ``servepoint`` documents, and the final ``/debug/state``
  shows zero internal errors, zero failed points, a drained queue,
  and a memo within its bound.  Items are self-contained request
  descriptors, so shrinking drops whole requests.
* ``scenario`` -- random declarative workload specs
  (:mod:`repro.scenarios`) against the spec pipeline's own contract:
  canonicalization is idempotent and hash-stable through a JSON
  round-trip, compiling the same canonical spec twice yields
  bit-identical setup logs and packed columns, the recording survives
  its versioned payload round-trip, and the packed trace round-trips
  through the object event stream.  Items are raw phase dicts over a
  fixed base spec, so shrinking drops phases; sublists that are no
  longer valid specs are vacuously passing and ddmin converges on
  the smallest *valid* diverging spec.

A failing case is shrunk (:mod:`repro.testing.shrink`) against the
same lane predicate and written to the corpus directory as a JSON
reproducer; :func:`replay` re-runs a reproducer file, which is how a
checked-in corpus entry becomes a regression test.  Everything is
deterministic in (seed, case index).
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.cpu.trace import MemAccess, PackedTrace, TraceEvent, Work, XMemOp
from repro.dram.mapping import ALL_SCHEMES, DramGeometry
from repro.store import write_documents
from repro.testing import generators
from repro.testing.generators import GenConfig, setup_atoms
from repro.testing.oracles import (
    ReferenceCache,
    ReferenceCorun,
    ReferenceDram,
    with_reference_engine,
)
from repro.testing.shrink import DEFAULT_BUDGET, shrink


# ---------------------------------------------------------------------------
# Event / item (de)serialization -- reproducers are plain JSON
# ---------------------------------------------------------------------------

def event_to_json(ev: TraceEvent) -> list:
    """One trace event as a JSON-ready list."""
    kind = type(ev)
    if kind is MemAccess:
        return ["M", ev.vaddr, int(ev.is_write), ev.work]
    if kind is Work:
        return ["W", ev.count]
    if kind is XMemOp:
        return ["X", ev.method, *ev.args]
    raise TypeError(f"not a trace event: {ev!r}")


def event_from_json(data: list) -> TraceEvent:
    """Inverse of :func:`event_to_json`."""
    tag = data[0]
    if tag == "M":
        return MemAccess(data[1], bool(data[2]), data[3])
    if tag == "W":
        return Work(data[1])
    if tag == "X":
        return XMemOp(data[1], *data[2:])
    raise ValueError(f"unknown event tag {tag!r}")


# ---------------------------------------------------------------------------
# Lanes
# ---------------------------------------------------------------------------

class Lane:
    """One differential lane: a generator, an oracle, a shrinker input.

    ``make(rng, length)`` draws (params, items); ``fail(params,
    items)`` re-runs the comparison and returns an error string (None
    when the models agree).  ``items`` must be a list the shrinker can
    take sublists of, and round-trip through ``to_json``/``from_json``.
    """

    name = "abstract"

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        raise NotImplementedError

    def fail(self, params: dict, items: list) -> Optional[str]:
        raise NotImplementedError

    def to_json(self, items: list) -> list:
        return [list(item) for item in items]

    def from_json(self, data: list) -> list:
        return [tuple(item) for item in data]


class PackedLane(Lane):
    """Reference engine vs. ``SystemHandle.run``, plus a shared leg:
    two machines in one shared call.

    Any pair diverging -- stats, full snapshot or L1 state (tags,
    dirty bits, LRU stamps and clock) -- is a failure.
    Issue width 3 puts the split interpreter off its dyadic grid, so
    those cases replay every position as its own event.  Reproducers
    written before the shared leg existed carry no ``shared`` param and
    replay it as XMem vs. baseline; those written before issue widths
    were drawn carry no ``issue_width`` and replay at width 4.
    """

    name = "packed"
    #: How each of the two machines runs the trace.
    WAYS = ("reference", "packed")
    #: What the shared leg's second machine changes below L2.
    SHARED = ("llc", "bandwidth", "system")

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        system = rng.choice(("baseline", "xmem", "xmem"))
        atoms = rng.randint(2, 6) if system == "xmem" else 0
        cfg = GenConfig(
            seed=rng.randrange(1 << 32),
            length=length,
            regions=rng.randint(2, 5),
            write_frac=rng.uniform(0.0, 0.6),
            work_frac=rng.uniform(0.0, 0.25),
            atoms=atoms,
            churn=rng.uniform(0.1, 0.5) if atoms else 0.0,
        )
        events, _ = generators.generate_trace(cfg)
        params = {
            "system": system,
            "atoms": atoms,
            "issue_width": rng.choice((1, 2, 3, 4)),
            "window": rng.choice((1, 2, 4, 8, 16, 32)),
            "scale": rng.choice((32, 64)),
            "shared": rng.choice(self.SHARED),
        }
        return params, events

    def _build(self, params: dict):
        import dataclasses as dc

        from repro.sim import build_baseline, build_xmem, scaled_config
        from repro.sim.config import CpuConfig

        cfg = scaled_config(params["scale"])
        cfg = dc.replace(cfg, cpu=CpuConfig(
            issue_width=params.get("issue_width", 4),
            window=params["window"]))
        if params.get("llc_div"):
            cfg = cfg.with_llc(cfg.llc_bytes // params["llc_div"])
        if params.get("bandwidth"):
            cfg = cfg.with_bandwidth(params["bandwidth"])
        if params["system"] == "xmem":
            handle = build_xmem(cfg)
            setup_atoms(handle.xmemlib, GenConfig(atoms=params["atoms"]))
        else:
            handle = build_baseline(cfg)
        return handle

    def fail(self, params: dict, items: list) -> Optional[str]:
        from repro.cpu.trace import strip_xmem

        systems = {way: self._build(params) for way in self.WAYS}
        ref = with_reference_engine(systems["reference"])
        packed = PackedTrace.from_events(items)
        want = ref.engine.run(
            items if ref.xmemlib is not None else strip_xmem(items))
        got = systems["packed"].run(packed)
        if got != want:
            return (f"packed stats diverged from reference: "
                    f"reference={want} packed={got}")
        snap, ref_snap = (systems["packed"].stats_snapshot(),
                          ref.stats_snapshot())
        if snap != ref_snap:
            keys = _first_snapshot_delta(ref_snap, snap)
            return f"packed snapshot diverged from reference at {keys}"
        delta = l1_state_delta(ref.memory.hierarchy.levels[0],
                               systems["packed"].memory.hierarchy.levels[0])
        if delta:
            return delta
        return self._shared_fail(params, items, packed)

    def _shared_fail(self, params: dict, items: list,
                     packed: PackedTrace) -> Optional[str]:
        """The shared leg: two machines that differ only below L2 run
        in one shared call; each must equal its reference twin."""
        from repro.cpu.trace import strip_xmem
        from repro.sim.system import run_machines

        shared = params.get("shared", "system")
        if shared == "system":
            twins = [dict(params, system="baseline"),
                     dict(params, system="xmem")]
        elif shared == "llc":
            twins = [params, dict(params, llc_div=2)]
        else:
            twins = [params, dict(params, bandwidth=0.5)]
        handles = [self._build(p) for p in twins]
        got = run_machines(handles, [packed] * 2)
        for k, (p, handle, stats) in enumerate(zip(twins, handles, got)):
            ref = with_reference_engine(self._build(p))
            want = ref.engine.run(
                items if ref.xmemlib is not None else strip_xmem(items))
            if stats != want:
                return (f"shared machine {k} stats diverged from "
                        f"reference: reference={want} shared={stats}")
            snap, ref_snap = handle.stats_snapshot(), ref.stats_snapshot()
            if snap != ref_snap:
                keys = _first_snapshot_delta(ref_snap, snap)
                return (f"shared machine {k} snapshot diverged from "
                        f"reference at {keys}")
            delta = l1_state_delta(ref.memory.hierarchy.levels[0],
                                   handle.memory.hierarchy.levels[0])
            if delta:
                return f"shared machine {k}: {delta}"
        return None

    def to_json(self, items: list) -> list:
        return [event_to_json(ev) for ev in items]

    def from_json(self, data: list) -> list:
        return [event_from_json(item) for item in data]


class CorunLane(Lane):
    """Per-event reference interleaver vs. ``CorunSystem.run``.

    Issue widths 1-4 and windows down to one entry draw the packed
    lane's timing: width 3 is off the dyadic grid
    (:func:`~repro.cpu.vector_engine.fold_ceiling` is 0), so those
    cases replay every position's time in the reference's order,
    the others fold it, and small windows fill the MSHR file.  Core 0
    optionally carries XMem semantics with atom churn, exercising
    yield-at-XMemOp scheduling and the shared pin controller under
    interleaving.  Reproducers written before the timing draws carry
    no ``issue_width`` or ``window`` and replay at width 4, window 32.
    A second packed leg runs the same traces on a fresh machine, which
    replays the front-ends the first leg stored
    (:func:`~repro.cpu.vector_engine.recorded_front_end`).
    """

    name = "corun"

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        cores = rng.randint(2, 3)
        mode = rng.choice(("baseline", "xmem", "xmem"))
        atoms = rng.randint(2, 5) if mode == "xmem" else 0
        items: list = []
        for core in range(cores):
            cfg = GenConfig(
                seed=rng.randrange(1 << 32),
                length=max(1, length // cores),
                regions=rng.randint(2, 4),
                write_frac=rng.uniform(0.0, 0.6),
                atoms=atoms if core == 0 else 0,
                churn=rng.uniform(0.1, 0.4) if atoms and core == 0
                else 0.0,
            )
            events, _ = generators.generate_trace(cfg)
            items.extend((core, ev) for ev in events)
        params = {
            "cores": cores,
            "xmem": [0] if mode == "xmem" else [],
            "atoms": atoms,
            "scale": rng.choice((16, 32)),
            "issue_width": rng.choice((1, 2, 3, 4)),
            "window": rng.choice((1, 2, 4, 8, 16, 32)),
        }
        return params, items

    def _build(self, params: dict):
        import dataclasses as dc

        from repro.sim.config import CpuConfig, scaled_config
        from repro.sim.corun import CorunSystem

        cfg = dc.replace(scaled_config(params["scale"]), cpu=CpuConfig(
            issue_width=params.get("issue_width", 4),
            window=params.get("window", 32)))
        system = CorunSystem(cfg, params["cores"],
                             xmem_cores=tuple(params["xmem"]))
        for idx in params["xmem"]:
            setup_atoms(system.cores[idx].xmemlib,
                        GenConfig(atoms=params["atoms"]))
        return system

    def fail(self, params: dict, items: list) -> Optional[str]:
        streams: List[list] = [[] for _ in range(params["cores"])]
        for core, ev in items:
            streams[core].append(ev)
        ref_sys = self._build(params)
        stats_ref = ReferenceCorun(ref_sys).run(streams)
        snap_ref = ref_sys.stats_snapshot()
        traces = [PackedTrace.from_events(s) for s in streams]
        packed_sys = self._build(params)
        stats_packed = packed_sys.run(traces)
        if stats_ref != stats_packed:
            return (f"core stats diverged: reference={stats_ref} "
                    f"packed={stats_packed}")
        snap_packed = packed_sys.stats_snapshot()
        if snap_ref != snap_packed:
            keys = _first_snapshot_delta(snap_ref, snap_packed)
            return f"stats snapshot diverged at {keys}"
        for k, (ref_core, core) in enumerate(zip(ref_sys.cores,
                                                 packed_sys.cores)):
            delta = l1_state_delta(ref_core.l1, core.l1, core.offset)
            if delta:
                return f"core {k}: {delta}"
        # The same traces on a fresh machine replay the front-ends the
        # packed leg stored.
        replay_sys = self._build(params)
        stats_replay = replay_sys.run(traces)
        if stats_ref != stats_replay:
            return (f"stored front-end replay: core stats diverged: "
                    f"reference={stats_ref} replay={stats_replay}")
        snap_replay = replay_sys.stats_snapshot()
        if snap_ref != snap_replay:
            keys = _first_snapshot_delta(snap_ref, snap_replay)
            return (f"stored front-end replay: stats snapshot diverged "
                    f"at {keys}")
        return None

    def to_json(self, items: list) -> list:
        return [[core, event_to_json(ev)] for core, ev in items]

    def from_json(self, data: list) -> list:
        return [(core, event_from_json(ev)) for core, ev in data]


class CacheLane(Lane):
    """Columnar LRU cache vs. the dict-of-lists reference."""

    name = "cache"

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        sets = rng.choice((2, 4, 8))
        ways = rng.choice((1, 2, 4, 8))
        quota = rng.choice((0.0, 0.5, 0.75, 1.0))
        line = 64
        cfg = GenConfig(
            seed=rng.randrange(1 << 32),
            length=length,
            regions=1,
            # Tight region: ~4x the cache so sets see real contention.
            region_bytes=max(line * 8, sets * ways * line * 4),
            line_bytes=line,
        )
        items: list = []
        for addr in generators.generate_lines(cfg):
            r = rng.random()
            if r < 0.7:
                items.append(("acc", addr, int(rng.random() < 0.4),
                              int(rng.random() < 0.3)))
            elif r < 0.95:
                items.append(("fill", addr, int(rng.random() < 0.4),
                              int(rng.random() < 0.4)))
            else:
                items.append(("unpin",))
        params = {"sets": sets, "ways": ways, "line": line,
                  "quota": quota}
        return params, items

    def fail(self, params: dict, items: list) -> Optional[str]:
        from repro.mem.cache import Cache

        sets, ways, line = params["sets"], params["ways"], params["line"]
        cache = Cache("fuzz", sets * ways * line, ways, line,
                      policy="lru", pin_quota=params["quota"])
        ref = ReferenceCache(sets, ways, line, pin_quota=params["quota"])
        for step, item in enumerate(items):
            kind = item[0]
            if kind == "acc":
                _, addr, write, pin = item
                got = cache.access(addr, bool(write)).hit
                want = ref.access(addr, bool(write))
                if got != want:
                    return (f"step {step}: hit/miss diverged at "
                            f"{addr:#x} (cache={got} ref={want})")
                if not got:
                    got_wb = cache.fill(addr, dirty=bool(write),
                                        pinned=bool(pin))
                    want_wb = ref.fill(addr, dirty=bool(write),
                                       pinned=bool(pin))
                    if got_wb != want_wb:
                        return (f"step {step}: writeback diverged at "
                                f"{addr:#x} (cache={got_wb} "
                                f"ref={want_wb})")
            elif kind == "fill":
                _, addr, dirty, pin = item
                got_wb = cache.fill(addr, dirty=bool(dirty),
                                    pinned=bool(pin))
                want_wb = ref.fill(addr, dirty=bool(dirty),
                                   pinned=bool(pin))
                if got_wb != want_wb:
                    return (f"step {step}: direct-fill writeback "
                            f"diverged at {addr:#x} (cache={got_wb} "
                            f"ref={want_wb})")
            elif kind == "unpin":
                got_n = cache.unpin_all()
                want_n = ref.unpin_all()
                if got_n != want_n:
                    return (f"step {step}: unpin_all diverged "
                            f"(cache={got_n} ref={want_n})")
        seen = {item[1] for item in items if item[0] != "unpin"}
        got_resident = {a for a in seen if cache.probe(a)}
        want_resident = ref.resident_set()
        if got_resident != want_resident:
            return (f"resident sets diverged: only-cache="
                    f"{sorted(got_resident - want_resident)} only-ref="
                    f"{sorted(want_resident - got_resident)}")
        if cache.pinned_lines != ref.pinned_lines():
            return (f"pinned totals diverged: cache="
                    f"{cache.pinned_lines} ref={ref.pinned_lines()}")
        if (cache.stats.evictions, cache.stats.writebacks,
                cache.stats.pin_refusals) != (
                ref.evictions, ref.writebacks, ref.pin_refusals):
            return (f"counters diverged: cache=("
                    f"{cache.stats.evictions}, {cache.stats.writebacks},"
                    f" {cache.stats.pin_refusals}) ref=({ref.evictions},"
                    f" {ref.writebacks}, {ref.pin_refusals})")
        return None


#: The geometry keys of ``dram`` and ``sched`` reproducers.
GEOMETRY_KEYS = ("channels", "ranks_per_channel", "banks_per_rank",
                 "capacity_bytes")


def draw_geometry(rng: random.Random) -> dict:
    """A DRAM geometry as reproducer params: 1, 2 or 4 channels, 1 or
    2 ranks, 4, 8 or 16 banks of 8 KB rows, and a capacity of at least
    one row per bank and at most 2 MB -- the size of the generated
    request streams' address range, so the high fields and the
    wrap-around past capacity are both exercised."""
    params = {"channels": rng.choice((1, 2, 4)),
              "ranks_per_channel": rng.choice((1, 2)),
              "banks_per_rank": rng.choice((4, 8, 16))}
    rows_floor = (params["channels"] * params["ranks_per_channel"]
                  * params["banks_per_rank"] * DramGeometry.row_bytes)
    params["capacity_bytes"] = 1 << rng.randint(
        rows_floor.bit_length() - 1, 21)
    return params


def params_geometry(params: dict) -> DramGeometry:
    """The geometry a reproducer names; the default one for
    reproducers written before geometries were drawn."""
    return DramGeometry(**{k: params[k] for k in GEOMETRY_KEYS
                           if k in params})


class DramLane(Lane):
    """FIFO-issued DramSystem vs. the naive open-row reference."""

    name = "dram"

    MAPPINGS = ALL_SCHEMES

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        cfg = GenConfig(
            seed=rng.randrange(1 << 32),
            length=length,
            regions=rng.randint(1, 4),
            region_bytes=1 << rng.randint(14, 18),
            write_frac=rng.uniform(0.0, 0.5),
        )
        params = {"mapping": rng.choice(self.MAPPINGS),
                  "perfect_rbl": rng.random() < 0.25,
                  **draw_geometry(rng)}
        # Where in the stream the counters are read mid-run, as a
        # fraction of its length, so a shrunk stream keeps a mid read.
        params["mid_read"] = rng.random()
        return params, generators.generate_requests(cfg)

    def fail(self, params: dict, items: list) -> Optional[str]:
        from repro.dram.system import DramSystem

        # Reproducers written before the draws replay with them off.
        perfect_rbl = params.get("perfect_rbl", False)
        mid_read = (int(params["mid_read"] * len(items))
                    if "mid_read" in params else None)
        geometry = params_geometry(params)
        dram = DramSystem(geometry=geometry, mapping=params["mapping"],
                          perfect_rbl=perfect_rbl)
        ref = ReferenceDram(geometry=geometry, mapping=params["mapping"],
                            perfect_rbl=perfect_rbl)
        for step, (paddr, arrival, is_write) in enumerate(items):
            if step == mid_read:
                error = self._counters_differ(dram, ref)
                if error:
                    return f"before step {step}: {error}"
            res = dram.access(paddr, arrival, is_write=bool(is_write))
            outcome, latency, done = ref.access(paddr, arrival,
                                                bool(is_write))
            if (res.outcome.value, res.latency, res.completes_at) != (
                    outcome, latency, done):
                return (f"step {step}: {paddr:#x}@{arrival} diverged: "
                        f"dram=({res.outcome.value}, {res.latency}, "
                        f"{res.completes_at}) ref=({outcome}, {latency},"
                        f" {done})")
        error = self._counters_differ(dram, ref)
        return f"at the end: {error}" if error else None

    @staticmethod
    def _counters_differ(dram, ref) -> Optional[str]:
        """How the system's folded counters, histograms and per-bank
        sums differ from the reference's running ones (None if not)."""
        s = dram.stats
        got = (s.reads, s.writes, s.row_hits, s.row_closed,
               s.row_conflicts, s.read_latency_sum, s.write_latency_sum)
        want = (ref.reads, ref.writes, ref.row_hits, ref.row_closed,
                ref.row_conflicts, ref.read_latency_sum,
                ref.write_latency_sum)
        if got != want:
            return f"counters diverged: dram={got} ref={want}"
        hists = (s.read_latency_hist, s.write_latency_hist)
        got = [(h.buckets, h.count, h.total) for h in hists]
        want = [(ref.read_buckets, ref.reads, ref.read_latency_sum),
                (ref.write_buckets, ref.writes, ref.write_latency_sum)]
        if got != want:
            return f"latency histograms diverged: dram={got} ref={want}"
        banks = dram.bank_summary()
        got = tuple(banks[k] for k in ("banks_touched", "accesses",
                                       "row_hits", "row_closed",
                                       "row_conflicts"))
        want = (len(ref.banks), ref.reads + ref.writes, ref.row_hits,
                ref.row_closed, ref.row_conflicts)
        if got != want:
            return f"bank counters diverged: dram={got} ref={want}"
        return None


class SchedLane(Lane):
    """FR-FCFS service invariants over random request lists."""

    name = "sched"

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        cfg = GenConfig(
            seed=rng.randrange(1 << 32),
            length=min(length, 200),     # service() is O(n^2)
            regions=rng.randint(1, 3),
            region_bytes=1 << rng.randint(13, 16),
        )
        params = {"mapping": rng.choice(DramLane.MAPPINGS),
                  **draw_geometry(rng)}
        return params, generators.generate_requests(cfg)

    def fail(self, params: dict, items: list) -> Optional[str]:
        from repro.dram.scheduler import FRFCFSScheduler, Request
        from repro.dram.system import DramSystem

        requests = [Request(paddr, arrival, bool(is_write), req_id=i)
                    for i, (paddr, arrival, is_write) in enumerate(items)]
        sched = FRFCFSScheduler(DramSystem(
            geometry=params_geometry(params), mapping=params["mapping"]))
        completions = sched.service(list(requests))
        if len(completions) != len(requests):
            return (f"{len(requests)} requests but "
                    f"{len(completions)} completions")
        served = sorted(c.request.req_id for c in completions)
        if served != list(range(len(requests))):
            return f"service multiset wrong: {served}"
        if sched.stats.serviced != len(requests):
            return (f"serviced counter {sched.stats.serviced} != "
                    f"{len(requests)}")
        if sched.stats.reordered > sched.stats.serviced:
            return "reordered exceeds serviced"
        for c in completions:
            if c.result.completes_at < c.request.arrival:
                return (f"request {c.request.req_id} completed at "
                        f"{c.result.completes_at} before arrival "
                        f"{c.request.arrival}")
            if c.latency < 0:
                return f"negative latency for request {c.request.req_id}"
        if sched.dram.stats.accesses != len(requests):
            return (f"dram serviced {sched.dram.stats.accesses} of "
                    f"{len(requests)} requests")
        return None


class ServeLane(Lane):
    """The ``repro serve`` HTTP surface under random and concurrent load.

    Each case boots a real in-process server (ephemeral port, disk
    trace cache off so cases are hermetic) and drives it with a random
    sequence of self-contained request descriptors: health/state
    probes, kernel and suite scenario builds, full run lifecycles, and
    deliberately malformed requests.  ``dup`` descriptors issue the
    same POST twice *concurrently* (barrier-synchronized threads), so
    the build-once and point-dedup paths are exercised under real
    races.  Cases drawn with the process executor also inject worker
    faults through :mod:`repro.testing.faults`: ``crash`` ops run
    a scenario whose worker child exits mid-job (the point must fail,
    the server must stay healthy) and ``cancel`` ops DELETE a run
    whose point is stalled inside a worker (the child must die and the
    slot free).  The oracle is the server's own contract: documented
    status codes, JSON-only bodies, build-once accounting in
    ``/debug/state``, and a clean final state (no internal errors,
    failed points exactly matching the injected crashes, drained
    queue, bounded memo, healthy pool).
    """

    name = "serve"

    KERNEL_NAMES = ("mvt", "gemver", "jacobi2d")
    SUITE_NAMES = ("mcf", "libquantum", "milc")
    #: Every op runs real simulations; keep sequences short.
    MAX_OPS = 8
    #: Reserved fault-injection scenarios -- ``n=10`` never appears in
    #: randomly drawn scenarios/runs, so the CRASH/SLOW env markers
    #: (one scenario hash each) cannot collide with normal ops.
    CRASH_SCENARIO = {"kernel": "jacobi2d", "n": 10, "tile": 4}
    SLOW_SCENARIO = {"kernel": "gemver", "n": 10, "tile": 4}
    #: ``bad`` ops: (method, path, body, raw bytes, wanted status,
    #: scenario to build first).  With a scenario, ``body`` is a run
    #: config against it that the scenario's point refuses: nothing
    #: may be enqueued.  Reproducers name a case by its index, so new
    #: cases go at the end.
    BAD_CASES = (
        ("POST", "/v1/scenarios", {"kernel": "nope"}, None, 400, None),
        ("POST", "/v1/scenarios", {"kernel": "mvt", "n": -3}, None, 400,
         None),
        ("POST", "/v1/runs", {"scenario": "0" * 16, "configs": [{}]},
         None, 404, None),
        ("POST", "/v1/runs", {}, None, 400, None),
        ("GET", "/v1/runs/run-999999", None, None, 404, None),
        ("POST", "/v1/scenarios", None, b"not json", 400, None),
        ("POST", "/v1/runs", {"scale": 3}, None, 400,
         {"kernel": "mvt", "n": 8, "tile": 4}),
        ("POST", "/v1/runs", {"llc_bytes": 1000}, None, 400,
         {"kernel": "mvt", "n": 8, "tile": 4}),
        ("POST", "/v1/runs", {"llc_bytes": 3072}, None, 400,
         {"kernel": "gemver", "n": 8, "tile": 4}),
        ("POST", "/v1/runs", {"systems": "xmem"}, None, 400,
         {"kernel": "gemver", "n": 8, "tile": 4}),
        ("POST", "/v1/runs", {"scale": 3}, None, 400,
         {"workload": "mcf", "accesses": 300, "footprint_div": 64}),
        ("POST", "/v1/runs", {"modes": ["xmem", 1]}, None, 400,
         {"workload": "milc", "accesses": 300, "footprint_div": 16}),
    )

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        executor = rng.choice(("thread", "process"))
        ops: list = []
        for _ in range(max(1, min(length // 50, self.MAX_OPS))):
            r = rng.random()
            dup = int(rng.random() < 0.5)
            if executor == "process" and r < 0.08:
                ops.append(("crash",))
            elif executor == "process" and r < 0.16:
                ops.append(("cancel",))
            elif r < 0.24:
                ops.append(("health",))
            elif r < 0.32:
                ops.append(("state",))
            elif r < 0.48:
                ops.append(("scenario", "kernel",
                            rng.choice(self.KERNEL_NAMES),
                            rng.choice((8, 12, 16)),
                            rng.choice((4, 8)), dup))
            elif r < 0.60:
                ops.append(("scenario", "suite",
                            rng.choice(self.SUITE_NAMES),
                            rng.choice((300, 500, 800)),
                            rng.choice((16, 64)), dup))
            elif r < 0.86:
                ops.append(("run", rng.choice(self.KERNEL_NAMES),
                            rng.choice((8, 12)), 4,
                            rng.choice((16, 32)), dup))
            else:
                ops.append(("bad", rng.randrange(len(self.BAD_CASES))))
        params = {"workers": rng.choice((1, 2)), "queue_limit": 32,
                  "executor": executor}
        return params, ops

    def fail(self, params: dict, items: list) -> Optional[str]:
        import http.client
        import os
        import threading
        import time

        from repro.serve import pool
        from repro.serve.app import serve
        from repro.testing.faults import (
            CRASH_ENV,
            SLOW_ENV,
            faulty_worker_main,
        )

        executor = params.get("executor", "thread")
        crash_hash = _scenario_hash(self.CRASH_SCENARIO)
        slow_hash = _scenario_hash(self.SLOW_SCENARIO)
        # The markers and the fault-injecting spawn target must be in
        # place before any worker child spawns (children inherit the
        # environment); scope them to this case.
        env_backup = {CRASH_ENV: os.environ.get(CRASH_ENV),
                      SLOW_ENV: os.environ.get(SLOW_ENV)}
        stock_worker_main = pool.pool_worker_main
        if executor == "process":
            os.environ[CRASH_ENV] = crash_hash
            os.environ[SLOW_ENV] = f"{slow_hash}:20"
            pool.pool_worker_main = faulty_worker_main

        server = serve(port=0, workers=params["workers"],
                       queue_limit=params["queue_limit"], cache_dir="off",
                       executor=executor)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]

        def call(method: str, path: str, body: object = None,
                 raw: Optional[bytes] = None):
            payload = raw
            if payload is None and body is not None:
                payload = json.dumps(body).encode()
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                conn.request(method, path, body=payload,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                data = resp.read()
                status = resp.status
            finally:
                conn.close()
            try:
                return status, json.loads(data)
            except ValueError:
                return status, None

        def concurrent_pair(method: str, path: str, body: object):
            results: list = [None, None]
            barrier = threading.Barrier(2)

            def shoot(slot: int) -> None:
                barrier.wait()
                results[slot] = call(method, path, body)

            threads = [threading.Thread(target=shoot, args=(i,))
                       for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return results

        def post_scenario(body: object, dup: int):
            if dup:
                return concurrent_pair("POST", "/v1/scenarios", body)
            return [call("POST", "/v1/scenarios", body)]

        def wait_terminal(run_id: str):
            """The run's terminal document (with the ``running`` count
            drained -- a killed in-flight point lands asynchronously),
            or an error string."""
            deadline = time.monotonic() + 120
            doc = None
            while time.monotonic() < deadline:
                status, doc = call("GET", f"/v1/runs/{run_id}")
                if status != 200 or doc is None:
                    return f"poll {run_id}: HTTP {status}, doc {doc!r}"
                if doc["status"] in ("done", "failed", "cancelled") \
                        and doc["points"]["running"] == 0:
                    return doc
                time.sleep(0.02)
            return (f"{run_id} still "
                    f"{doc['status'] if doc else 'unpolled'} after "
                    f"120s")

        def wait_run(run_id: str) -> Optional[str]:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                status, doc = call("GET", f"/v1/runs/{run_id}")
                if status != 200 or doc is None:
                    return f"poll {run_id}: HTTP {status}, doc {doc!r}"
                if doc["status"] in ("done", "failed", "cancelled"):
                    if doc["status"] != "done":
                        return (f"{run_id} ended {doc['status']}: "
                                f"{doc.get('errors')}")
                    for name, d in (doc.get("documents") or {}).items():
                        kind = (d or {}).get("manifest", {}).get("kind")
                        if kind != "servepoint":
                            return (f"{run_id} doc {name}: kind "
                                    f"{kind!r} != 'servepoint'")
                        if "stats" not in d:
                            return f"{run_id} doc {name}: no stats"
                    return None
                time.sleep(0.02)
            return f"{run_id} still {doc['status']} after 120s"

        # Per-hash count of created=True responses: build-once says
        # the whole session sees exactly one per distinct scenario.
        created: Dict[str, int] = {}
        #: Injected worker crashes; the only tolerated failed points.
        expected_crashes = 0

        def check_scenario(results, want_hash_of=None) -> Optional[str]:
            hashes = set()
            for status, doc in results:
                if status not in (200, 201) or doc is None:
                    return (f"scenario POST: HTTP {status}, "
                            f"doc {doc!r}")
                hashes.add(doc["scenario"])
                if doc["created"]:
                    created[doc["scenario"]] = (
                        created.get(doc["scenario"], 0) + 1)
                else:
                    created.setdefault(doc["scenario"], 0)
            if len(hashes) != 1:
                return f"duplicate POSTs returned hashes {hashes}"
            return None

        try:
            for step, item in enumerate(items):
                op = item[0]
                where = f"step {step} [{op}]"
                if op == "health":
                    status, doc = call("GET", "/health")
                    if status != 200 or doc is None:
                        return (f"{where}: HTTP {status}, doc {doc!r}")
                    missing = {"status", "queue_depth",
                               "workers"} - set(doc)
                    if missing:
                        return f"{where}: missing keys {sorted(missing)}"
                elif op == "state":
                    status, doc = call("GET", "/debug/state")
                    if status != 200 or doc is None:
                        return f"{where}: HTTP {status}, doc {doc!r}"
                    missing = {"serve", "queue", "workers", "pool",
                               "memo", "scenarios", "runs"} - set(doc)
                    if missing:
                        return f"{where}: missing keys {sorted(missing)}"
                elif op == "scenario":
                    _, kind, workload, n, tile, dup = item
                    if kind == "kernel":
                        body = {"kernel": workload, "n": n, "tile": tile}
                    else:
                        body = {"workload": workload, "accesses": n,
                                "footprint_div": tile}
                    error = check_scenario(post_scenario(body, dup))
                    if error:
                        return f"{where}: {error}"
                elif op == "run":
                    _, kernel, n, tile, scale, dup = item
                    body = {"kernel": kernel, "n": n, "tile": tile}
                    error = check_scenario(post_scenario(body, 0))
                    if error:
                        return f"{where}: {error}"
                    run_body = {"scenario": _scenario_hash(body),
                                "configs": [{"scale": scale}]}
                    if dup:
                        results = concurrent_pair("POST", "/v1/runs",
                                                  run_body)
                    else:
                        results = [call("POST", "/v1/runs", run_body)]
                    new_total = 0
                    for status, doc in results:
                        if status != 202 or doc is None:
                            return (f"{where}: HTTP {status}, "
                                    f"doc {doc!r}")
                        if doc["new"] + doc["deduped"] != doc["points"]:
                            return (f"{where}: new {doc['new']} + "
                                    f"deduped {doc['deduped']} != "
                                    f"points {doc['points']}")
                        new_total += doc["new"]
                    if new_total > results[0][1]["points"]:
                        # The point table must hand each (scenario,
                        # config) pair to exactly one submission.
                        return (f"{where}: {new_total} creations for "
                                f"{results[0][1]['points']} point(s)")
                    for _, doc in results:
                        error = wait_run(doc["run"])
                        if error:
                            return f"{where}: {error}"
                elif op == "bad":
                    method, path, body, raw, want, scenario = \
                        self.BAD_CASES[item[1]]
                    if scenario is not None:
                        error = check_scenario(post_scenario(scenario, 0))
                        if error:
                            return f"{where}: {error}"
                        body = {"scenario": _scenario_hash(scenario),
                                "configs": [body]}
                        before = call("GET", "/debug/state")[1]["serve"]
                    status, doc = call(method, path, body, raw=raw)
                    if status != want or doc is None:
                        return (f"{where}: {method} {path} {body} gave "
                                f"HTTP {status} (doc {doc!r}), "
                                f"want {want}")
                    if "error" not in doc:
                        return f"{where}: {want} body without error key"
                    if scenario is not None:
                        after = call("GET", "/debug/state")[1]["serve"]
                        for counter in ("points_submitted",
                                        "points_dispatched"):
                            if after[counter] != before[counter]:
                                return (f"{where}: refused run moved "
                                        f"{counter} from "
                                        f"{before[counter]} to "
                                        f"{after[counter]}")
                elif op == "crash":
                    error = check_scenario(post_scenario(
                        self.CRASH_SCENARIO, 0))
                    if error:
                        return f"{where}: {error}"
                    status, doc = call("POST", "/v1/runs",
                                       {"scenario": crash_hash,
                                        "configs": [{}]})
                    if status != 202 or doc is None:
                        return f"{where}: HTTP {status}, doc {doc!r}"
                    expected_crashes += 1
                    final = wait_terminal(doc["run"])
                    if not isinstance(final, dict):
                        return f"{where}: {final}"
                    if final["status"] != "failed":
                        return (f"{where}: crash run ended "
                                f"{final['status']!r}, want 'failed'")
                    errors = " ".join((final.get("errors")
                                       or {}).values())
                    if "worker crashed" not in errors:
                        return (f"{where}: crash run errors "
                                f"{final.get('errors')!r} do not "
                                f"mention the worker crash")
                    status, doc = call("GET", "/health")
                    if status != 200:
                        return (f"{where}: health {status} after a "
                                f"worker crash -- not isolated")
                elif op == "cancel":
                    error = check_scenario(post_scenario(
                        self.SLOW_SCENARIO, 0))
                    if error:
                        return f"{where}: {error}"
                    status, doc = call("POST", "/v1/runs",
                                       {"scenario": slow_hash,
                                        "configs": [{}]})
                    if status != 202 or doc is None:
                        return f"{where}: HTTP {status}, doc {doc!r}"
                    run_id = doc["run"]
                    # Let the point reach a worker (it stalls there
                    # for 20 s) -- or cancel it while still queued;
                    # both must leave clean state.
                    deadline = time.monotonic() + 15
                    while time.monotonic() < deadline:
                        status, doc = call("GET", f"/v1/runs/{run_id}")
                        if status != 200 or doc is None:
                            return (f"{where}: poll HTTP {status}, "
                                    f"doc {doc!r}")
                        if doc["points"]["running"]:
                            break
                        time.sleep(0.02)
                    status, doc = call("DELETE", f"/v1/runs/{run_id}")
                    if status != 200:
                        return (f"{where}: DELETE gave {status}, "
                                f"doc {doc!r}")
                    final = wait_terminal(run_id)
                    if not isinstance(final, dict):
                        return f"{where}: {final}"
                    if final["status"] != "cancelled":
                        return (f"{where}: cancelled run ended "
                                f"{final['status']!r}")
                else:
                    return f"{where}: unknown op {op!r}"

            status, doc = call("GET", "/debug/state")
            if status != 200 or doc is None:
                return f"final state: HTTP {status}, doc {doc!r}"
            counters = doc["serve"]
            if counters["internal_errors"]:
                return (f"final state: {counters['internal_errors']} "
                        f"internal error(s)")
            if counters["points_failed"] != expected_crashes:
                return (f"final state: {counters['points_failed']} "
                        f"failed point(s), want exactly the "
                        f"{expected_crashes} injected crash(es)")
            if counters["workers_crashed"] != expected_crashes:
                return (f"final state: workers_crashed "
                        f"{counters['workers_crashed']} != "
                        f"{expected_crashes} injected crash(es)")
            over = [h for h, c in created.items() if c > 1]
            if over:
                return f"build-once violated for scenarios {over}"
            if created and counters["scenarios_built"] != len(created):
                return (f"scenarios_built {counters['scenarios_built']}"
                        f" != {len(created)} distinct scenario(s)")
            if doc["queue"]["depth"] != 0:
                return (f"final state: queue depth "
                        f"{doc['queue']['depth']} after all runs done")
            if doc["memo"]["entries"] > doc["memo"]["limit"]:
                return (f"final state: memo {doc['memo']['entries']} "
                        f"entries over limit {doc['memo']['limit']}")
            if doc["pool"]["executor"] != executor:
                return (f"final state: pool executor "
                        f"{doc['pool']['executor']!r} != {executor!r}")
            status, health = call("GET", "/health")
            if status != 200 or health is None \
                    or health["status"] != "ok":
                return (f"final health: HTTP {status}, "
                        f"doc {health!r} -- pool not healthy after "
                        f"the case")
            return None
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=10)
            pool.pool_worker_main = stock_worker_main
            for var, old in env_backup.items():
                if old is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = old


class ScenarioLane(Lane):
    """Workload-spec canonicalization and compile determinism.

    The generator draws a random but *valid* base spec (regions,
    atoms, global knobs) into ``params`` and a list of raw phase
    dicts as the shrinkable ``items``.  There is no second
    implementation to diff against; the oracle is the scenario
    pipeline's own contract, every clause of which the trace cache
    and the manifest hashes depend on.  A shrunk sublist can stop
    being a valid spec (e.g. zero phases); ``fail`` treats
    :class:`~repro.core.errors.ScenarioError` on a candidate as
    vacuously passing so ddmin only explores real specs.
    """

    name = "scenario"

    PATTERNS = ("regular", "irregular", "non_det")
    RW = ("read_only", "read_write", "write_heavy")
    MAX_PHASES = 8

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        regions = [{"name": f"r{i}",
                    "bytes": rng.choice((4096, 8192, 16384))}
                   for i in range(rng.randint(1, 3))]
        atoms = []
        for i in range(rng.randint(0, 2)):
            pattern = rng.choice(self.PATTERNS)
            atom = {"name": f"a{i}",
                    "region": rng.choice(regions)["name"],
                    "pattern": pattern,
                    "rw": rng.choice(self.RW),
                    "intensity": rng.randrange(256),
                    "reuse": rng.randrange(256)}
            if pattern == "regular":
                atom["stride_bytes"] = rng.choice((64, 128, 256))
            atoms.append(atom)
        base = {"kind": "workload", "name": "fuzzspec",
                "seed": rng.randrange(1 << 16), "line_bytes": 64,
                "work_per_access": rng.choice((0, 1, 2)),
                "regions": regions, "atoms": atoms}
        items = [self._phase(rng, regions)
                 for _ in range(max(1, min(length // 50,
                                           self.MAX_PHASES)))]
        return {"base": base}, items

    def _phase(self, rng: random.Random, regions: list) -> dict:
        region = rng.choice(regions)
        lines = region["bytes"] // 64
        kind = rng.choice(("strided", "pointer_chase", "hot_set",
                           "mix"))
        accesses = rng.randint(50, 400)
        wf = round(rng.uniform(0.0, 0.8), 3)
        if kind == "strided":
            return {"kind": kind, "region": region["name"],
                    "accesses": accesses,
                    "stride_lines": rng.choice((1, 2, 3, 8, 16)),
                    "start_line": rng.randrange(lines),
                    "write_frac": wf}
        if kind == "pointer_chase":
            return {"kind": kind, "region": region["name"],
                    "accesses": accesses, "write_frac": wf}
        if kind == "hot_set":
            return {"kind": kind, "region": region["name"],
                    "accesses": accesses,
                    "hot_lines": rng.randint(1, min(64, lines)),
                    "hot_frac": round(rng.uniform(0.3, 0.95), 3),
                    "write_frac": wf}
        min_lines = min(r["bytes"] // 64 for r in regions)
        lo = rng.randint(1, 8)
        return {"kind": "mix",
                "regions": [r["name"] for r in regions],
                "accesses": accesses,
                "weights": [rng.randint(1, 4) for _ in range(3)],
                "run_len": [lo, lo + rng.randint(0, 24)],
                "hot_lines": rng.randint(1, min(64, min_lines)),
                "write_frac": wf}

    def fail(self, params: dict, items: list) -> Optional[str]:
        from repro.core.errors import ScenarioError
        from repro.scenarios import (
            canonical_json,
            canonicalize,
            compile_canonical,
            spec_hash,
        )
        from repro.sim.runner import TraceRecording

        if not items:
            return None
        body = dict(params["base"])
        body["phases"] = [dict(p) for p in items]
        try:
            canonical = canonicalize(body)
        except ScenarioError:
            return None    # shrunk candidate is not a valid spec
        again = canonicalize(json.loads(canonical_json(canonical)))
        if again != canonical:
            return "canonicalize is not idempotent over its own output"
        if spec_hash(again) != spec_hash(canonical):
            return (f"spec hash unstable through JSON round-trip: "
                    f"{spec_hash(canonical)} != {spec_hash(again)}")
        rec_a = compile_canonical(canonical)
        rec_b = compile_canonical(json.loads(canonical_json(canonical)))
        if rec_a.setup != rec_b.setup:
            return "setup logs diverged between identical compiles"
        if rec_a.packed != rec_b.packed:
            ca, cb = rec_a.packed.counts(), rec_b.packed.counts()
            return (f"packed traces diverged between identical "
                    f"compiles: counts {ca} vs {cb}")
        back = TraceRecording.from_payload(rec_a.to_payload())
        if back.packed != rec_a.packed or back.setup != rec_a.setup:
            return "recording diverged through payload round-trip"
        if PackedTrace.from_events(list(rec_a.packed.events())) \
                != rec_a.packed:
            return "packed trace diverged through object event stream"
        return None

    def to_json(self, items: list) -> list:
        return [dict(p) for p in items]

    def from_json(self, data: list) -> list:
        return [dict(p) for p in data]


def _scenario_hash(body: dict) -> str:
    """Client-side scenario hash, for addressing runs in the lane."""
    from repro.serve.scenarios import ScenarioSpec

    return ScenarioSpec.from_request(body).scenario_hash


LANES: Dict[str, Lane] = {
    lane.name: lane
    for lane in (PackedLane(), CorunLane(), CacheLane(), DramLane(),
                 SchedLane(), ServeLane(), ScenarioLane())
}


def l1_state_delta(want, got, offset: int = 0) -> Optional[str]:
    """How the L1 ``got`` differs from the reference run's ``want``:
    tags, dirty bits, LRU stamps and clock, none of which a stats
    snapshot shows.  ``got`` holds lines ``offset`` below ``want``'s
    (a co-run core's tenant-local lines).  None when they are equal."""
    relabel = offset >> got._tag_shift
    tags = [[t + relabel if t >= 0 else t for t in row]
            for row in got._tags]
    for name, a, b in (
            ("_tags", want._tags, tags),
            ("_dirty", want._dirty, got._dirty),
            ("policy._stamp", want.policy._stamp, got.policy._stamp),
            ("policy._clock", want.policy._clock, got.policy._clock)):
        if a != b:
            return f"{want.name} {name} diverged from reference"
    return None


def _first_snapshot_delta(a: dict, b: dict, prefix: str = "") -> str:
    """The first differing key path between two nested snapshots."""
    for key in sorted(set(a) | set(b)):
        path = f"{prefix}{key}"
        va, vb = a.get(key), b.get(key)
        if isinstance(va, dict) and isinstance(vb, dict):
            if va != vb:
                return _first_snapshot_delta(va, vb, f"{path}.")
        elif va != vb:
            return f"{path}: {va!r} != {vb!r}"
    return "<no delta>"


# ---------------------------------------------------------------------------
# The fuzz loop
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class FuzzFailure:
    """One diverging case, after shrinking."""

    lane: str
    case_index: int
    params: dict
    items: list
    error: str
    original_size: int

    def reproducer(self) -> dict:
        """The JSON document written to the corpus."""
        return {
            "lane": self.lane,
            "case_index": self.case_index,
            "params": self.params,
            "items": LANES[self.lane].to_json(self.items),
            "error": self.error,
            "original_size": self.original_size,
        }


@dataclasses.dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` sweep."""

    cases: int
    per_lane: Dict[str, int]
    failures: List[FuzzFailure]
    corpus_paths: List[Path]

    @property
    def ok(self) -> bool:
        return not self.failures


def case_rng(seed: int, case_index: int) -> random.Random:
    """The per-case RNG: deterministic in (sweep seed, case index)."""
    return random.Random((seed << 24) ^ (case_index * 0x9E3779B1))


def run_case(lane: Lane, seed: int, case_index: int,
             length: int) -> Optional[FuzzFailure]:
    """Generate and run one case; None when the models agree."""
    rng = case_rng(seed, case_index)
    params, items = lane.make(rng, length)
    error = lane.fail(params, items)
    if error is None:
        return None
    return FuzzFailure(lane=lane.name, case_index=case_index,
                       params=params, items=items, error=error,
                       original_size=len(items))


def shrink_failure(failure: FuzzFailure,
                   budget: int = DEFAULT_BUDGET) -> FuzzFailure:
    """Shrink a failure's items against its own lane predicate."""
    lane = LANES[failure.lane]

    def still_fails(candidate: list) -> bool:
        return lane.fail(failure.params, candidate) is not None

    small = shrink(failure.items, still_fails, budget=budget)
    error = lane.fail(failure.params, small)
    return dataclasses.replace(failure, items=small,
                               error=error or failure.error)


def write_reproducer(corpus_dir: Path, failure: FuzzFailure) -> Path:
    """One JSON reproducer file per failure, name keyed by the case."""
    name = f"{failure.lane}-case{failure.case_index:05d}.json"
    return write_documents(corpus_dir, [(name, failure.reproducer())])[0]


def run_fuzz(cases: int, seed: int = 0, length: int = 400,
             lanes: Optional[List[str]] = None,
             corpus_dir: Optional[Path] = None,
             shrink_budget: int = DEFAULT_BUDGET,
             log: Optional[Callable[[str], None]] = None) -> FuzzReport:
    """The ``repro fuzz`` engine: N cases round-robin over the lanes.

    Failing cases are shrunk and (when ``corpus_dir`` is given) written
    as reproducers.  Fuzzing continues past failures so one sweep
    reports every diverging lane.
    """
    names = list(lanes) if lanes else list(LANES)
    unknown = [n for n in names if n not in LANES]
    if unknown:
        raise ValueError(
            f"unknown lanes {unknown}; choices: {sorted(LANES)}")
    per_lane: Dict[str, int] = {n: 0 for n in names}
    failures: List[FuzzFailure] = []
    paths: List[Path] = []
    for i in range(cases):
        lane = LANES[names[i % len(names)]]
        per_lane[lane.name] += 1
        failure = run_case(lane, seed, i, length)
        if failure is None:
            continue
        if log:
            log(f"case {i} [{lane.name}]: FAILED ({failure.error}); "
                f"shrinking {len(failure.items)} items...")
        failure = shrink_failure(failure, budget=shrink_budget)
        failures.append(failure)
        if log:
            log(f"case {i} [{lane.name}]: shrunk to "
                f"{len(failure.items)} items: {failure.error}")
        if corpus_dir is not None:
            paths.append(write_reproducer(corpus_dir, failure))
    return FuzzReport(cases=cases, per_lane=per_lane,
                      failures=failures, corpus_paths=paths)


# ---------------------------------------------------------------------------
# Reproducer replay
# ---------------------------------------------------------------------------

def load_reproducer(path: Path) -> Tuple[Lane, dict, list]:
    """(lane, params, items) from a corpus JSON document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    lane = LANES[doc["lane"]]
    return lane, doc["params"], lane.from_json(doc["items"])


def replay(path: Path) -> Optional[str]:
    """Re-run one reproducer; the lane's error, or None when fixed."""
    lane, params, items = load_reproducer(path)
    return lane.fail(params, items)
