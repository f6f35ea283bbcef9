"""Executable reference models: the simple way to compute each answer.

Each class here re-implements one optimized model with textbook data
structures and no hot-path tricks -- the form you would write on a
whiteboard.  The fuzz lanes (:mod:`repro.testing.fuzz`) drive the
optimized model and its reference over the same random input and
require the answers to agree exactly:

* :class:`ReferenceCache` vs. :class:`repro.mem.cache.Cache` (LRU):
  dict-of-lists recency order, per-set tag sets for dirty/pinned state;
  hits, victims, writebacks, refusals, and the final resident set must
  all match the columnar cache.
* :class:`ReferenceEngine` vs. :class:`repro.cpu.engine.TraceEngine`:
  a naive in-order interpreter with a plain-list outstanding-miss
  window (``min``/``remove`` instead of a heap).  Statistics must be
  bit-identical -- every arithmetic expression mirrors the engine, so
  float accumulation order is the same.  :func:`with_reference_engine`
  puts one on a full machine, so the whole stats snapshot compares.
* :class:`ReferenceCorun` vs. :meth:`repro.sim.corun.CorunSystem.run`:
  the per-event co-run interleaver, an explicit ``(now, index)``
  minimum over the unfinished cores instead of a heap, one object
  event per step through its own method descent over the system's
  caches, prefetchers and DRAM (production runs each core's private
  levels through the split interpreter's front-end and a fused LLC
  body).
  Per-core statistics and the full snapshot must be bit-identical.
* :class:`ReferenceDram` vs. :class:`repro.dram.system.DramSystem`
  under FIFO issue: a naive open-row bank/channel timing model over
  :func:`reference_decompose`, the field-by-field restatement of the
  compiled address mapping.  Per-request (outcome, latency,
  completion) must match exactly.
* :class:`ToyMemory`: not an oracle but a seeded, deterministic memory
  stand-in for :class:`ReferenceEngine` tests -- two instances with
  the same seed give identical (completes_at, went_to_memory) streams,
  with enough long misses to saturate small windows.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.cpu.trace import MemAccess, PackedTrace, Trace, Work, XMemOp
from repro.dram.mapping import (
    DramAddress,
    DramGeometry,
    FieldOrderMapping,
    make_mapping,
)
from repro.dram.timing import DramTiming, ddr3_1066


# ---------------------------------------------------------------------------
# Cache reference
# ---------------------------------------------------------------------------

class ReferenceCache:
    """Dict-of-lists LRU cache with write-back state and pinning.

    Per set: ``order`` is the recency list (LRU at the front, MRU at
    the back), ``dirty`` and ``pinned`` are tag sets.  The semantics
    deliberately restate :class:`repro.mem.cache.Cache` with
    ``policy="lru"``:

    * a hit promotes to MRU; a flag-merging :meth:`fill` of a resident
      line does **not** (the cache's resident-fill path skips the
      policy hook);
    * a fill into a non-full set evicts nothing;
    * the victim of a full set is the least-recent non-pinned line, or
      the least-recent line outright if every way is pinned (only
      reachable with ``pin_quota=1.0``);
    * pin requests beyond ``max(0, int(ways * pin_quota))`` pinned
      lines per set degrade to normal fills and count as refusals.
    """

    def __init__(self, num_sets: int, ways: int, line_bytes: int = 64,
                 pin_quota: float = 0.75) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.max_pinned_ways = max(0, int(ways * pin_quota))
        self.order: List[List[int]] = [[] for _ in range(num_sets)]
        self.dirty: List[Set[int]] = [set() for _ in range(num_sets)]
        self.pinned: List[Set[int]] = [set() for _ in range(num_sets)]
        self.evictions = 0
        self.writebacks = 0
        self.pin_refusals = 0

    def place(self, addr: int) -> Tuple[int, int]:
        """(set index, tag) of the line holding ``addr``."""
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def line_of(self, set_idx: int, tag: int) -> int:
        """Inverse of :meth:`place`: the line address."""
        return (tag * self.num_sets + set_idx) * self.line_bytes

    def access(self, addr: int, is_write: bool = False) -> bool:
        """One demand access; True on hit (with LRU promotion)."""
        set_idx, tag = self.place(addr)
        order = self.order[set_idx]
        if tag not in order:
            return False
        order.remove(tag)
        order.append(tag)
        if is_write:
            self.dirty[set_idx].add(tag)
        return True

    def fill(self, addr: int, *, dirty: bool = False,
             pinned: bool = False) -> Optional[int]:
        """Install (or flag-merge) a line; returns the writeback, if any."""
        set_idx, tag = self.place(addr)
        order = self.order[set_idx]
        if tag in order:
            # Resident: merge flags, recency untouched.
            if dirty:
                self.dirty[set_idx].add(tag)
            if pinned and tag not in self.pinned[set_idx] \
                    and len(self.pinned[set_idx]) < self.max_pinned_ways:
                self.pinned[set_idx].add(tag)
            return None
        writeback = None
        if len(order) >= self.ways:
            victims = [t for t in order if t not in self.pinned[set_idx]]
            victim = victims[0] if victims else order[0]
            order.remove(victim)
            self.evictions += 1
            if victim in self.dirty[set_idx]:
                self.dirty[set_idx].discard(victim)
                self.writebacks += 1
                writeback = self.line_of(set_idx, victim)
            self.pinned[set_idx].discard(victim)
        order.append(tag)
        if dirty:
            self.dirty[set_idx].add(tag)
        if pinned:
            if len(self.pinned[set_idx]) < self.max_pinned_ways:
                self.pinned[set_idx].add(tag)
            else:
                self.pin_refusals += 1
        return writeback

    def unpin_all(self) -> int:
        """Age every pin; returns how many lines were pinned."""
        count = sum(len(p) for p in self.pinned)
        for p in self.pinned:
            p.clear()
        return count

    def resident_set(self) -> Set[int]:
        """All resident line addresses."""
        return {
            self.line_of(s, t)
            for s, order in enumerate(self.order) for t in order
        }

    def pinned_lines(self) -> int:
        """Total pinned lines."""
        return sum(len(p) for p in self.pinned)


# ---------------------------------------------------------------------------
# Engine reference
# ---------------------------------------------------------------------------

class ReferenceEngine:
    """Naive in-order trace interpreter with a plain-list miss window.

    Mirrors the timing contract of :class:`repro.cpu.engine.TraceEngine`
    event for event -- same pipelined-hit threshold, same window-full
    stall rule, same end-of-trace drain -- but with none of the
    hot-path structure: object dispatch by ``isinstance``, the
    outstanding-miss window as a list scanned with ``min``.  Every
    arithmetic expression restates the engine's, so the returned
    :class:`~repro.cpu.engine.EngineStats` is bit-identical for any
    trace over the same memory behaviour.  The window's
    :class:`~repro.mem.mshr.MSHRStats` are counted with the MSHR
    file's rule (one reservation per long access, one full stall per
    reservation that found the window full) and, like the engine's,
    accumulate across runs.

    Speaks the engine's StatGroup protocol, so a machine whose engine
    is swapped for a reference (:func:`with_reference_engine`)
    snapshots the same tree as the original.
    """

    PIPELINED_LATENCY = 4.0

    def __init__(self, memory, xmemlib=None, issue_width: int = 4,
                 window: int = 32) -> None:
        from repro.cpu.engine import EngineStats
        from repro.mem.mshr import MSHRStats

        self.memory = memory
        self.xmemlib = xmemlib
        self.issue_width = issue_width
        self.window = window
        self.last_stats = EngineStats()
        self.mshr_stats = MSHRStats()

    def stat_groups(self):
        """StatGroup protocol: the run's statistics and the window's."""
        yield "", self.last_stats
        yield "mshr", self.mshr_stats

    def run(self, trace: Trace):
        from repro.cpu.engine import EngineStats

        if isinstance(trace, PackedTrace):
            trace = trace.events()
        now = 0.0
        issue = self.issue_width
        slot = 1.0 / issue
        outstanding: List[float] = []
        stats = EngineStats()
        mshr = self.mshr_stats
        for ev in trace:
            if isinstance(ev, MemAccess):
                work = ev.work
                if work:
                    now += work / issue
                    stats.instructions += work
                stats.instructions += 1
                stats.mem_accesses += 1
                completes_at, to_memory = self.memory.access(
                    ev.vaddr, ev.is_write, now)
                if to_memory:
                    stats.misses_to_memory += 1
                if completes_at - now > self.PIPELINED_LATENCY:
                    # Retire everything that has completed, then stall
                    # on the oldest miss if the window is still full.
                    outstanding = [t for t in outstanding if t > now]
                    start = now
                    if len(outstanding) >= self.window:
                        start = min(outstanding)
                        outstanding.remove(start)
                        mshr.full_stalls += 1
                    outstanding.append(completes_at)
                    mshr.reservations += 1
                    if start > now:
                        stats.stall_cycles += start - now
                        now = start
                now += slot
            elif isinstance(ev, Work):
                now += ev.count / issue
                stats.instructions += ev.count
            elif isinstance(ev, XMemOp):
                stats.instructions += 1
                stats.xmem_instructions += 1
                now += slot
                if self.xmemlib is not None:
                    getattr(self.xmemlib, ev.method)(*ev.args)
            else:
                raise TypeError(f"not a trace event: {ev!r}")
        if outstanding:
            tail = max(outstanding)
            if tail > now:
                now = tail
        stats.cycles = now
        self.last_stats = stats
        return stats


def with_reference_engine(handle):
    """``handle`` (a :class:`~repro.sim.system.SystemHandle`) with its
    engine replaced by a :class:`ReferenceEngine` over the same memory
    side, XMem library, issue width and window.

    The handle's stats tree keeps its shape, so a reference run on one
    machine and an optimized run on an identically built twin compare
    as whole snapshots.  Run the reference with ``handle.engine.run``
    (``handle.run`` dispatches to the production engine); a baseline
    machine's trace must have its XMem operations stripped first, as
    :meth:`~repro.sim.system.SystemHandle.run` does.
    """
    engine = handle.engine
    handle.engine = ReferenceEngine(
        engine.memory, engine.xmemlib, issue_width=engine.issue_width,
        window=engine.mshr.entries)
    return handle


# ---------------------------------------------------------------------------
# Co-run reference
# ---------------------------------------------------------------------------

class ReferenceCorun:
    """Per-event co-run interleaver and memory path over a
    :class:`CorunSystem`'s components.

    Restates :meth:`repro.sim.corun.CorunSystem.run` without its
    structure: no packing, no heap, no front-end, no fused body.
    Each step picks the unfinished core with the smallest ``(now,
    index)`` -- the lowest core index breaking clock ties -- and
    interprets that core's next object event; a memory access descends
    through the components' own methods (:meth:`_access`:
    ``Cache.access``/``fill_absent``/``fill`` and their replacement
    hooks, the prefetchers, ``DramSystem.access``) and the core's
    ``MSHRFile.reserve`` with the engine's stall rule.  A core whose
    stream is exhausted drains its window and stops.  It calls no
    method of the system itself, so a bug in the production memory
    path cannot hide on both sides.  Per-core
    :class:`~repro.sim.corun.CoreStats` and the system's full stats
    snapshot must be bit-identical to a ``CorunSystem.run`` on an
    identically built twin.
    """

    PIPELINED_LATENCY = 4.0

    def __init__(self, system) -> None:
        self.system = system
        #: In-flight prefetches: line -> completion time.
        self._prefetch_ready: Dict[int, float] = {}

    def run(self, traces: List[Trace]):
        from repro.core.errors import ConfigurationError

        cores = self.system.cores
        if len(traces) != len(cores):
            raise ConfigurationError(
                f"{len(cores)} cores need {len(cores)} traces")
        streams = [iter(t) for t in traces]     # PackedTrace: events()
        issue = self.system.config.cpu.issue_width
        pending = list(range(len(cores)))
        while pending:
            idx = min(pending, key=lambda i: (cores[i].now, i))
            core = cores[idx]
            ev = next(streams[idx], None)
            if ev is None:
                tail = core.mshr.latest_completion()
                if tail is not None and tail > core.now:
                    core.now = tail
                core.mshr.flush()
                core.stats.cycles = core.now
                pending.remove(idx)
            elif isinstance(ev, MemAccess):
                if ev.work:
                    core.now += ev.work / issue
                    core.stats.instructions += ev.work
                core.stats.instructions += 1
                core.stats.mem_accesses += 1
                completes = self._access(
                    core, ev.vaddr + core.offset, ev.is_write)
                if completes - core.now > self.PIPELINED_LATENCY:
                    start = core.mshr.reserve(core.now, completes)
                    core.now = max(core.now, start) + 1.0 / issue
                else:
                    core.now += 1.0 / issue
            elif isinstance(ev, Work):
                core.now += ev.count / issue
                core.stats.instructions += ev.count
            elif isinstance(ev, XMemOp):
                core.stats.instructions += 1
                core.now += 1.0 / issue
                if core.xmemlib is not None:
                    getattr(core.xmemlib, ev.method)(*ev.args)
            else:
                raise TypeError(f"not a trace event: {ev!r}")
        return [c.stats for c in cores]

    def _access(self, core, addr: int, is_write: bool) -> float:
        """One demand access by ``core``; returns its completion time.

        L1, then L2, then the shared LLC (where the stride prefetcher
        observes, and a miss reads DRAM, fills the LLC with the pin
        controller's decision and triggers the core's XMem
        prefetcher); the private levels fill on the way back.
        """
        system = self.system
        llc = system.llc
        line = addr - addr % system.config.line_bytes
        now = core.now
        if core.l1.access(line, is_write).hit:
            return now + 1.0
        t = now + core.l1_lat
        if core.l2.access(line, False).hit:
            self._fill_private(core, line, is_write, l2_resident=True)
            return t + core.l2_lat
        t += core.l2_lat
        result = llc.access(line, False)
        t += system.llc_lat
        if system.stride_pf is not None:
            for target in system.stride_pf.observe(line):
                self._prefetch(target, now)
        if result.hit:
            ready = self._prefetch_ready.pop(line, None)
            if ready is not None and ready > t:
                t = ready
            self._fill_private(core, line, is_write)
            return t
        core.stats.llc_misses += 1
        res = system.dram.access(line, t, is_write=False)
        self._prefetch_ready.pop(line, None)
        wb = llc.fill(line, pinned=system.controller.pin_predicate(line))
        if wb is not None:
            system.dram.access(wb, t, is_write=True)
        if core.xmem_pf is not None:
            for target in core.xmem_pf.on_demand_miss(line):
                self._prefetch(target, now)
        self._fill_private(core, line, is_write)
        return res.completes_at

    def _fill_private(self, core, line: int, is_write: bool,
                      l2_resident: bool = False) -> None:
        """Fill the L2 (unless it hit) and the L1, each victim rippling
        down with :meth:`Cache.fill` and ending in a DRAM write."""
        llc = self.system.llc
        dram = self.system.dram
        if not l2_resident:
            wb2 = core.l2.fill(line)
            if wb2 is not None:
                wb3 = llc.fill(wb2, dirty=True)
                if wb3 is not None:
                    dram.access(wb3, core.now, is_write=True)
        wb1 = core.l1.fill(line, dirty=is_write)
        if wb1 is not None:
            wb2 = core.l2.fill(wb1, dirty=True)
            if wb2 is not None:
                wb3 = llc.fill(wb2, dirty=True)
                if wb3 is not None:
                    dram.access(wb3, core.now, is_write=True)

    def _prefetch(self, line: int, now: float) -> None:
        """An LLC prefetch, skipped when the line is resident."""
        system = self.system
        if system.llc.probe(line):
            return
        res = system.dram.access(line, now, is_write=False)
        self._prefetch_ready[line] = res.completes_at
        wb = system.llc.fill(line, prefetch=True,
                             pinned=system.controller.pin_predicate(line))
        if wb is not None:
            system.dram.access(wb, now, is_write=True)


# ---------------------------------------------------------------------------
# DRAM reference
# ---------------------------------------------------------------------------

def reference_decompose(mapping: FieldOrderMapping,
                        paddr: int) -> DramAddress:
    """``mapping``'s decomposition of ``paddr``, one field at a time.

    Walks the scheme's field order low to high, peeling each field's
    width off the line index, with the geometry re-derived on every
    call.  Address bits above the mapped space are folded back into the
    row and reduced modulo the rows per bank, so an address beyond
    capacity lands where ``paddr % capacity_bytes`` does.  Permutation
    schemes then XOR the bank index with the low row bits.  Only the
    scheme's field order, geometry and permutation flag are read, never
    its compiled ``decompose``.
    """
    g = mapping.geometry
    col_bits = (g.lines_per_row - 1).bit_length()
    col_low_bits = min(col_bits,
                       (FieldOrderMapping.COL_LOW_LINES - 1).bit_length())
    widths: Dict[str, int] = {
        "col_low": col_low_bits,
        "col_high": col_bits - col_low_bits,
        "channel": (g.channels - 1).bit_length(),
        "rank": (g.ranks_per_channel - 1).bit_length(),
        "bank": (g.banks_per_rank - 1).bit_length(),
        "row": (g.rows_per_bank - 1).bit_length(),
    }
    bits = paddr // g.line_bytes
    fields: Dict[str, int] = {}
    for field_name in mapping.order:
        width = widths[field_name]
        fields[field_name] = bits & ((1 << width) - 1)
        bits >>= width
    col = (fields["col_high"] << widths["col_low"]) | fields["col_low"]
    row = (fields["row"] + bits * (1 << widths["row"])) % g.rows_per_bank
    bank = fields["bank"]
    if mapping.PERMUTE_BANK:
        bank ^= row & ((1 << widths["bank"]) - 1)
    return DramAddress(channel=fields["channel"], rank=fields["rank"],
                       bank=bank, row=row, col=col)


class ReferenceDram:
    """Naive FIFO open-row DRAM model.

    One dict entry per touched bank holding ``[open_row, busy_until]``,
    one free-time per channel, requests served strictly in the order
    presented.  Restates the arithmetic of
    :meth:`~repro.dram.system.DramSystem.access_completes` (classify,
    ``perfect_rbl``'s forced hit, per-outcome overhead, bank busy
    advance, channel burst serialization, power-of-two latency
    buckets) without the object structure, over
    :func:`reference_decompose` instead of the compiled mapping.
    """

    def __init__(self, geometry: Optional[DramGeometry] = None,
                 timing: Optional[DramTiming] = None,
                 mapping: str = "scheme2",
                 perfect_rbl: bool = False) -> None:
        self.geometry = geometry or DramGeometry()
        self.timing = timing or ddr3_1066()
        self.mapping = make_mapping(mapping, self.geometry)
        self.perfect_rbl = perfect_rbl
        self.banks: Dict[Tuple[int, int, int], List] = {}
        self.channel_free = [0.0] * self.geometry.channels
        self.reads = 0
        self.writes = 0
        self.read_latency_sum = 0.0
        self.write_latency_sum = 0.0
        self.row_hits = 0
        self.row_closed = 0
        self.row_conflicts = 0
        #: bucket bound -> samples: the smallest power of two at or
        #: above a latency's whole cycles (at least 1).
        self.read_buckets: Dict[int, int] = {}
        self.write_buckets: Dict[int, int] = {}

    def access(self, paddr: int, now: float,
               is_write: bool = False) -> Tuple[str, float, float]:
        """Serve one request; returns (outcome, latency, completes_at)."""
        t = self.timing
        addr = reference_decompose(self.mapping, paddr)
        bank = self.banks.setdefault(addr.bank_key, [None, 0.0])
        start = now if now >= bank[1] else bank[1]
        if self.perfect_rbl or bank[0] == addr.row:
            outcome = "hit"
            overhead = 0.0
            self.row_hits += 1
        elif bank[0] is None:
            outcome = "closed"
            overhead = t.t_rcd
            self.row_closed += 1
        else:
            outcome = "conflict"
            overhead = t.t_rp + t.t_rcd
            self.row_conflicts += 1
        bank[0] = addr.row
        bank[1] = start + overhead + t.t_burst
        data_ready = start + overhead + t.t_cl
        chan = self.channel_free[addr.channel]
        burst_start = data_ready if data_ready >= chan else chan
        done = burst_start + t.t_burst
        self.channel_free[addr.channel] = done
        latency = done - now
        if is_write:
            self.writes += 1
            self.write_latency_sum += latency
            buckets = self.write_buckets
        else:
            self.reads += 1
            self.read_latency_sum += latency
            buckets = self.read_buckets
        bound = 1
        while bound < int(latency):
            bound *= 2
        buckets[bound] = buckets.get(bound, 0) + 1
        return outcome, latency, done


# ---------------------------------------------------------------------------
# Seeded toy memory for reference-engine tests
# ---------------------------------------------------------------------------

class ToyMemory:
    """Deterministic seeded stand-in for a memory system.

    Tests of :class:`ReferenceEngine`'s timing need memory behaviour
    without a full machine, and two runs that compare need two
    *identical* behaviours without sharing mutable state.  Two
    ``ToyMemory(seed)`` instances draw the same per-access
    pseudo-random (hit-or-miss, latency) stream, so the runs see the
    same machine.  Miss latencies are long enough to pile misses into
    small windows (MSHR saturation).  The production engine runs only
    on real memory systems.
    """

    def __init__(self, seed: int, hit_latency: float = 2.0,
                 miss_rate: float = 0.35,
                 miss_latency: Tuple[float, float] = (40.0, 400.0)) -> None:
        self._rng = random.Random(seed)
        self.hit_latency = hit_latency
        self.miss_rate = miss_rate
        self.miss_latency = miss_latency
        self.accesses = 0

    def access(self, paddr: int, is_write: bool,
               now: float) -> Tuple[float, bool]:
        self.accesses += 1
        rng = self._rng
        if rng.random() < self.miss_rate:
            lo, hi = self.miss_latency
            return now + rng.uniform(lo, hi), True
        return now + self.hit_latency, False
