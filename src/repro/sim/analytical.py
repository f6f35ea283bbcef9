"""Analytical hit-rate estimator over :class:`PackedTrace` columns.

:func:`estimate_packed` predicts a run's :class:`EngineStats` in one
pass over the packed columns without evolving the machine: no DRAM
timing, no MSHR, no channel or bank state, no stall modelling.  It
exists for quick sweeps and sanity triage; committed tables must be
produced on the exact ``packed`` tier.

Model
-----

* **L1: per-set LRU stack distance.**  One
  :class:`collections.OrderedDict` per set (capacity = ways): an access
  hits iff its stack distance within the set is at most the
  associativity.  The paper machine's L1 *is* LRU and every access both
  probes and fills it, so this automaton is exact for L1.
* **L2/LLC: per-set reuse-profile automaton.**  RRIP-family levels
  carry the machine's actual 2-bit re-reference prediction values and
  insertion rules (SRRIP/BRRIP/DRRIP including the PSEL duel) over
  way-indexed sets, so the reuse profile -- which lines a thrashing or
  scanning stream keeps -- matches the real policy.  LRU levels use the
  stack instead.
* **Cascade + ripple.**  L2 sees only L1 misses, the LLC only L2
  misses; dirty victims ripple downward as in the real hierarchy
  (merging silently when resident, filling when not).
* **Prefetch coverage.**  With a multi-stride prefetcher present, the
  estimator trains the *real* detector logic on the LLC-reached stream
  and installs predicted lines into the LLC automaton, so
  stream-covered misses are classified as (prefetched) hits.

Error model
-----------

* L1 hits/misses are exact (see above).
* ``misses_to_memory`` is approximate.  Unmodelled: LLC pinning and
  the semantic (XMem) prefetcher on machines with an XMem controller,
  prefetch arrival timing (a predicted line is assumed usable by its
  demand access), and MSHR/DRAM back-pressure.  On the 27-workload
  suite catalog the relative miss-count error is bounded at 2%
  (enforced by ``tests/sim/test_analytical.py`` and the fuzz corpus);
  the bound is *empirical* for that catalog, not a guarantee for
  adversarial streams.
* ``cycles``/``stall_cycles`` are coarse: issue time plus an
  MSHR-damped closed-row DRAM service charge per estimated miss.  They
  capture magnitude and ordering, not the measured value; no error
  bound is claimed for them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

try:
    import numpy as _np
except ImportError:          # pragma: no cover - numpy ships in the image
    _np = None

from repro.cpu.engine import EngineStats, TraceEngine
from repro.cpu.trace import PackedTrace
from repro.mem.prefetch import MultiStridePrefetcher
from repro.mem.replacement import (
    BRRIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    RRPV_LONG,
    RRPV_MAX,
    SRRIPPolicy,
)

_INVALID = -1


@dataclass
class AnalyticalEstimate:
    """Per-level detail behind an estimated :class:`EngineStats`."""

    stats: EngineStats
    #: Demand hits per level, L1 outward.
    level_hits: List[int]
    #: Demand misses per level, L1 outward.
    level_misses: List[int]
    #: Estimated prefetch fills installed at the LLC.
    prefetch_fills: int
    #: Estimated demand hits on prefetched LLC lines.
    prefetch_hits: int


class _LruLevel:
    """One LRU level as per-set stacks.

    Entry values are ``[dirty, prefetched]`` flags.
    """

    __slots__ = ("sets", "ways", "set_mask", "line_shift", "tag_shift")

    def __init__(self, cache) -> None:
        self.ways = cache.ways
        self.set_mask = cache._set_mask
        self.line_shift = cache._line_shift
        self.tag_shift = cache._tag_shift
        self.sets = [OrderedDict() for _ in range(cache.num_sets)]

    def probe(self, si: int, tag: int) -> bool:
        od = self.sets[si]
        if tag in od:
            od.move_to_end(tag)
            return True
        return False

    def resident(self, si: int, tag: int) -> bool:
        return tag in self.sets[si]

    def mark_dirty(self, si: int, tag: int) -> None:
        self.sets[si][tag][0] = True

    def take_prefetched(self, si: int, tag: int) -> bool:
        ent = self.sets[si][tag]
        if ent[1]:
            ent[1] = False
            return True
        return False

    def record_miss(self, si: int) -> None:
        pass

    def fill(self, si: int, tag: int, dirty: bool,
             prefetched: bool) -> Optional[Tuple[int, bool]]:
        """Install; return a dirty victim's ``(tag, True)`` or None."""
        od = self.sets[si]
        od[tag] = [dirty, prefetched]
        if len(od) > self.ways:
            vtag, vent = od.popitem(last=False)
            if vent[0]:
                return vtag, True
        return None


class _RripLevel:
    """One RRIP-family level: way-indexed sets with the machine's
    actual RRPV insertion/aging rules (minus pinning)."""

    __slots__ = ("ways", "set_mask", "line_shift", "tag_shift",
                 "tags", "rrpv", "dirty", "valid", "allways", "pf",
                 "insert_long", "duel", "psel", "psel_max", "psel_half",
                 "fill_count", "brrip_period")

    def __init__(self, cache) -> None:
        self.ways = cache.ways
        self.set_mask = cache._set_mask
        self.line_shift = cache._line_shift
        self.tag_shift = cache._tag_shift
        n = cache.num_sets
        w = cache.ways
        self.tags = [[_INVALID] * w for _ in range(n)]
        self.rrpv = [[RRPV_MAX] * w for _ in range(n)]
        self.dirty = [[False] * w for _ in range(n)]
        self.valid = [0] * n
        self.allways = tuple(range(w))
        self.pf = set()
        policy = cache.policy
        self.duel = type(policy) is DRRIPPolicy
        self.insert_long = type(policy) is SRRIPPolicy
        self.psel = (1 << DRRIPPolicy.PSEL_BITS) // 2
        self.psel_max = (1 << DRRIPPolicy.PSEL_BITS) - 1
        self.psel_half = self.psel_max // 2
        self.fill_count = 0
        self.brrip_period = BRRIPPolicy.LONG_INTERVAL_PERIOD

    def probe(self, si: int, tag: int) -> bool:
        row = self.tags[si]
        if tag in row:
            self.rrpv[si][row.index(tag)] = 0
            return True
        return False

    def resident(self, si: int, tag: int) -> bool:
        return tag in self.tags[si]

    def mark_dirty(self, si: int, tag: int) -> None:
        self.dirty[si][self.tags[si].index(tag)] = True

    def take_prefetched(self, si: int, tag: int) -> bool:
        key = (si, tag)
        if key in self.pf:
            self.pf.discard(key)
            return True
        return False

    def record_miss(self, si: int) -> None:
        if not self.duel:
            return
        phase = si % DRRIPPolicy.DUEL_PERIOD
        if phase == 0:
            if self.psel < self.psel_max:
                self.psel += 1
        elif phase == 1:
            if self.psel > 0:
                self.psel -= 1

    def _insert_rrpv(self, si: int) -> int:
        if self.insert_long:
            return RRPV_LONG
        if self.duel:
            phase = si % DRRIPPolicy.DUEL_PERIOD
            if not (phase == 1 or (phase != 0
                                   and self.psel > self.psel_half)):
                return RRPV_LONG
        self.fill_count += 1
        if self.fill_count % self.brrip_period == 0:
            return RRPV_LONG
        return RRPV_MAX

    def fill(self, si: int, tag: int, dirty: bool,
             prefetched: bool) -> Optional[Tuple[int, bool]]:
        row = self.tags[si]
        victim = None
        if self.valid[si] < self.ways:
            way = row.index(_INVALID)
            self.valid[si] += 1
        else:
            rr = self.rrpv[si]
            if RRPV_MAX in rr:
                way = rr.index(RRPV_MAX)
            else:
                bump = RRPV_MAX - max(rr)
                for wy in self.allways:
                    rr[wy] += bump
                way = rr.index(RRPV_MAX)
            vtag = row[way]
            if self.pf:
                self.pf.discard((si, vtag))
            if self.dirty[si][way]:
                victim = (vtag, True)
        row[way] = tag
        self.dirty[si][way] = dirty
        if prefetched:
            self.pf.add((si, tag))
        self.rrpv[si][way] = self._insert_rrpv(si)
        return victim


def _make_level(cache):
    if type(cache.policy) is LRUPolicy:
        return _LruLevel(cache)
    return _RripLevel(cache)


def estimate(engine: TraceEngine, trace) -> AnalyticalEstimate:
    """Estimate a run of ``trace`` on ``engine`` (machine untouched)."""
    if _np is None:
        raise RuntimeError("analytical tier requires numpy")
    if type(trace) is not PackedTrace:
        trace = PackedTrace.from_events(list(trace))
    np = _np

    memory = engine.memory
    hier = memory.hierarchy
    levels = [_make_level(c) for c in hier.levels]
    num_levels = len(levels)
    last = num_levels - 1
    line_bytes = hier.line_bytes

    # -- Exact columnar accounting -----------------------------------------
    me = (np.frombuffer(trace.meta, dtype=np.int64) if len(trace.meta)
          else np.empty(0, dtype=np.int64))
    va = (np.frombuffer(trace.vaddr, dtype=np.int64) if len(trace.vaddr)
          else np.empty(0, dtype=np.int64))
    counts = me >> 2
    total_work = int(counts.sum())
    work_rows = (me & 2) != 0
    n_mem = len(me) - int(np.count_nonzero(work_rows))
    n_ops = len(trace.xmem)
    instructions = total_work + n_mem + n_ops
    mem_rows = ~work_rows
    addrs = va[mem_rows]
    writes = (me[mem_rows] & 1) != 0

    # -- The cascade ---------------------------------------------------------
    hits = [0] * num_levels
    misses = [0] * num_levels
    pf_fills = 0
    pf_hits = 0

    stride = memory.stride_prefetcher
    observe = None
    if stride is not None:
        # A fresh detector with the machine's parameters: the real
        # training logic, fed the estimator's LLC-reached stream.
        replica = MultiStridePrefetcher(
            streams=stride.max_streams, degree=stride.degree,
            line_bytes=stride.line_bytes,
            region_bytes=stride.region_bytes)
        observe = replica.observe

    line_mask = hier._line_mask
    llc = levels[last]

    def fill(level: int, line: int, dirty: bool,
             prefetched: bool = False) -> None:
        """Install ``line``; ripple a dirty victim down one level."""
        lv = levels[level]
        si = (line >> lv.line_shift) & lv.set_mask
        victim = lv.fill(si, line >> lv.tag_shift, dirty, prefetched)
        if victim is None or level == last:
            return
        vline = (victim[0] << lv.tag_shift) | (si << lv.line_shift)
        nxt = levels[level + 1]
        nsi = (vline >> nxt.line_shift) & nxt.set_mask
        ntag = vline >> nxt.tag_shift
        if nxt.resident(nsi, ntag):
            nxt.mark_dirty(nsi, ntag)     # silent merge, no promotion
        else:
            fill(level + 1, vline, True)

    for addr, w in zip(addrs.tolist(), writes.tolist()):
        line = (addr & line_mask if line_mask is not None
                else addr - (addr % line_bytes))
        hit_level = None
        llc_reached = False
        for i in range(num_levels):
            lv = levels[i]
            si = (line >> lv.line_shift) & lv.set_mask
            tag = line >> lv.tag_shift
            if lv.probe(si, tag):
                hits[i] += 1
                if w and i == 0:
                    lv.mark_dirty(si, tag)
                if i == last:
                    llc_reached = True
                    if lv.take_prefetched(si, tag):
                        pf_hits += 1
                hit_level = i
                break
            misses[i] += 1
            lv.record_miss(si)
        if hit_level != 0:
            top = hit_level if hit_level is not None else num_levels
            for i in range(top - 1, -1, -1):
                fill(i, line, w and i == 0)
        if hit_level is None:
            llc_reached = True
        if observe is not None and llc_reached:
            for target in observe(line):
                si = (target >> llc.line_shift) & llc.set_mask
                if not llc.resident(si, target >> llc.tag_shift):
                    pf_fills += 1
                    fill(last, target, False, prefetched=True)

    # -- Coarse timing --------------------------------------------------------
    issue = engine.issue_width
    issue_time = (total_work + n_mem + n_ops) / issue
    timing = memory.dram.timing
    service = timing.t_rcd + timing.t_cl + timing.t_burst
    overlap = max(1, engine.mshr.entries)
    est_misses = misses[last]
    stall = est_misses * service / overlap
    stats = EngineStats(
        cycles=issue_time + stall,
        instructions=instructions,
        mem_accesses=n_mem,
        xmem_instructions=n_ops,
        misses_to_memory=est_misses,
        stall_cycles=stall,
    )
    return AnalyticalEstimate(stats=stats, level_hits=hits,
                              level_misses=misses,
                              prefetch_fills=pf_fills,
                              prefetch_hits=pf_hits)


def estimate_packed(engine: TraceEngine, trace) -> EngineStats:
    """Tier entry point: estimated :class:`EngineStats` for ``trace``.

    The machine is left untouched (no cache/DRAM counters move); only
    ``engine.last_stats`` is set, to mirror the exact tiers' contract.
    """
    result = estimate(engine, trace)
    engine.last_stats = result.stats
    return result.stats
