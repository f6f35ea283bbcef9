"""The fused columnar interpreter: the ``packed`` engine tier.

:func:`run_vector` executes a :class:`PackedTrace` with statistics
bit-identical to the scalar :meth:`TraceEngine.run_packed` loop (and so
to :class:`repro.testing.oracles.ReferenceEngine`), restructured around
the observation that the expensive part of interpretation is
*per-event Python*, not the model arithmetic:

* **Chunked columnar probing.**  The dense columns are viewed as numpy
  ``int64`` arrays and consumed in fixed-size chunks.  Address
  decomposition (line/set/tag) is shift-and-mask over the whole chunk,
  and residency of every access against the first-level cache is a
  vectorized compare against a tag-table snapshot.
* **Run-length fast-forwarding.**  A maximal stretch whose accesses are
  all L1-resident (and not awaiting an in-flight prefetch) has a
  closed-form effect on the machine: counters advance by run totals,
  ``now`` advances by the run's exact issue-slot sum, and replacement
  state is replayed once per *unique line* in last-occurrence order
  (:meth:`Cache.apply_hit_run`) -- O(distinct lines), not O(events).
  L1 hits never enter the MSHR (the L1 latency is bounded by
  ``PIPELINED_LATENCY`` at eligibility time), never ripple fills, and
  never trigger the prefetchers, so nothing else in the machine can
  observe the difference.
* **Fused scalar loop.**  Events that can miss -- plus XMemOp
  boundaries -- run through a scalar path that inlines the engine /
  hierarchy / prefetcher / DRAM bookkeeping of the exact model into one
  loop body (same operations in the same order, so float accumulation
  is unchanged), instead of descending through six layers of method
  calls per access.  Classification itself is adaptive: after several
  consecutive chunks classify straight to the scalar loop (a
  miss-dense phase), the per-chunk numpy probe is skipped and
  re-attempted periodically -- the probe is a pure dispatch heuristic,
  so skipping it never changes results.

Exactness of the batched time accounting relies on the timing grid:
with a power-of-two issue width every batched increment is an exact
dyadic rational, so float addition over a run commutes with the
sequential order (no rounding occurs at any step while ``now`` stays
below ``2**48``).  :func:`eligible` checks this and every structural
assumption; when any fails, :func:`run_vector` falls back to
``run_packed`` -- the fused path is *never* allowed to be a different
model, only a faster evaluation of the same one.

Divergence from the reference engine and from ``run_packed`` is
fuzz-checked by the three-way ``packed`` lane (:mod:`repro.testing.fuzz`)
and pinned per kernel and per Use Case 2 machine in
``tests/cpu/test_vector_engine.py``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Set

try:
    import numpy as _np
except ImportError:          # pragma: no cover - numpy ships in the image
    _np = None

from repro.cpu.engine import EngineStats, TraceEngine
from repro.cpu.trace import PackedTrace
from repro.dram.bank import RowOutcome
from repro.dram.system import DramSystem
from repro.mem.cache import Cache, INVALID_TAG
from repro.mem.hierarchy import CacheHierarchy, _never_pin
from repro.mem.mshr import MSHRFile
from repro.mem.prefetch import MultiStridePrefetcher, XMemPrefetcher, _Stream
from repro.mem.replacement import (
    BRRIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    RRPV_MAX,
    RRPV_LONG,
    RandomPolicy,
    SRRIPPolicy,
)

#: Events per columnar chunk.
CHUNK = 4096
#: Blocked fraction above which a chunk skips the numpy machinery and
#: runs straight through the fused scalar loop.
SCALAR_FRACTION = 0.05
#: Segment length at or below which the batch paths use plain Python
#: loops: numpy's per-call overhead (slicing, masking, tolist on tiny
#: arrays) exceeds a direct walk for short inter-miss hit runs.
SMALL_SEGMENT = 64
#: Policy-kind codes for the fused loop.
_P_LRU, _P_RRIP, _P_RANDOM = 0, 1, 2


def dyadic_k(values, k_max: int = 12) -> Optional[int]:
    """Smallest ``k`` with every value an integer multiple of ``2**-k``.

    The batch path reorders float additions; that is exact only while
    every addend and every partial sum is exactly representable, i.e.
    all time quanta live on one dyadic grid and ``now`` stays small
    enough that grid points need at most 53 mantissa bits.
    """
    for k in range(k_max + 1):
        scale = 1 << k
        if all(float(v) * scale == int(v * scale) for v in values):
            return k
    return None

_dyadic_k = dyadic_k

def _isin(values, members):
    """``np.isin(values, members)`` for a hashed collection of ints.

    Hash lookups rather than numpy's set routines: those sort, and go
    through ``np.unique``, whose first call imports ``numpy.ma``; with
    the sort code paged in, that costs about 1.6 MB of resident memory
    for no speed gain at chunk size.
    """
    return _np.fromiter(map(members.__contains__, values.tolist()),
                        bool, len(values))


_POLICY_KIND = {
    LRUPolicy: _P_LRU,
    SRRIPPolicy: _P_RRIP,
    BRRIPPolicy: _P_RRIP,
    DRRIPPolicy: _P_RRIP,
    RandomPolicy: _P_RANDOM,
}

#: Replacement policies whose hit-path effect :meth:`Cache.apply_hit_run`
#: can replay in one call.  Shared with the co-run interleaver
#: (:mod:`repro.sim.corun`), whose batch eligibility gate is the same
#: argument over a different machine shape.
BATCHABLE_POLICIES = frozenset(_POLICY_KIND)


def eligible(engine: TraceEngine, trace) -> bool:
    """Whether ``(engine, trace)`` is served by the fused interpreter.

    Anything unrecognized -- wrapped components, exotic policies,
    non-power-of-two geometry, ``REPRO_CHECK`` hooks -- falls back to
    :meth:`TraceEngine.run_packed`, so the fused path's correctness
    domain is exactly the configurations the equivalence suite pins.
    Checked components fall back because the fused loop inlines the
    cache and MSHR operations the checks wrap: only the scalar loop
    reaches the per-operation checkers.
    """
    # Imported here: repro.sim imports the co-run engine, which
    # imports this module.
    from repro.sim.system import MemorySystem

    if _np is None or type(trace) is not PackedTrace:
        return False
    issue = engine.issue_width
    if issue & (issue - 1):
        return False
    if type(engine.mshr) is not MSHRFile or "reserve" in vars(engine.mshr):
        return False
    mem = engine.memory
    if type(mem) is not MemorySystem:
        return False
    if type(mem.dram) is not DramSystem:
        return False
    hier = mem.hierarchy
    if type(hier) is not CacheHierarchy or hier._line_mask is None:
        return False
    for cache in hier.levels:
        if type(cache) is not Cache or cache._line_shift is None:
            return False
        if "access" in vars(cache):
            return False
        if type(cache.policy) not in _POLICY_KIND:
            return False
    stride = mem.stride_prefetcher
    if stride is not None and type(stride) is not MultiStridePrefetcher:
        return False
    xmem_pf = mem.xmem_prefetcher
    if xmem_pf is not None and type(xmem_pf) is not XMemPrefetcher:
        return False
    if len(hier.levels) == 1 and (stride is not None
                                  or xmem_pf is not None):
        # Prefetches would fill the only level, breaking the batch
        # path's "L1 never holds prefetched tags" assumption.
        return False
    if hier.latencies[0] > engine.PIPELINED_LATENCY:
        return False
    if hier.levels[0]._prefetched_tags:
        return False
    if mem._prefetch_log is not None:
        return False
    timing = mem.dram.timing
    if _dyadic_k((1.0 / issue, engine.PIPELINED_LATENCY, timing.t_cl,
                  timing.t_rcd, timing.t_rp, timing.t_burst)) is None:
        return False
    if any(lat != int(lat) for lat in hier.latencies):
        return False
    return True


def run_vector(engine: TraceEngine, trace) -> EngineStats:
    """Execute ``trace``; bit-identical to ``engine.run_packed(trace)``.

    Falls back to ``run_packed`` whenever :func:`eligible` says no.
    """
    if not eligible(engine, trace):
        return engine.run_packed(trace)

    np = _np
    memory = engine.memory
    hier = memory.hierarchy
    dram = memory.dram
    mshr = engine.mshr
    reserve = mshr.reserve
    xmemlib = engine.xmemlib

    # -- Engine accumulators (mirroring run_packed's locals) ---------------
    now = 0.0
    issue = engine.issue_width
    slot = 1.0 / issue
    pipelined = engine.PIPELINED_LATENCY
    timing_ = dram.timing
    grid_k = _dyadic_k((slot, pipelined, timing_.t_cl, timing_.t_rcd,
                        timing_.t_rp, timing_.t_burst))
    # Exactness ceiling: grid points below 2**(52-k) use <= 52 mantissa
    # bits, so every addition in a batched sum is exact.
    now_limit = float(1 << (52 - grid_k))
    instructions = 0
    mem_accesses = 0
    xmem_instructions = 0
    misses_to_memory = 0
    stall_cycles = 0.0

    # -- Hierarchy state, hoisted per level --------------------------------
    caches = hier.levels
    num_levels = len(caches)
    last = num_levels - 1
    latencies = hier.latencies
    l1_latency = latencies[0]
    pin_predicate = hier.pin_predicate
    tags_lv = [c._tags for c in caches]
    dirty_lv = [c._dirty for c in caches]
    pinned_lv = [c._pinned for c in caches]
    vcount_lv = [c._valid_counts for c in caches]
    pcount_lv = [c._pinned_counts for c in caches]
    allways_lv = [c._all_ways for c in caches]
    ways_lv = [c.ways for c in caches]
    cstats_lv = [c.stats for c in caches]
    lshift_lv = [c._line_shift for c in caches]
    smask_lv = [c._set_mask for c in caches]
    tshift_lv = [c._tag_shift for c in caches]
    nsets_lv = [c.num_sets for c in caches]
    maxpin_lv = [c._max_pinned_ways for c in caches]
    pfdtags_lv = [c._prefetched_tags for c in caches]
    line_bytes = hier.line_bytes
    line_mask = hier._line_mask
    policy_lv = [c.policy for c in caches]
    pkind_lv = [_POLICY_KIND[type(c.policy)] for c in caches]
    stamp_lv = [getattr(c.policy, "_stamp", None) for c in caches]
    rrpv_lv = [getattr(c.policy, "_rrpv", None) for c in caches]
    drrip_lv = [type(c.policy) is DRRIPPolicy for c in caches]
    l1 = caches[0]
    l1_apply_hit_run = l1.apply_hit_run
    l1_tags = tags_lv[0]
    l1_shift = lshift_lv[0]
    l1_smask = smask_lv[0]
    l1_tshift = tshift_lv[0]
    l1_nsets = nsets_lv[0]
    l1_ways = ways_lv[0]

    # -- Memory-system state -----------------------------------------------
    mem_stats = memory.stats
    prefetch_ready = memory._prefetch_ready
    wbuf = memory._write_buffer
    drain_threshold = memory.write_drain_threshold
    drain_writes = memory.drain_writes
    llc_level = memory._llc_level
    stride = memory.stride_prefetcher
    stride_observe = stride.observe if stride is not None else None
    xmem_pf = memory.xmem_prefetcher
    xmem_on_miss = xmem_pf.on_demand_miss if xmem_pf is not None else None

    # -- DRAM state ---------------------------------------------------------
    addr_bank = dram._addr_bank
    timing = dram.timing
    t_burst = timing.t_burst
    channel_free = dram._channel_free
    dram_record = dram._record
    # The Ideal perfect-row-buffer system: every access is serviced as a
    # row hit (DramSystem._service's force_hit path).
    force_hit = dram.perfect_rbl
    OUT_HIT = RowOutcome.HIT

    # L1 evictions / new in-flight prefetches performed by scalar events
    # demote later chunk positions out of the batchable set.
    contam: Set[int] = set()

    def dram_read(line: int, t: float) -> float:
        """Inline of DramSystem.access_completes for a demand/prefetch
        read (same operations, same order)."""
        addr, bank = addr_bank(line)
        busy = bank.busy_until
        start = t if t > busy else busy
        outcome = OUT_HIT if force_hit else bank.classify(addr.row)
        data_ready = bank.access(addr.row, start, timing, force_hit)
        channel = addr.channel
        free_at = channel_free[channel]
        burst_start = data_ready if data_ready > free_at else free_at
        done = burst_start + t_burst
        channel_free[channel] = done
        dram_record(outcome, done - t, False)
        return done

    def fill_absent(level: int, line: int, dirty: bool, pinned_req: bool,
                    prefetch: bool) -> Optional[int]:
        """Inline of Cache.fill_absent (policy hooks included)."""
        set_idx = (line >> lshift_lv[level]) & smask_lv[level]
        tag = line >> tshift_lv[level]
        tags = tags_lv[level][set_idx]
        dirty_row = dirty_lv[level][set_idx]
        pinned_row = pinned_lv[level][set_idx]
        pcounts = pcount_lv[level]
        stats = cstats_lv[level]
        pkind = pkind_lv[level]
        policy = policy_lv[level]
        writeback = None
        vcounts = vcount_lv[level]
        if vcounts[set_idx] < ways_lv[level]:
            way = tags.index(INVALID_TAG)
            vcounts[set_idx] += 1
        else:
            if pcounts[set_idx]:
                candidates = [w for w in allways_lv[level]
                              if not pinned_row[w]]
                if not candidates:
                    candidates = allways_lv[level]
            else:
                candidates = allways_lv[level]
            if pkind == _P_LRU:
                stamp = stamp_lv[level][set_idx]
                way = min(candidates, key=stamp.__getitem__)
            elif pkind == _P_RRIP:
                rrpv = rrpv_lv[level][set_idx]
                highest = max(map(rrpv.__getitem__, candidates))
                if highest < RRPV_MAX:
                    bump = RRPV_MAX - highest
                    for w in candidates:
                        rrpv[w] += bump
                for w in candidates:
                    if rrpv[w] >= RRPV_MAX:
                        way = w
                        break
            else:
                way = policy.victim(set_idx, candidates)
            stats.evictions += 1
            victim_tag = tags[way]
            if dirty_row[way]:
                stats.writebacks += 1
                writeback = ((victim_tag * nsets_lv[level] + set_idx)
                             * line_bytes)
            pfd = pfdtags_lv[level]
            if pfd:
                pfd.discard((set_idx, victim_tag))
            if pinned_row[way]:
                pinned_row[way] = False
                pcounts[set_idx] -= 1
            if pkind == _P_LRU:
                stamp_lv[level][set_idx][way] = 0
            elif pkind == _P_RRIP:
                rrpv_lv[level][set_idx][way] = RRPV_MAX
            if level == 0:
                contam.add((victim_tag * l1_nsets + set_idx)
                           * line_bytes)
        tags[way] = tag
        dirty_row[way] = dirty
        want_pin = pinned_req and pcounts[set_idx] < maxpin_lv[level]
        if pinned_req and not want_pin:
            stats.pin_refusals += 1
        pinned_row[way] = want_pin
        if want_pin:
            stats.pinned_fills += 1
            pcounts[set_idx] += 1
        if prefetch:
            stats.prefetch_fills += 1
            pfdtags_lv[level].add((set_idx, tag))
        if pkind == _P_LRU:
            policy._clock += 1
            stamp_lv[level][set_idx][way] = policy._clock
        elif pkind == _P_RRIP:
            if want_pin:
                rrpv_lv[level][set_idx][way] = 0
            elif drrip_lv[level]:
                phase = set_idx % DRRIPPolicy.DUEL_PERIOD
                if phase == 1 or (phase != 0
                                  and policy._psel > policy._psel_half):
                    brrip = policy._brrip
                    brrip._fill_count += 1
                    if brrip._fill_count % brrip.LONG_INTERVAL_PERIOD == 0:
                        rrpv_lv[level][set_idx][way] = RRPV_LONG
                    else:
                        rrpv_lv[level][set_idx][way] = RRPV_MAX
                else:
                    rrpv_lv[level][set_idx][way] = RRPV_LONG
            else:
                policy.on_fill(set_idx, way, high_priority=False)
        else:
            policy.on_fill(set_idx, way, high_priority=want_pin)
        return writeback

    def buffer_write(line: int, t: float) -> None:
        mem_stats.writebacks += 1
        wbuf.append(line)
        if len(wbuf) >= drain_threshold:
            drain_writes(t)

    def prefetch_fill(line: int, t: float) -> None:
        """Inline of MemorySystem._prefetch over fill_prefetch_flat."""
        set_idx = (line >> lshift_lv[last]) & smask_lv[last]
        if (line >> tshift_lv[last]) in tags_lv[last][set_idx]:
            return
        wb = fill_absent(last, line, False, pin_predicate(line), True)
        mem_stats.prefetch_reads += 1
        prefetch_ready[line] = dram_read(line, t)
        contam.add(line)
        if wb is not None:
            buffer_write(wb, t)

    def scalar_range(begin: int, end: int) -> None:
        """The fused scalar interpreter over dense positions
        ``[begin, end)`` -- the exact model, one loop body."""
        nonlocal now, instructions, mem_accesses, misses_to_memory, \
            stall_cycles
        for vaddr, m in zip(tv[begin:end], tm[begin:end]):
            if m & 2:                        # Work block
                count = m >> 2
                now += count / issue
                instructions += count
                continue
            work = m >> 2                    # MemAccess
            if work:
                now += work / issue
                instructions += work
            instructions += 1
            mem_accesses += 1
            is_write = m & 1
            # ---- MemorySystem.access, inlined ----
            line = vaddr & line_mask
            # Hierarchy walk (access_flat).
            lookup = 0
            hit_level = None
            llc_prefetch_hit = False
            for i in range(num_levels):
                lookup += latencies[i]
                set_idx = (line >> lshift_lv[i]) & smask_lv[i]
                tag = line >> tshift_lv[i]
                tags = tags_lv[i][set_idx]
                stats = cstats_lv[i]
                stats.accesses += 1
                if tag not in tags:
                    stats.misses += 1
                    if drrip_lv[i]:
                        policy = policy_lv[i]
                        phase = set_idx % DRRIPPolicy.DUEL_PERIOD
                        if phase == 0:
                            if policy._psel < policy._psel_max:
                                policy._psel += 1
                        elif phase == 1:
                            if policy._psel > 0:
                                policy._psel -= 1
                    continue
                way = tags.index(tag)
                stats.hits += 1
                if is_write and i == 0:
                    dirty_lv[i][set_idx][way] = True
                pkind = pkind_lv[i]
                if pkind == _P_LRU:
                    policy = policy_lv[i]
                    policy._clock += 1
                    stamp_lv[i][set_idx][way] = policy._clock
                elif pkind == _P_RRIP:
                    rrpv_lv[i][set_idx][way] = 0
                pfd = pfdtags_lv[i]
                if pfd:
                    key = (set_idx, tag)
                    if key in pfd:
                        stats.prefetch_hits += 1
                        pfd.discard(key)
                        if i == last:
                            llc_prefetch_hit = True
                hit_level = i
                break
            mem_wbs = None
            if hit_level != 0:
                top = hit_level if hit_level is not None else num_levels
                for i in range(top - 1, -1, -1):
                    pinned = i == last and pin_predicate(line)
                    wb = fill_absent(i, line, bool(is_write) and i == 0,
                                     pinned, False)
                    if wb is not None:
                        j = i + 1
                        while True:
                            if j > last:
                                if mem_wbs is None:
                                    mem_wbs = []
                                mem_wbs.append(wb)
                                break
                            # Cache.fill: merge if resident, else
                            # fill_absent (ripple victims may land on
                            # resident lines).
                            sj = (wb >> lshift_lv[j]) & smask_lv[j]
                            tj = wb >> tshift_lv[j]
                            wj = tags_lv[j][sj]
                            if tj in wj:
                                dirty_lv[j][sj][wj.index(tj)] = True
                                break
                            wb = fill_absent(j, wb, True, False, False)
                            if wb is None:
                                break
                            j += 1
            t_lookup = now + lookup
            memory_read = hit_level is None
            if memory_read:
                completes = dram_read(line, t_lookup)
                if prefetch_ready:
                    prefetch_ready.pop(line, None)
                if is_write:
                    mem_stats.demand_writes += 1
                else:
                    mem_stats.demand_reads += 1
            else:
                completes = t_lookup
                if prefetch_ready:
                    ready = prefetch_ready.pop(line, None)
                    if ready is not None and ready > completes:
                        completes = ready
            if mem_wbs is not None:
                for wb in mem_wbs:
                    buffer_write(wb, t_lookup)
            reached_llc = memory_read or hit_level >= llc_level
            if stride_observe is not None and reached_llc:
                for target in stride_observe(line):
                    prefetch_fill(target, now)
            if xmem_on_miss is not None and (memory_read
                                             or llc_prefetch_hit):
                for target in xmem_on_miss(vaddr):
                    prefetch_fill(target, now)
            # ---- back in the engine ----
            if memory_read:
                misses_to_memory += 1
            if completes - now > pipelined:
                start = reserve(now, completes)
                if start > now:
                    stall_cycles += start - now
                    now = start
            now += slot

    # -- Specialized scalar interpreter --------------------------------------
    # The shipped machine shape -- three levels, LRU at L1, DRRIP at
    # L2/L3, pins and prefetched-tag bookkeeping only at the LLC -- gets
    # a second fused loop with every per-level table in its own local,
    # victim selection reduced to C-level ``min``/``index`` scans, dead
    # branches removed (no pins below the LLC, no prefetched tags below
    # the LLC), the stride prefetcher and DRAM bookkeeping inlined, and
    # all statistics accumulated in local integers that are flushed to
    # the counter objects once per run.  Any other shape uses the
    # generic ``scalar_range`` above; both maintain exact model state at
    # their call boundaries, so they interleave freely.
    use_specialized = (
        num_levels == 3
        and pkind_lv == [_P_LRU, _P_RRIP, _P_RRIP]
        and not drrip_lv[0] and drrip_lv[1] and drrip_lv[2]
        and (stride is None or stride._region_shift is not None)
        and not caches[1]._prefetched_tags
        and sum(caches[0]._pinned_counts) == 0
        and sum(caches[1]._pinned_counts) == 0
    )

    # Deferred statistics (flushed once, at end of run; sums commute
    # with the immediate updates of the generic/batch paths).
    c0a = c0h = c0m = c0ev = c0wb = 0
    c1a = c1h = c1m = c1ev = c1wb = 0
    c2a = c2h = c2m = c2ev = c2wb = 0
    c2pf = c2ph = c2pin = c2ref = 0
    m_dr = m_dw = m_pr = m_wb = 0
    d_rh = d_rc = d_rx = d_n = 0
    d_sum = 0.0
    dh_n = 0
    dh_tot = 0.0
    s_iss = s_alloc = 0
    ms_res = ms_full = 0

    def specialized_range(begin: int, end: int) -> None:
        nonlocal now, instructions, mem_accesses, misses_to_memory, \
            stall_cycles
        nonlocal c0a, c0h, c0m, c0ev, c0wb
        nonlocal c1a, c1h, c1m, c1ev, c1wb
        nonlocal c2a, c2h, c2m, c2ev, c2wb, c2pf, c2ph, c2pin, c2ref
        nonlocal m_dr, m_dw, m_pr, m_wb
        nonlocal d_rh, d_rc, d_rx, d_n, d_sum, dh_n, dh_tot
        nonlocal s_iss, s_alloc, ms_res, ms_full

        # Per-level tables in dedicated locals.
        tags0, tags1, tags2 = tags_lv
        dirty0, dirty1, dirty2 = dirty_lv
        vc0, vc1, vc2 = vcount_lv
        st0, st1, st2 = cstats_lv
        ls0, ls1, ls2 = lshift_lv
        sm0, sm1, sm2 = smask_lv
        ts0, ts1, ts2 = tshift_lv
        ns0, ns1, ns2 = nsets_lv
        ways0, ways1, ways2 = ways_lv
        allways1, allways2 = allways_lv[1], allways_lv[2]
        pinned2 = pinned_lv[2]
        pc2 = pcount_lv[2]
        maxpin2 = maxpin_lv[2]
        pfd2 = pfdtags_lv[2]
        lk1 = latencies[0]
        lk12 = lk1 + latencies[1]
        lk123 = lk12 + latencies[2]
        lb = line_bytes
        no_pin = pin_predicate is _never_pin

        # Policy state (bracketed: loaded here, stored on exit).
        l1pol = policy_lv[0]
        p1 = policy_lv[1]
        p2 = policy_lv[2]
        b1 = p1._brrip
        b2 = p2._brrip
        stamps0 = l1pol._stamp
        rrpv1 = p1._rrpv
        rrpv2 = p2._rrpv
        clk = l1pol._clock
        psel1 = p1._psel
        psel2 = p2._psel
        fc1 = b1._fill_count
        fc2 = b2._fill_count
        pmax1, phalf1 = p1._psel_max, p1._psel_half
        pmax2, phalf2 = p2._psel_max, p2._psel_half
        duel = DRRIPPolicy.DUEL_PERIOD
        lip = BRRIPPolicy.LONG_INTERVAL_PERIOD
        RMAX, RLONG = RRPV_MAX, RRPV_LONG
        ITAG = INVALID_TAG

        # Stride prefetcher, inlined.
        stride_on = stride is not None
        if stride_on:
            st_streams = stride._streams
            st_rs = stride._region_shift
            st_deg = stride.degree
            st_lb = stride.line_bytes
            st_max = stride.max_streams

        # DRAM, inlined (bank.classify/bank.access stay method calls:
        # they are the model's replaceable seam).
        dmemo = dram._decomposed
        chfree = dram._channel_free
        t_burst_ = timing_.t_burst
        OUT_CLOSED = RowOutcome.CLOSED
        dbuck = dram.stats.read_latency_hist.buckets

        # MSHR heap, inlined (stats deferred like the rest).
        mshr_comp = mshr._completions
        mshr_cap = mshr.entries

        def fa1(si, tg, dty):
            """L2 fill_absent: DRRIP, never pinned, never prefetched."""
            nonlocal fc1, c1ev, c1wb
            row = tags1[si]
            rr = rrpv1[si]
            wbl = None
            if vc1[si] < ways1:
                way = row.index(ITAG)
                vc1[si] = vc1[si] + 1
            else:
                if RMAX in rr:
                    way = rr.index(RMAX)
                else:
                    b = RMAX - max(rr)
                    for wy in allways1:
                        rr[wy] += b
                    way = rr.index(RMAX)
                c1ev += 1
                if dirty1[si][way]:
                    c1wb += 1
                    wbl = (row[way] * ns1 + si) * lb
            row[way] = tg
            dirty1[si][way] = dty
            ph = si % duel
            if ph == 1 or (ph != 0 and psel1 > phalf1):
                fc1 += 1
                rr[way] = RLONG if fc1 % lip == 0 else RMAX
            else:
                rr[way] = RLONG
            return wbl

        def fa2(si, tg, dty, pin_req, pref):
            """LLC fill_absent: DRRIP + pinning + prefetched tags."""
            nonlocal fc2, c2ev, c2wb, c2pf, c2pin, c2ref
            row = tags2[si]
            rr = rrpv2[si]
            pr = pinned2[si]
            wbl = None
            if vc2[si] < ways2:
                way = row.index(ITAG)
                vc2[si] = vc2[si] + 1
            else:
                if pc2[si]:
                    cands = [wy for wy in allways2 if not pr[wy]]
                    if not cands:
                        cands = allways2
                    hi = max(map(rr.__getitem__, cands))
                    if hi < RMAX:
                        b = RMAX - hi
                        for wy in cands:
                            rr[wy] += b
                    for wy in cands:
                        if rr[wy] >= RMAX:
                            way = wy
                            break
                else:
                    if RMAX in rr:
                        way = rr.index(RMAX)
                    else:
                        b = RMAX - max(rr)
                        for wy in allways2:
                            rr[wy] += b
                        way = rr.index(RMAX)
                c2ev += 1
                vt = row[way]
                if dirty2[si][way]:
                    c2wb += 1
                    wbl = (vt * ns2 + si) * lb
                if pfd2:
                    pfd2.discard((si, vt))
                if pr[way]:
                    pr[way] = False
                    pc2[si] = pc2[si] - 1
            row[way] = tg
            dirty2[si][way] = dty
            if pin_req and pc2[si] < maxpin2:
                pr[way] = True
                c2pin += 1
                pc2[si] = pc2[si] + 1
                rr[way] = 0
            else:
                if pin_req:
                    c2ref += 1
                pr[way] = False
                ph = si % duel
                if ph == 1 or (ph != 0 and psel2 > phalf2):
                    fc2 += 1
                    rr[way] = RLONG if fc2 % lip == 0 else RMAX
                else:
                    rr[way] = RLONG
            return wbl

        # The L1 decomposition is needed by every event: lift it out of
        # the loop as three vectorized shifts materialized to int lists
        # (Work rows carry vaddr 0; their decomposed values are unused).
        # Pure per-event counters are commutative sums, so they fold
        # into one vectorized pass per segment; only ``now`` accrual
        # stays per-event (each access's timing observes it in order).
        seg_ln = va[begin:end] & line_mask
        seg_m = me[begin:end]
        n_mem_seg = (end - begin) - int(np.count_nonzero(seg_m & 2))
        instructions += int((seg_m >> 2).sum()) + n_mem_seg
        mem_accesses += n_mem_seg
        c0a += n_mem_seg
        for vaddr, m, line, si0, tg0 in zip(
                tv[begin:end], tm[begin:end], seg_ln.tolist(),
                ((seg_ln >> ls0) & sm0).tolist(),
                (seg_ln >> ts0).tolist()):
            if m & 2:                        # Work block
                now += (m >> 2) / issue
                continue
            work = m >> 2                    # MemAccess
            if work:
                now += work / issue
            w = m & 1
            # ---- L1 ----
            row0 = tags0[si0]
            if tg0 in row0:
                c0h += 1
                way = row0.index(tg0)
                if w:
                    dirty0[si0][way] = True
                clk += 1
                stamps0[si0][way] = clk
                if prefetch_ready:
                    ready = prefetch_ready.pop(line, None)
                    completes = now + lk1
                    if ready is not None and ready > completes:
                        completes = ready
                    if completes - now > pipelined:
                        start = reserve(now, completes)
                        if start > now:
                            stall_cycles += start - now
                            now = start
                now += slot
                continue
            c0m += 1
            # ---- L2 ----
            si1 = (line >> ls1) & sm1
            tg1 = line >> ts1
            row1 = tags1[si1]
            c1a += 1
            llc_pf = False
            if tg1 in row1:
                c1h += 1
                rrpv1[si1][row1.index(tg1)] = 0
                hit_level = 1
                lookup = lk12
            else:
                c1m += 1
                ph = si1 % duel
                if ph == 0:
                    if psel1 < pmax1:
                        psel1 += 1
                elif ph == 1:
                    if psel1 > 0:
                        psel1 -= 1
                # ---- L3 ----
                si2 = (line >> ls2) & sm2
                tg2 = line >> ts2
                row2 = tags2[si2]
                c2a += 1
                if tg2 in row2:
                    c2h += 1
                    rrpv2[si2][row2.index(tg2)] = 0
                    if pfd2:
                        key = (si2, tg2)
                        if key in pfd2:
                            c2ph += 1
                            pfd2.discard(key)
                            llc_pf = True
                    hit_level = 2
                else:
                    c2m += 1
                    ph = si2 % duel
                    if ph == 0:
                        if psel2 < pmax2:
                            psel2 += 1
                    elif ph == 1:
                        if psel2 > 0:
                            psel2 -= 1
                    hit_level = None
                lookup = lk123
            # ---- fills (top-1 .. 0, each with its victim ripple) ----
            mem_wbs = None
            if hit_level is None:
                pin_req = False if no_pin else pin_predicate(line)
                wb2 = fa2(si2, tg2, False, pin_req, False)
                if wb2 is not None:
                    mem_wbs = [wb2]
            if hit_level is None or hit_level == 2:
                wb1 = fa1(si1, tg1, False)
                if wb1 is not None:
                    sj = (wb1 >> ls2) & sm2
                    tj = wb1 >> ts2
                    rowj = tags2[sj]
                    if tj in rowj:
                        dirty2[sj][rowj.index(tj)] = True
                    else:
                        wbx = fa2(sj, tj, True, False, False)
                        if wbx is not None:
                            if mem_wbs is None:
                                mem_wbs = [wbx]
                            else:
                                mem_wbs.append(wbx)
            # L1 fill_absent (LRU, never pinned/prefetched), inlined at
            # its only call site; ``row0`` is the probed set.
            if vc0[si0] < ways0:
                fway = row0.index(ITAG)
                vc0[si0] = vc0[si0] + 1
                wb0 = None
            else:
                st = stamps0[si0]
                fway = st.index(min(st))
                c0ev += 1
                if dirty0[si0][fway]:
                    c0wb += 1
                    wb0 = (row0[fway] * ns0 + si0) * lb
                else:
                    wb0 = None
            row0[fway] = tg0
            dirty0[si0][fway] = True if w else False
            clk += 1
            stamps0[si0][fway] = clk
            if wb0 is not None:
                sj = (wb0 >> ls1) & sm1
                tj = wb0 >> ts1
                rowj = tags1[sj]
                if tj in rowj:
                    dirty1[sj][rowj.index(tj)] = True
                else:
                    wbx = fa1(sj, tj, True)
                    if wbx is not None:
                        sk = (wbx >> ls2) & sm2
                        tk = wbx >> ts2
                        rowk = tags2[sk]
                        if tk in rowk:
                            dirty2[sk][rowk.index(tk)] = True
                        else:
                            wby = fa2(sk, tk, True, False, False)
                            if wby is not None:
                                if mem_wbs is None:
                                    mem_wbs = [wby]
                                else:
                                    mem_wbs.append(wby)
            # ---- timing ----
            t_lookup = now + lookup
            if hit_level is None:
                ent = dmemo.get(line)
                if ent is None:
                    ent = addr_bank(line)
                daddr, dbank = ent
                busy = dbank.busy_until
                dstart = t_lookup if t_lookup > busy else busy
                arow = daddr.row
                outc = OUT_HIT if force_hit else dbank.classify(arow)
                dready = dbank.access(arow, dstart, timing_, force_hit)
                dch = daddr.channel
                dfree = chfree[dch]
                dbs = dready if dready > dfree else dfree
                completes = dbs + t_burst_
                chfree[dch] = completes
                dlat = completes - t_lookup
                if outc is OUT_HIT:
                    d_rh += 1
                elif outc is OUT_CLOSED:
                    d_rc += 1
                else:
                    d_rx += 1
                d_n += 1
                d_sum += dlat
                dv = int(dlat)
                dbd = 1 if dv <= 1 else 1 << ((dv - 1).bit_length())
                dbuck[dbd] = dbuck.get(dbd, 0) + 1
                dh_n += 1
                dh_tot += dlat
                if prefetch_ready:
                    prefetch_ready.pop(line, None)
                if w:
                    m_dw += 1
                else:
                    m_dr += 1
            else:
                completes = t_lookup
                if prefetch_ready:
                    ready = prefetch_ready.pop(line, None)
                    if ready is not None and ready > completes:
                        completes = ready
            if mem_wbs is not None:
                for wbm in mem_wbs:
                    m_wb += 1
                    wbuf.append(wbm)
                    if len(wbuf) >= drain_threshold:
                        drain_writes(t_lookup)
            # ---- prefetchers (observe at `now`, as in the model) ----
            if stride_on and (hit_level is None or hit_level == 2):
                region = line >> st_rs
                stm = st_streams.get(region)
                if stm is None:
                    if len(st_streams) >= st_max:
                        del st_streams[next(iter(st_streams))]
                    st_streams[region] = _Stream(last_addr=line)
                    s_alloc += 1
                else:
                    del st_streams[region]
                    st_streams[region] = stm
                    delta = line - stm.last_addr
                    if delta != 0:
                        if delta == stm.stride:
                            stm.confirmations += 1
                        else:
                            stm.stride = delta
                            stm.confirmations = 1
                        stm.last_addr = line
                        if stm.confirmations >= 2:
                            pf_out = []
                            sdt = stm.stride
                            for pi in range(1, st_deg + 1):
                                tgt = line + sdt * pi
                                if tgt < 0:
                                    break
                                pl = tgt - (tgt % st_lb)
                                if pl not in pf_out:
                                    pf_out.append(pl)
                            s_iss += len(pf_out)
                            for target in pf_out:
                                psi = (target >> ls2) & sm2
                                ptg = target >> ts2
                                if ptg in tags2[psi]:
                                    continue
                                ppin = (False if no_pin
                                        else pin_predicate(target))
                                pwb = fa2(psi, ptg, False, ppin, True)
                                c2pf += 1
                                pfd2.add((psi, ptg))
                                m_pr += 1
                                ent = dmemo.get(target)
                                if ent is None:
                                    ent = addr_bank(target)
                                daddr, dbank = ent
                                busy = dbank.busy_until
                                dstart = now if now > busy else busy
                                arow = daddr.row
                                outc = (OUT_HIT if force_hit
                                        else dbank.classify(arow))
                                dready = dbank.access(arow, dstart,
                                                      timing_, force_hit)
                                dch = daddr.channel
                                dfree = chfree[dch]
                                dbs = (dready if dready > dfree
                                       else dfree)
                                pdone = dbs + t_burst_
                                chfree[dch] = pdone
                                dlat = pdone - now
                                if outc is OUT_HIT:
                                    d_rh += 1
                                elif outc is OUT_CLOSED:
                                    d_rc += 1
                                else:
                                    d_rx += 1
                                d_n += 1
                                d_sum += dlat
                                dv = int(dlat)
                                dbd = (1 if dv <= 1
                                       else 1 << ((dv - 1).bit_length()))
                                dbuck[dbd] = dbuck.get(dbd, 0) + 1
                                dh_n += 1
                                dh_tot += dlat
                                prefetch_ready[target] = pdone
                                if pwb is not None:
                                    m_wb += 1
                                    wbuf.append(pwb)
                                    if len(wbuf) >= drain_threshold:
                                        drain_writes(now)
            if xmem_on_miss is not None and (hit_level is None or llc_pf):
                for target in xmem_on_miss(vaddr):
                    psi = (target >> ls2) & sm2
                    ptg = target >> ts2
                    if ptg in tags2[psi]:
                        continue
                    ppin = False if no_pin else pin_predicate(target)
                    pwb = fa2(psi, ptg, False, ppin, True)
                    c2pf += 1
                    pfd2.add((psi, ptg))
                    m_pr += 1
                    ent = dmemo.get(target)
                    if ent is None:
                        ent = addr_bank(target)
                    daddr, dbank = ent
                    busy = dbank.busy_until
                    dstart = now if now > busy else busy
                    arow = daddr.row
                    outc = OUT_HIT if force_hit else dbank.classify(arow)
                    dready = dbank.access(arow, dstart, timing_, force_hit)
                    dch = daddr.channel
                    dfree = chfree[dch]
                    dbs = dready if dready > dfree else dfree
                    pdone = dbs + t_burst_
                    chfree[dch] = pdone
                    dlat = pdone - now
                    if outc is OUT_HIT:
                        d_rh += 1
                    elif outc is OUT_CLOSED:
                        d_rc += 1
                    else:
                        d_rx += 1
                    d_n += 1
                    d_sum += dlat
                    dv = int(dlat)
                    dbd = 1 if dv <= 1 else 1 << ((dv - 1).bit_length())
                    dbuck[dbd] = dbuck.get(dbd, 0) + 1
                    dh_n += 1
                    dh_tot += dlat
                    prefetch_ready[target] = pdone
                    if pwb is not None:
                        m_wb += 1
                        wbuf.append(pwb)
                        if len(wbuf) >= drain_threshold:
                            drain_writes(now)
            # ---- back in the engine ----
            if hit_level is None:
                misses_to_memory += 1
            if completes - now > pipelined:
                # MSHRFile.reserve, inlined (drain + reserve-or-stall).
                while mshr_comp and mshr_comp[0] <= now:
                    heappop(mshr_comp)
                start = now
                if len(mshr_comp) >= mshr_cap:
                    start = heappop(mshr_comp)
                    ms_full += 1
                heappush(mshr_comp, completes)
                ms_res += 1
                if start > now:
                    stall_cycles += start - now
                    now = start
            now += slot

        # Store the bracketed policy/prefetcher state back.
        l1pol._clock = clk
        p1._psel = psel1
        p2._psel = psel2
        b1._fill_count = fc1
        b2._fill_count = fc2

    heavy_scalar = specialized_range if use_specialized else scalar_range

    def flush_deferred() -> None:
        """Fold the specialized loop's local counters into the stats
        objects (exact: every counter is a commutative sum)."""
        s0, s1, s2 = cstats_lv
        s0.accesses += c0a
        s0.hits += c0h
        s0.misses += c0m
        s0.evictions += c0ev
        s0.writebacks += c0wb
        s1.accesses += c1a
        s1.hits += c1h
        s1.misses += c1m
        s1.evictions += c1ev
        s1.writebacks += c1wb
        s2.accesses += c2a
        s2.hits += c2h
        s2.misses += c2m
        s2.evictions += c2ev
        s2.writebacks += c2wb
        s2.prefetch_fills += c2pf
        s2.prefetch_hits += c2ph
        s2.pinned_fills += c2pin
        s2.pin_refusals += c2ref
        mem_stats.demand_reads += m_dr
        mem_stats.demand_writes += m_dw
        mem_stats.prefetch_reads += m_pr
        mem_stats.writebacks += m_wb
        ds = dram.stats
        ds.row_hits += d_rh
        ds.row_closed += d_rc
        ds.row_conflicts += d_rx
        ds.reads += d_n
        ds.read_latency_sum += d_sum
        hist = ds.read_latency_hist
        hist.count += dh_n
        hist.total += dh_tot
        if stride is not None:
            stride.stats.issued += s_iss
            stride.stats.stream_allocations += s_alloc
        mshr.stats.reservations += ms_res
        mshr.stats.full_stalls += ms_full

    # -- Batched application ------------------------------------------------

    va = np.frombuffer(trace.vaddr, dtype=np.int64) if len(trace.vaddr) \
        else np.empty(0, dtype=np.int64)
    me = np.frombuffer(trace.meta, dtype=np.int64) if len(trace.meta) \
        else np.empty(0, dtype=np.int64)
    tv = trace.vaddr
    tm = trace.meta

    def batch_apply(begin: int, end: int) -> None:
        """Fast-forward dense positions ``[begin, end)``: all accesses
        are L1 hits; Work blocks ride along.  Exact by the dyadic-grid
        argument in the module docstring."""
        nonlocal now, instructions, mem_accesses
        if end - begin <= SMALL_SEGMENT:
            # Short inter-miss hit runs: a direct walk beats numpy's
            # per-call overhead.  A dict keyed by line, re-inserted on
            # repeat, yields unique lines in last-occurrence order.
            total = 0
            n_mem = 0
            seen: dict = {}
            written = None
            for pos in range(begin, end):
                m = tm[pos]
                if m & 2:
                    total += m >> 2
                    continue
                total += m >> 2
                n_mem += 1
                ln = tv[pos] & line_mask
                if ln in seen:
                    del seen[ln]
                seen[ln] = None
                if m & 1:
                    if written is None:
                        written = {ln}
                    else:
                        written.add(ln)
            instructions += total + n_mem
            if total:
                now += total / issue
            if not n_mem:
                return
            mem_accesses += n_mem
            now += n_mem * slot
            replay = [((ln >> l1_shift) & l1_smask, ln >> l1_tshift)
                      for ln in seen]
            wr = (() if written is None else
                  [((ln >> l1_shift) & l1_smask, ln >> l1_tshift)
                   for ln in written])
            l1_apply_hit_run(n_mem, replay, wr)
            return
        m = me[begin:end]
        counts = m >> 2
        total = int(counts.sum())
        work_rows = (m & 2) != 0
        n_work = int(np.count_nonzero(work_rows))
        n_mem = (end - begin) - n_work
        instructions += total + n_mem
        if total:
            now += total / issue
        if not n_mem:
            return
        mem_accesses += n_mem
        now += n_mem * slot
        if n_work:
            mem_rows = ~work_rows
            lines = va[begin:end][mem_rows] & line_mask
            writes = (m[mem_rows] & 1) != 0
        else:
            lines = va[begin:end] & line_mask
            writes = (m & 1) != 0
        # Unique lines in last-occurrence order: a dict keeps the first
        # occurrence over the reversed run, and reversing its keys maps
        # that back (C-level, and no numpy sort code to page in).
        order = list(dict.fromkeys(reversed(lines.tolist())))
        order.reverse()
        replay = [((ln >> l1_shift) & l1_smask, ln >> l1_tshift)
                  for ln in order]
        if writes.any():
            written = [((ln >> l1_shift) & l1_smask, ln >> l1_tshift)
                       for ln in set(lines[writes].tolist())]
        else:
            written = ()
        l1_apply_hit_run(n_mem, replay, written)

    def batch_guarded(begin: int, end: int) -> None:
        """Apply ``[begin, end)`` as hit batches, splitting at positions
        whose line was contaminated (evicted from L1 or newly awaited
        from a prefetch) by an earlier scalar event of this chunk."""
        while begin < end:
            if contam:
                if end - begin <= SMALL_SEGMENT:
                    split = -1
                    for pos in range(begin, end):
                        if (tv[pos] & line_mask) in contam:
                            split = pos
                            break
                else:
                    hot = _isin(va[begin:end] & line_mask, contam)
                    bad = np.flatnonzero(hot)
                    split = begin + int(bad[0]) if bad.size else -1
                if split >= 0:
                    if split > begin:
                        batch_apply(begin, split)
                    scalar_range(split, split + 1)
                    begin = split + 1
                    continue
            batch_apply(begin, end)
            return

    # Adaptive probing: after several consecutive chunks classified
    # straight to the scalar loop, the workload is in a miss-dense
    # phase -- skip the (pure-heuristic) numpy classification for a
    # while and re-probe periodically.  Exact either way: the scalar
    # loop is the reference interpretation of any range.
    scalar_streak = 0
    scalar_skips = 0

    def process_range(begin: int, end: int) -> None:
        """One dense segment (no XMemOp inside), chunk by chunk."""
        nonlocal scalar_streak, scalar_skips
        pos = begin
        while pos < end:
            stop = pos + CHUNK
            if stop > end:
                stop = end
            if now >= now_limit:
                # Too large for exact batched accumulation (unreachable
                # in practice); finish the run scalar.
                heavy_scalar(pos, end)
                return
            if scalar_streak >= 4:
                heavy_scalar(pos, stop)
                pos = stop
                scalar_skips += 1
                if scalar_skips >= 12:
                    scalar_streak = 0
                    scalar_skips = 0
                continue
            contam.clear()
            v = va[pos:stop]
            m = me[pos:stop]
            is_mem = (m & 2) == 0
            if not is_mem.any():
                batch_apply(pos, stop)
                pos = stop
                continue
            lines = v & line_mask
            set_idx = (v >> l1_shift) & l1_smask
            tag = v >> l1_tshift
            table = np.array(l1_tags, dtype=np.int64)
            # One way at a time: chunk-sized temporaries only.
            resident = table[set_idx, 0] == tag
            for way in range(1, l1_ways):
                resident |= table[set_idx, way] == tag
            blocked = is_mem & ~resident
            if prefetch_ready:
                blocked |= is_mem & _isin(lines, prefetch_ready)
            n_blocked = int(np.count_nonzero(blocked))
            if n_blocked == 0:
                batch_apply(pos, stop)
                scalar_streak = 0
            elif n_blocked > SCALAR_FRACTION * (stop - pos):
                heavy_scalar(pos, stop)
                scalar_streak += 1
            else:
                scalar_streak = 0
                # Coalesce adjacent blocked positions into one scalar
                # call; batch the guarded gaps between them.
                cursor = pos
                run_start = -1
                run_end = -1
                for p in np.flatnonzero(blocked):
                    p = pos + int(p)
                    if p == run_end:
                        run_end = p + 1
                        continue
                    if run_start >= 0:
                        if run_start > cursor:
                            batch_guarded(cursor, run_start)
                        scalar_range(run_start, run_end)
                        cursor = run_end
                    run_start, run_end = p, p + 1
                if run_start >= 0:
                    if run_start > cursor:
                        batch_guarded(cursor, run_start)
                    scalar_range(run_start, run_end)
                    cursor = run_end
                if cursor < stop:
                    batch_guarded(cursor, stop)
            pos = stop

    # -- Drive the segments (XMemOp side table as in run_packed) -----------
    done = 0
    for idx, op in trace.xmem:
        if idx > done:
            process_range(done, idx)
            done = idx
        instructions += 1
        xmem_instructions += 1
        now += slot
        if xmemlib is not None:
            getattr(xmemlib, op.method)(*op.args)
    total_dense = len(tv)
    if total_dense > done:
        process_range(done, total_dense)

    flush_deferred()
    tail = mshr.latest_completion()
    if tail is not None and tail > now:
        now = tail
    mshr.flush()
    engine.last_stats = EngineStats(
        cycles=now,
        instructions=instructions,
        mem_accesses=mem_accesses,
        xmem_instructions=xmem_instructions,
        misses_to_memory=misses_to_memory,
        stall_cycles=stall_cycles,
    )
    return engine.last_stats
