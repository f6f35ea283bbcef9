"""The split interpreter: the production single-core engine.

:func:`run_shared` executes :class:`PackedTrace` runs on one or more
machines with statistics bit-identical to the scalar
:meth:`TraceEngine.run_packed` loop (and so to
:class:`repro.testing.oracles.ReferenceEngine`); :func:`run_vector` is
its one-machine case.  Interpretation cost is per-event Python, not
model arithmetic, so the interpreter decodes whole chunks of the dense
columns with numpy (line/set/tag by shift and mask) and runs each
event through scalar code that inlines the engine / hierarchy /
prefetcher / DRAM bookkeeping of the exact model -- the same
operations in the same order, so float accumulation is unchanged --
instead of descending through six layers of method calls per access.

**The private levels depend on the trace alone.**  The hierarchy is
inclusive-by-fill with no back-invalidation, prefetches fill only the
LLC, and XMem pins and prefetches only there.  So L1 and L2 hits,
fills, victims and writebacks, and the stride prefetcher's training,
are functions of the dense stream and the private parts' geometry,
policy and state -- the same on every machine of a point that differs
only at or below the LLC (baseline vs. XMem, LLC size, bandwidth).
The machine therefore runs split:

* a **front-end** (:func:`_front_end`) decodes each chunk, probes and
  fills L1 and L2 with both victim ripples, trains the stride
  prefetcher, and records every L1 miss -- its position, whether L2
  hit, its LLC-bound writebacks and its stride targets;
* a per-machine **back-end** (:func:`_back_end`) replays the records:
  LLC probe and fill, writebacks, DRAM, prefetch issue, the write
  drain, the MSHR file and model time.

Machines of one point whose private parts are equal run in lockstep
(:func:`_run_lockstep`): per chunk the front-end runs once, on the
first machine's own L1, L2 and stride prefetcher, and each back-end
consumes the chunk; at the end the other machines' private state and
counters are set to the front-end's.  Any other machine of the shape
runs alone through the same code (a one-machine group).

Exactness of the folded time accounting relies on the timing grid:
with a power-of-two issue width every increment is an exact dyadic
rational, so float addition over a run of L1 hits commutes with the
sequential order while ``now`` stays below ``2**(52-k)``; past that
ceiling each chunk is replayed event by event.  :func:`eligible` is
the one gate: the shipped machine shape (LRU L1, DRRIP L2 and LLC,
pins and prefetched tags only at the LLC) on that grid, with no
wrapped or ``REPRO_CHECK``-hooked component.  Every other machine runs
through ``run_packed`` -- the split path is *never* allowed to be a
different model, only a faster evaluation of the same one.

Divergence from the reference engine and from ``run_packed`` is
fuzz-checked by the ``packed`` lane (:mod:`repro.testing.fuzz`),
whose shared leg runs two machines in one call, and pinned per kernel,
per Use Case 2 machine and per sharing rule in
``tests/cpu/test_vector_engine.py``.
"""
from __future__ import annotations

from bisect import bisect_left
from copy import deepcopy
from heapq import heappop, heappush
from time import perf_counter
from typing import List, Optional, Sequence, Set

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
    ReplacementPolicy,
)

#: Events per columnar chunk.
CHUNK = 4096
#: A chunk index past every chunk (no event pending).
_NEVER = 1 << 62


def dyadic_k(values, k_max: int = 12) -> Optional[int]:
    """Smallest ``k`` with every value an integer multiple of ``2**-k``.

    Folded time accounting reorders float additions; that is exact only
    while every addend and every partial sum is exactly representable,
    i.e. all time quanta live on one dyadic grid and ``now`` stays
    small enough that grid points need at most 53 mantissa bits.
    """
    for k in range(k_max + 1):
        scale = 1 << k
        if all(float(v) * scale == int(v * scale) for v in values):
            return k
    return None

_dyadic_k = dyadic_k


def eligible(engine: TraceEngine, trace) -> bool:
    """Whether ``(engine, trace)`` runs on the split interpreter.

    The shipped three-level shape -- LRU L1, DRRIP L2 and LLC, pins and
    prefetched tags only at the LLC, a shift-form stride prefetcher --
    with unwrapped components on the dyadic timing grid.  Anything else
    -- wrapped components, other policies or depths, non-power-of-two
    issue widths, ``REPRO_CHECK`` hooks -- runs through
    :meth:`TraceEngine.run_packed`, so the split path's correctness
    domain is exactly the configurations the equivalence suite pins.
    Checked components fall back because the split loop inlines the
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
    if type(mem) is not MemorySystem or type(mem.dram) is not DramSystem:
        return False
    hier = mem.hierarchy
    if type(hier) is not CacheHierarchy or hier._line_mask is None:
        return False
    caches = hier.levels
    if len(caches) != 3 or hier.line_bytes < 8:
        return False
    for cache in caches:
        if type(cache) is not Cache or cache._line_shift is None:
            return False
        if "access" in vars(cache):
            return False
    if [type(c.policy) for c in caches] != [LRUPolicy, DRRIPPolicy,
                                            DRRIPPolicy]:
        return False
    if caches[0]._prefetched_tags or caches[1]._prefetched_tags:
        return False
    if any(caches[0]._pinned_counts) or any(caches[1]._pinned_counts):
        return False
    stride = mem.stride_prefetcher
    if stride is not None and (type(stride) is not MultiStridePrefetcher
                               or stride._region_shift is None):
        return False
    xmem_pf = mem.xmem_prefetcher
    if xmem_pf is not None and type(xmem_pf) is not XMemPrefetcher:
        return False
    if hier.latencies[0] > engine.PIPELINED_LATENCY:
        return False
    if mem._prefetch_log is not None:
        return False
    timing = mem.dram.timing
    if _dyadic_k((1.0 / issue, engine.PIPELINED_LATENCY, timing.t_cl,
                  timing.t_rcd, timing.t_rp, timing.t_burst)) is None:
        return False
    return all(lat == int(lat) for lat in hier.latencies)


#: Per-level state the front-end evolves (plus stats and policy state).
_CACHE_STATE = ("_tags", "_dirty", "_pinned", "_valid_counts",
                "_pinned_counts", "_prefetched_tags")


def _policy_state(policy) -> dict:
    """A replacement policy's state as plain comparable data."""
    return {k: _policy_state(v) if isinstance(v, ReplacementPolicy) else v
            for k, v in vars(policy).items()}


def _same_private(a: TraceEngine, ta: PackedTrace, b: TraceEngine,
                  tb: PackedTrace) -> bool:
    """The sharing gate: whether ``b`` may replay ``a``'s front-end --
    the same dense stream, and private parts (L1, L2, stride
    prefetcher) equal in geometry, policy, state and counters."""
    if not (ta.vaddr is tb.vaddr or ta.vaddr == tb.vaddr) or not (
            ta.meta is tb.meta or ta.meta == tb.meta):
        return False
    ma, mb = a.memory, b.memory
    if ma.hierarchy.line_bytes != mb.hierarchy.line_bytes:
        return False
    for ca, cb in zip(ma.hierarchy.levels[:2], mb.hierarchy.levels[:2]):
        if (ca.num_sets, ca.ways, ca._max_pinned_ways) != (
                cb.num_sets, cb.ways, cb._max_pinned_ways):
            return False
        if any(getattr(ca, n) != getattr(cb, n) for n in _CACHE_STATE):
            return False
        if ca.stats != cb.stats or \
                _policy_state(ca.policy) != _policy_state(cb.policy):
            return False
    sa, sb = ma.stride_prefetcher, mb.stride_prefetcher
    if sa is None or sb is None:
        return sa is sb
    return ((sa.max_streams, sa.degree, sa.line_bytes, sa.region_bytes)
            == (sb.max_streams, sb.degree, sb.line_bytes, sb.region_bytes)
            and list(sa._streams.items()) == list(sb._streams.items())
            and sa.stats == sb.stats)


def _copy_private(src: TraceEngine, dst: TraceEngine) -> None:
    """Set ``dst``'s L1, L2 and stride state and counters to ``src``'s
    (the end of a shared run: only the front-end machine evolved
    them)."""
    ms, md = src.memory, dst.memory
    for cs, cd in zip(ms.hierarchy.levels[:2], md.hierarchy.levels[:2]):
        for name in _CACHE_STATE:
            setattr(cd, name, deepcopy(getattr(cs, name)))
        vars(cd.stats).update(vars(cs.stats))
        vars(cd.policy).update(deepcopy(vars(cs.policy)))
    if ms.stride_prefetcher is not None:
        md.stride_prefetcher._streams = deepcopy(
            ms.stride_prefetcher._streams)
        vars(md.stride_prefetcher.stats).update(
            vars(ms.stride_prefetcher.stats))


def run_vector(engine: TraceEngine, trace) -> EngineStats:
    """Execute ``trace``; bit-identical to ``engine.run_packed(trace)``.

    The one-machine case of :func:`run_shared`.
    """
    return run_shared([engine], [trace])[0]


def run_shared(engines: Sequence[TraceEngine], traces: Sequence,
               seconds: Optional[List[float]] = None) -> List[EngineStats]:
    """Execute ``traces[k]`` on ``engines[k]`` for every ``k``; each
    result is bit-identical to ``engines[k].run_packed(traces[k])``.

    Machines that pass :func:`eligible` and whose dense streams and
    private parts are equal (:func:`_same_private`) run in lockstep on
    one front-end pass; an eligible machine with no twin is a
    one-machine group.  Every other machine runs through
    ``run_packed``.  ``seconds``, when given, is a list of
    ``len(engines) + 1`` floats that accumulates each machine's own
    wall seconds and, last, the seconds of the shared front-end passes.
    """
    if seconds is None:
        seconds = [0.0] * (len(engines) + 1)
    results: List[Optional[EngineStats]] = [None] * len(engines)
    groups: List[List[int]] = []
    for k, (engine, trace) in enumerate(zip(engines, traces)):
        if not eligible(engine, trace):
            t0 = perf_counter()
            results[k] = engine.run_packed(trace)
            seconds[k] += perf_counter() - t0
            continue
        for group in groups:
            lead = group[0]
            if _same_private(engines[lead], traces[lead], engine, trace):
                group.append(k)
                break
        else:
            groups.append([k])
    for group in groups:
        stats, front_s, own_s = _run_lockstep([engines[k] for k in group],
                                              [traces[k] for k in group])
        seconds[-1] += front_s
        for k, result, wall_s in zip(group, stats, own_s):
            results[k] = result
            seconds[k] += wall_s
    return results


def _run_lockstep(engines: List[TraceEngine], traces: List[PackedTrace]):
    """Run machines that share a dense stream and private parts: per
    chunk, one front-end pass on the first machine's L1, L2 and stride
    prefetcher, then every machine's back-end over the records.

    Returns the machines' stats, the front-end's seconds, and each
    machine's own (back-end) seconds.
    """
    lead = engines[0]
    front, front_finish = _front_end(lead, traces[0])
    l1 = lead.memory.hierarchy.levels[0]
    backs = [_back_end(engine, trace, l1)
             for engine, trace in zip(engines, traces)]
    front_s = 0.0
    own_s = [0.0] * len(engines)
    total = len(traces[0].vaddr)
    pos = 0
    while pos < total:
        stop = pos + CHUNK if pos + CHUNK < total else total
        t0 = perf_counter()
        chunk = front(pos, stop)
        t1 = perf_counter()
        front_s += t1 - t0
        for k, (consume, _) in enumerate(backs):
            consume(chunk)
            t2 = perf_counter()
            own_s[k] += t2 - t1
            t1 = t2
        # Records live one chunk: drop them before the next is built.
        chunk = None
        pos = stop
    t0 = perf_counter()
    instructions, mem_accesses = front_finish()
    for engine in engines[1:]:
        _copy_private(lead, engine)
    front_s += perf_counter() - t0
    results = []
    for k, (_, finish) in enumerate(backs):
        t0 = perf_counter()
        results.append(finish(instructions, mem_accesses))
        own_s[k] += perf_counter() - t0
    return results, front_s, own_s


def _front_end(engine: TraceEngine, trace: PackedTrace):
    """The private half of the split interpreter, on ``engine``'s own
    L1, L2 and stride prefetcher.

    Returns ``(chunk, finish)``.  ``chunk(begin, end)`` decodes dense
    positions ``[begin, end)``, probes and fills L1 and L2 (both victim
    ripples included), trains the stride prefetcher, and returns the
    chunk's records for :func:`_back_end`: ``(begin, n, ua, lines,
    line_set, rec_i, rec_code, rec_ext, u_end)``.  ``ua[i]`` counts the
    trace's issue slots up to chunk index ``i`` -- its Work block or
    its access's work included, the access's own slot not -- and
    ``u_end`` through the chunk; ``lines[i]`` is the access's line (-1
    on Work rows).  Each L1 miss is one record: its chunk index in
    ``rec_i``, ``line | write | l2_hit << 1 | extras << 2`` in
    ``rec_code``, and, when flagged, a ``rec_ext`` entry (L2 fill
    victim, L1-victim ripple victim, stride targets) -- the LLC-bound
    writebacks and prefetches, in model order.  A sentinel record
    ``(n, -1)`` ends the lists.  ``finish()`` flushes the counters and
    returns the trace's (instructions, mem_accesses).
    """
    np = _np
    memory = engine.memory
    hier = memory.hierarchy
    l1, l2 = hier.levels[0], hier.levels[1]
    line_mask = hier._line_mask
    va = np.frombuffer(trace.vaddr, dtype=np.int64) if len(trace.vaddr) \
        else np.empty(0, dtype=np.int64)
    me = np.frombuffer(trace.meta, dtype=np.int64) if len(trace.meta) \
        else np.empty(0, dtype=np.int64)
    tm = trace.meta
    tags0, tags1 = l1._tags, l2._tags
    dirty0, dirty1 = l1._dirty, l2._dirty
    vc0, vc1 = l1._valid_counts, l2._valid_counts
    ls0, ls1 = l1._line_shift, l2._line_shift
    sm0, sm1 = l1._set_mask, l2._set_mask
    ts0, ts1 = l1._tag_shift, l2._tag_shift
    ns0, ns1 = l1.num_sets, l2.num_sets
    ways0, ways1 = l1.ways, l2.ways
    allways1 = l2._all_ways
    lb = hier.line_bytes
    l1pol, p1 = l1.policy, l2.policy
    stamps0 = l1pol._stamp
    rrpv1 = p1._rrpv
    pmax1, phalf1 = p1._psel_max, p1._psel_half
    duel = DRRIPPolicy.DUEL_PERIOD
    lip = BRRIPPolicy.LONG_INTERVAL_PERIOD
    RMAX, RLONG = RRPV_MAX, RRPV_LONG
    ITAG = INVALID_TAG
    stride = memory.stride_prefetcher
    stride_on = stride is not None
    if stride_on:
        st_streams = stride._streams
        st_rs = stride._region_shift
        st_deg = stride.degree
        st_lb = stride.line_bytes
        st_max = stride.max_streams

    # Deferred counters (flushed by finish).
    c0a = c0m = c0ev = c0wb = 0
    c1a = c1h = c1m = c1ev = c1wb = 0
    s_iss = s_alloc = 0
    n_mem_total = 0
    u_base = 0
    psel1 = fc1 = 0

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

    def chunk(begin: int, end: int):
        nonlocal c0a, c0m, c0ev, c0wb, c1a, c1h, c1m, s_iss, s_alloc
        nonlocal n_mem_total, u_base, psel1, fc1
        n = end - begin
        seg_m = me[begin:end]
        seg_ln = va[begin:end] & line_mask
        is_mem = (seg_m & 2) == 0
        n_mem = int(np.count_nonzero(is_mem))
        cum = np.cumsum((seg_m >> 2) + is_mem)
        if n_mem < n:
            seg_ln[~is_mem] = -1
        ua = (cum - is_mem + u_base).tolist()
        u_end = u_base + int(cum[-1])
        u_base = u_end
        n_mem_total += n_mem
        lines = seg_ln.tolist()
        line_set = set(lines)
        rec_i: List[int] = []
        rec_code: List[int] = []
        rec_ext: list = []
        c0a += n_mem
        clk = l1pol._clock
        psel1 = p1._psel
        fc1 = p1._brrip._fill_count
        for i, m, line, si0, tg0 in zip(
                range(n), tm[begin:end], lines,
                ((seg_ln >> ls0) & sm0).tolist(),
                (seg_ln >> ts0).tolist()):
            if m & 2:                        # Work block
                continue
            row0 = tags0[si0]
            if tg0 in row0:                  # L1 hit
                way = row0.index(tg0)
                if m & 1:
                    dirty0[si0][way] = True
                clk += 1
                stamps0[si0][way] = clk
                continue
            c0m += 1
            code = line | (m & 1)
            # ---- L2 ----
            si1 = (line >> ls1) & sm1
            tg1 = line >> ts1
            row1 = tags1[si1]
            c1a += 1
            wb1 = None
            targets = None
            if tg1 in row1:
                c1h += 1
                rrpv1[si1][row1.index(tg1)] = 0
                code |= 2
            else:
                c1m += 1
                ph = si1 % duel
                if ph == 0:
                    if psel1 < pmax1:
                        psel1 += 1
                elif ph == 1:
                    if psel1 > 0:
                        psel1 -= 1
                wb1 = fa1(si1, tg1, False)
                # ---- stride training (the access reaches the LLC) ----
                if stride_on:
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
                                targets = []
                                for pi in range(1, st_deg + 1):
                                    tgt = line + delta * pi
                                    if tgt < 0:
                                        break
                                    pl = tgt - (tgt % st_lb)
                                    if pl not in targets:
                                        targets.append(pl)
                                s_iss += len(targets)
            # ---- L1 fill (LRU, never pinned or prefetched) ----
            wbx = None
            if vc0[si0] < ways0:
                fway = row0.index(ITAG)
                vc0[si0] = vc0[si0] + 1
            else:
                st = stamps0[si0]
                fway = st.index(min(st))
                c0ev += 1
                if dirty0[si0][fway]:
                    c0wb += 1
                    wb0 = (row0[fway] * ns0 + si0) * lb
                    sj = (wb0 >> ls1) & sm1
                    tj = wb0 >> ts1
                    rowj = tags1[sj]
                    if tj in rowj:
                        dirty1[sj][rowj.index(tj)] = True
                    else:
                        wbx = fa1(sj, tj, True)
            row0[fway] = tg0
            dirty0[si0][fway] = True if m & 1 else False
            clk += 1
            stamps0[si0][fway] = clk
            if wb1 is not None or wbx is not None or targets:
                code |= 4
                rec_ext.append((wb1, wbx, targets))
            rec_i.append(i)
            rec_code.append(code)
        l1pol._clock = clk
        p1._psel = psel1
        p1._brrip._fill_count = fc1
        rec_i.append(n)
        rec_code.append(-1)
        return (begin, n, ua, lines, line_set, rec_i, rec_code, rec_ext,
                u_end)

    def finish():
        s0, s1 = l1.stats, l2.stats
        s0.accesses += c0a
        s0.hits += c0a - c0m
        s0.misses += c0m
        s0.evictions += c0ev
        s0.writebacks += c0wb
        s1.accesses += c1a
        s1.hits += c1h
        s1.misses += c1m
        s1.evictions += c1ev
        s1.writebacks += c1wb
        if stride_on:
            stride.stats.issued += s_iss
            stride.stats.stream_allocations += s_alloc
        return u_base, n_mem_total

    return chunk, finish


def _back_end(engine: TraceEngine, trace: PackedTrace, l1: Cache):
    """The per-machine half of the split interpreter: the LLC, its
    writebacks, DRAM, prefetch issue, the write drain, the MSHR file
    and model time, over the records of :func:`_front_end`.

    ``l1`` is the front-end's L1 (the lockstep group's shared state).
    Returns ``(consume, finish)``: ``consume(chunk)`` replays one
    chunk, ``finish(instructions, mem_accesses)`` ends the run and
    returns its :class:`EngineStats`.

    Time between records folds in closed form: every L1 hit and Work
    block only adds issue slots, so ``now`` advances by the slot
    count since the last record -- exact by the dyadic-grid argument
    in the module docstring while ``now`` stays below ``now_limit``;
    past it, every position of a chunk is replayed as its own event.
    An L1 hit is replayed on its own too (a *special*) when its line
    awaits an in-flight prefetch: a prefetch that targets a line the
    front-end's L1 holds marks the line's next access, if that access
    hits L1, so it pops the prefetch and may wait in the MSHR file.
    """
    memory = engine.memory
    hier = memory.hierarchy
    llc = hier.levels[2]
    dram = memory.dram
    mshr = engine.mshr
    xmemlib = engine.xmemlib
    issue = engine.issue_width
    slot = 1.0 / issue
    pipelined = engine.PIPELINED_LATENCY
    timing = dram.timing
    grid_k = _dyadic_k((slot, pipelined, timing.t_cl, timing.t_rcd,
                        timing.t_rp, timing.t_burst))
    # Exactness ceiling: grid points below 2**(52-k) use <= 52 mantissa
    # bits, so every addition in a folded sum is exact.
    now_limit = float(1 << (52 - grid_k))
    lk1 = hier.latencies[0]
    lk12 = lk1 + hier.latencies[1]
    lk123 = lk12 + hier.latencies[2]
    pin_predicate = hier.pin_predicate
    no_pin = pin_predicate is _never_pin
    tv = trace.vaddr
    xops = trace.xmem
    n_ops = len(xops)

    tags2, dirty2, vc2 = llc._tags, llc._dirty, llc._valid_counts
    pinned2, pc2 = llc._pinned, llc._pinned_counts
    allways2 = llc._all_ways
    ls2, sm2, ts2 = llc._line_shift, llc._set_mask, llc._tag_shift
    ns2, ways2 = llc.num_sets, llc.ways
    maxpin2 = llc._max_pinned_ways
    pfd2 = llc._prefetched_tags
    lb = hier.line_bytes
    p2 = llc.policy
    b2 = p2._brrip
    rrpv2 = p2._rrpv
    pmax2, phalf2 = p2._psel_max, p2._psel_half
    duel = DRRIPPolicy.DUEL_PERIOD
    lip = BRRIPPolicy.LONG_INTERVAL_PERIOD
    RMAX, RLONG = RRPV_MAX, RRPV_LONG
    ITAG = INVALID_TAG
    not7 = ~7                # record code -> line

    mem_stats = memory.stats
    prefetch_ready = memory._prefetch_ready
    wbuf = memory._write_buffer
    drain_threshold = memory.write_drain_threshold
    drain_writes = memory.drain_writes
    xmem_pf = memory.xmem_prefetcher
    xmem_on_miss = xmem_pf.on_demand_miss if xmem_pf is not None else None

    # DRAM, inlined (bank.classify/bank.access stay method calls: they
    # are the model's replaceable seam).
    addr_bank = dram._addr_bank
    dmemo = dram._decomposed
    chfree = dram._channel_free
    t_burst = timing.t_burst
    force_hit = dram.perfect_rbl
    OUT_HIT, OUT_CLOSED = RowOutcome.HIT, RowOutcome.CLOSED
    dbuck = dram.stats.read_latency_hist.buckets
    mshr_comp = mshr._completions
    mshr_cap = mshr.entries

    ls0, sm0, ts0 = l1._line_shift, l1._set_mask, l1._tag_shift
    l1_tags = l1._tags

    # Machine state and deferred counters (flushed by finish).
    now = 0.0
    stall = 0.0
    misses = 0
    n_x = 0
    u_done = 0
    oi = 0
    psel2 = p2._psel
    fc2 = b2._fill_count
    c2a = c2h = c2m = c2ev = c2wb = 0
    c2pf = c2ph = c2pin = c2ref = 0
    m_dr = m_dw = m_pr = m_wb = 0
    d_rh = d_rc = d_rx = d_n = 0
    d_sum = 0.0
    ms_res = ms_full = 0
    # Lines that await a prefetch while L1 holds them and whose next
    # access lies beyond the chunks replayed so far.
    watch: Set[int] = {ln for ln in prefetch_ready
                       if (ln >> ts0) in l1_tags[(ln >> ls0) & sm0]}
    # The current chunk: its lines, their set, its miss indices, and
    # the sorted indices of its specials.
    lines: List[int] = []
    line_set: Set[int] = set()
    rec_i: List[int] = []
    specials: List[int] = []

    def fa2(si, tg, dty, pin_req, pref):
        """LLC fill_absent: DRRIP + pinning + prefetched tags."""
        nonlocal fc2, c2ev, c2wb, c2pin, c2ref
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
        if pref:
            pfd2.add((si, tg))
        return wbl

    def dram_read(line, t):
        """Inline of DramSystem.access_completes for a read."""
        nonlocal d_rh, d_rc, d_rx, d_n, d_sum
        ent = dmemo.get(line)
        if ent is None:
            ent = addr_bank(line)
        daddr, dbank = ent
        busy = dbank.busy_until
        dstart = t if t > busy else busy
        arow = daddr.row
        outc = OUT_HIT if force_hit else dbank.classify(arow)
        dready = dbank.access(arow, dstart, timing, force_hit)
        dch = daddr.channel
        dfree = chfree[dch]
        done = (dready if dready > dfree else dfree) + t_burst
        chfree[dch] = done
        dlat = done - t
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
        return done

    def prefetch(target, i):
        """Inline of MemorySystem._prefetch (LLC fill plus DRAM read)
        of a target absent from the LLC, at record index ``i``; a
        target the front-end's L1 holds gets its next L1 hit marked
        special."""
        nonlocal c2pf, m_pr, m_wb
        pwb = fa2((target >> ls2) & sm2, target >> ts2, False,
                  False if no_pin else pin_predicate(target), True)
        c2pf += 1
        m_pr += 1
        prefetch_ready[target] = dram_read(target, now)
        if pwb is not None:
            m_wb += 1
            wbuf.append(pwb)
            if len(wbuf) >= drain_threshold:
                drain_writes(now)
        if target in line_set:
            try:
                q = lines.index(target, i + 1)
            except ValueError:
                pass                 # accessed only earlier in the chunk
            else:
                mark(q)
                return
        if (target >> ts0) in l1_tags[(target >> ls0) & sm0]:
            watch.add(target)

    def mark(q):
        """Make chunk index ``q`` -- an awaited line's next access --
        a special when it is an L1 hit (no record)."""
        if rec_i[bisect_left(rec_i, q)] != q:
            k = bisect_left(specials, q)
            if k == len(specials) or specials[k] != q:
                specials.insert(k, q)

    def consume(chunk) -> None:
        nonlocal now, stall, misses, n_x, u_done, oi, psel2, fc2
        nonlocal lines, line_set, rec_i, specials
        nonlocal c2a, c2h, c2m, c2ph, m_dr, m_dw, m_wb, ms_res, ms_full
        begin, n, ua, lines, line_set, rec_i, rec_code, rec_ext, u_end = \
            chunk
        if now >= now_limit:
            # Past the exactness ceiling (unreachable in practice):
            # replay every position as its own event.
            in_rec = set(rec_i)
            specials = [q for q in range(n) if q not in in_rec]
        else:
            specials = []
        for target in list(watch):
            if target in line_set:
                watch.discard(target)
                mark(lines.index(target))
            elif (target >> ts0) not in l1_tags[(target >> ls0) & sm0]:
                watch.discard(target)
        spi = 0
        sp_at = specials[0] if specials else _NEVER
        op_at = xops[oi][0] - begin if oi < n_ops else _NEVER
        nxt = op_at if op_at < sp_at else sp_at
        xi = 0
        for i, code in zip(rec_i, rec_code):
            # XMemOps (each before its dense position) and specials
            # due before this record, in trace order.
            while i >= nxt:
                if op_at <= sp_at:
                    op = xops[oi][1]
                    oi += 1
                    op_at = xops[oi][0] - begin if oi < n_ops else _NEVER
                    n_x += 1
                    now += slot
                    if xmemlib is not None:
                        # The op may reach the LLC: hand it the policy.
                        p2._psel = psel2
                        b2._fill_count = fc2
                        getattr(xmemlib, op.method)(*op.args)
                        psel2 = p2._psel
                        fc2 = b2._fill_count
                else:
                    q = sp_at
                    spi += 1
                    sp_at = specials[spi] if spi < len(specials) \
                        else _NEVER
                    u = ua[q]
                    now += (u - u_done) / issue
                    u_done = u
                    line = lines[q]
                    if line >= 0:            # an L1 hit (not Work)
                        completes = now + lk1
                        ready = prefetch_ready.pop(line, None)
                        if ready is not None and ready > completes:
                            completes = ready  # the hit awaits its line
                        if completes - now > pipelined:
                            start = mshr.reserve(now, completes)
                            if start > now:
                                stall += start - now
                                now = start
                        now += slot
                        u_done += 1
                nxt = op_at if op_at < sp_at else sp_at
            if code < 0:                     # the chunk's sentinel
                break
            u = ua[i]
            now += (u - u_done) / issue
            u_done = u + 1
            line = code & not7
            mem_wbs = None
            llc_pf = False
            memread = False
            if code & 2:                     # L2 hit
                t_lookup = now + lk12
            else:
                t_lookup = now + lk123
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
                else:
                    c2m += 1
                    ph = si2 % duel
                    if ph == 0:
                        if psel2 < pmax2:
                            psel2 += 1
                    elif ph == 1:
                        if psel2 > 0:
                            psel2 -= 1
                    memread = True
                    wb = fa2(si2, tg2, False,
                             False if no_pin else pin_predicate(line),
                             False)
                    if wb is not None:
                        mem_wbs = [wb]
            targets = None
            if code & 4:
                # LLC-bound victims of the L2 fill and of the L1
                # victim's ripple, in that order.
                wb1, wbx, targets = rec_ext[xi]
                xi += 1
                for wb in (wb1, wbx):
                    if wb is None:
                        continue
                    sj = (wb >> ls2) & sm2
                    tj = wb >> ts2
                    rowj = tags2[sj]
                    if tj in rowj:
                        dirty2[sj][rowj.index(tj)] = True
                    else:
                        wb = fa2(sj, tj, True, False, False)
                        if wb is not None:
                            if mem_wbs is None:
                                mem_wbs = [wb]
                            else:
                                mem_wbs.append(wb)
            # ---- timing ----
            if memread:
                completes = dram_read(line, t_lookup)
                if prefetch_ready:
                    prefetch_ready.pop(line, None)
                if code & 1:
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
                for wb in mem_wbs:
                    m_wb += 1
                    wbuf.append(wb)
                    if len(wbuf) >= drain_threshold:
                        drain_writes(t_lookup)
            # ---- prefetchers (issue at `now`, as in the model) ----
            if targets or (xmem_on_miss is not None
                           and (memread or llc_pf)):
                n_sp = len(specials)
                if targets:
                    for target in targets:
                        if (target >> ts2) not in tags2[(target >> ls2)
                                                        & sm2]:
                            prefetch(target, i)
                if xmem_on_miss is not None and (memread or llc_pf):
                    for target in xmem_on_miss(tv[begin + i]):
                        if (target >> ts2) not in tags2[(target >> ls2)
                                                        & sm2]:
                            prefetch(target, i)
                if len(specials) != n_sp:
                    sp_at = specials[spi]
                    nxt = op_at if op_at < sp_at else sp_at
            # ---- back in the engine ----
            if memread:
                misses += 1
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
                    stall += start - now
                    now = start
            now += slot
        now += (u_end - u_done) / issue
        u_done = u_end
        lines = line_set = rec_i = specials = None

    def finish(instructions: int, mem_accesses: int) -> EngineStats:
        nonlocal now, n_x
        p2._psel = psel2
        b2._fill_count = fc2
        # XMemOps at the end of the stream when no chunk ran.
        for _, op in xops[oi:]:
            n_x += 1
            now += slot
            if xmemlib is not None:
                getattr(xmemlib, op.method)(*op.args)
        s2 = llc.stats
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
        hist.count += d_n
        hist.total += d_sum
        mshr.stats.reservations += ms_res
        mshr.stats.full_stalls += ms_full
        tail = mshr.latest_completion()
        if tail is not None and tail > now:
            now = tail
        mshr.flush()
        engine.last_stats = EngineStats(
            cycles=now,
            instructions=instructions + n_x,
            mem_accesses=mem_accesses,
            xmem_instructions=n_x,
            misses_to_memory=misses,
            stall_cycles=stall,
        )
        return engine.last_stats

    return consume, finish
