"""The split interpreter: the private-level front-end and the shared
LLC of both engines, and the single-core engine.

:func:`run_trace` (:meth:`TraceEngine.run`) executes a
:class:`PackedTrace` on one machine with statistics bit-identical to
:class:`repro.testing.oracles.ReferenceEngine`, the model's textbook
statement.  Interpretation cost is per-event Python, not model
arithmetic, so the interpreter decodes whole chunks of the dense
columns with numpy
(line/set/tag by shift and mask) and runs each event through scalar
code that inlines the engine / hierarchy / prefetcher bookkeeping of
the exact model -- the same operations in the same order, so float
accumulation is unchanged -- instead of descending through six layers
of method calls per access.  DRAM stays one method,
:meth:`~repro.dram.system.DramSystem.access_completes`.

**The private levels depend on the trace alone.**  The hierarchy is
inclusive-by-fill with no back-invalidation, prefetches fill only the
LLC, and XMem pins and prefetches only there.  So L1 and L2 hits,
fills, victims and writebacks, and the stride prefetcher's training,
are functions of the dense stream and the private parts' geometry,
policy and state -- the same on every machine of a point that differs
only at or below the LLC (baseline vs. XMem, LLC size, bandwidth), and
the same whatever a co-running core does to the shared LLC.  Every
run therefore runs split:

* a **front-end** (:func:`_front_end`) decodes each chunk, probes and
  fills L1 and L2 with both victim ripples, optionally trains a stride
  prefetcher, and records every L1 miss -- its position, whether L2
  hit, its LLC-bound writebacks and its stride targets;
* a **back-end** replays the records.  Here it is the single-core
  machine's own (:func:`_back_end`: the LLC, writebacks, DRAM,
  prefetch issue, the write drain, the MSHR file and model time); the
  co-run engine (:mod:`repro.sim.corun`) replays each core's records
  at its yield points through the shared LLC.

Both engines take their front-end from one store,
:func:`recorded_front_end`: it is computed once per dense stream and
pre-run private state (L1, L2 and, single-core, the stride
prefetcher) and replayed by every later run that starts from the same
state -- the XMem machine after the baseline one, another LLC size or
bandwidth, the other co-run mode.  A single-core entry also keeps the
L1's resident lines at each chunk end, which the back-end reads for
the prefetches it issues; a co-run entry keeps none.  Both back-ends
build the LLC from one builder, :func:`_llc_ops` (probe, fill, victim
ripple, prefetch issue), and pass it what differs: the pin predicate
and what becomes of a dirty LLC victim (the single-core write buffer,
or co-run's immediate DRAM write).

**MRU runs fold.**  An access whose line is the last one its L1 set
saw is an LRU hit by construction, and its only effects are the line's
stamp and dirty bit.  Per chunk one numpy pass (a stable sort by L1
set) splits each set's accesses into *runs* of one line; the
front-end interprets only each run's first access, its *leader*: an
L1 hit sets the dirty bit if any write of the run is set, a fill
takes the run's OR as its dirty bit, and either stamps the line with
the clock of the run's last access.  The LRU clock advances by the
chunk's accesses at its end.  Nothing else touches the set between a
leader and its last follower, so no victim choice reads the early
stamp or dirty bit and the end state is the access-by-access one.  A
run cut by a chunk end is not folded across it.  An L1 miss is always
a leader, so the records -- and the back-end's specials, per position
-- are unchanged.  An L1 hit is one dict lookup in the front-end's map
of resident lines to ways.

:func:`check_shape` is the one gate: the shipped machine shape (the
:data:`LEVEL_POLICIES` -- LRU L1, DRRIP L2 and LLC -- pins and
prefetched tags only at the LLC, integer latencies with pipelined
first-level hits); any other machine is refused with
:class:`ConfigurationError`.  Time between L1 misses folds in closed
form when the timing grid is dyadic (:func:`fold_ceiling`): with a
power-of-two issue width and dyadic DRAM timings every increment is an
exact dyadic rational, so float addition over a run of L1 hits
commutes with the sequential order while ``now`` stays below
``2**(52-k)``.  Past that ceiling, and on any other grid (issue width
3), every position is replayed as its own event.

With ``REPRO_CHECK`` set (read once per run) the interpreter checks
itself (:func:`~repro.testing.checks.check_cache_set`): every L2 and
LLC fill re-derives its set as it happens; at every chunk end each L1
set the chunk touched and each L2 and LLC set its records probed is
re-derived, the L1's valid lines are held to fill conservation
(:func:`~repro.testing.checks.check_fill_conservation`), its clock and
last-accessed stamps to the fold
(:func:`~repro.testing.checks.check_lru_fold`) and its line index to
its tags; every single-core run ends in
:func:`~repro.testing.checks.check_engine_run`, and every replay of a
stored front-end recomputes it and compares the records and end
state.  The checked closures
are built instead of the plain ones, so an unchecked run pays nothing.
Both engines reserve MSHRs through :meth:`MSHRFile.reserve
<repro.mem.mshr.MSHRFile.reserve>`, whose checked form bounds every
reservation.

Divergence from the reference engine is fuzz-checked by the ``packed``
lane (:mod:`repro.testing.fuzz`), whose replay leg runs three fresh
machines over a stored front-end, and pinned per kernel, per Use Case
2 machine and per sharing rule in ``tests/cpu/test_vector_engine.py``.
"""
from __future__ import annotations

import pickle
import threading
import weakref
from array import array
from bisect import bisect_left
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.errors import ConfigurationError
from repro.cpu.engine import EngineStats, TraceEngine
from repro.cpu.trace import PackedTrace
from repro.dram.system import check_compiled
from repro.mem.cache import Cache, INVALID_TAG
from repro.mem.hierarchy import _never_pin
from repro.mem.prefetch import _Stream
from repro.mem.replacement import (
    BRRIPPolicy,
    DRRIPPolicy,
    POLICIES,
    RRPV_MAX,
    RRPV_LONG,
    ReplacementPolicy,
)
from repro.testing import checks as _checks

#: Events per columnar chunk.
CHUNK = 4096
#: A chunk index past every chunk (no event pending).
_NEVER = 1 << 62

#: The replacement policy of each level the split interpreter and the
#: co-run engine are written for (the ``scaled_config`` shape).
LEVEL_POLICIES = (("L1", "lru"), ("L2", "drrip"), ("L3", "drrip"))


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


def fold_ceiling(issue_width: int, timing, latencies=()) -> float:
    """The exactness ceiling of folded time, for both engines.

    Every time quantum -- the issue slot, the cache ``latencies``, the
    DRAM ``timing`` -- on one grid ``2**-k`` puts every grid point
    below ``2**(52-k)`` within 52 mantissa bits, so every addition of a
    folded sum below that ceiling is exact.  Off any dyadic grid
    nothing folds: the ceiling is 0.
    """
    k = dyadic_k((1.0 / issue_width, *latencies, timing.t_cl,
                   timing.t_rcd, timing.t_rp, timing.t_burst))
    return 0.0 if k is None else float(1 << (52 - k))


def check_shape(engine: TraceEngine) -> None:
    """Refuse a machine the split interpreter is not written for, with
    a :class:`ConfigurationError` naming the component.

    The shape is the shipped three-level one: the policies of
    :data:`LEVEL_POLICIES` (LRU L1, DRRIP L2 and LLC), power-of-two
    lines of at least 8 bytes, integer latencies with first-level hits
    pipelined, pins and prefetched tags only at the LLC, and a
    power-of-two stride-prefetcher region, all behind a
    :class:`~repro.sim.system.MemorySystem` whose DRAM runs the access
    path compiled from its mapping's bit layout.  Components carrying
    ``REPRO_CHECK`` wrappers pass: the interpreter inlines what they
    wrap and checks it itself.
    """
    # Imported here: the repro.sim package imports the co-run engine,
    # which imports this module.
    from repro.sim.system import MemorySystem

    mem = engine.memory
    if not isinstance(mem, MemorySystem):
        raise ConfigurationError(
            f"the engine's memory must be a MemorySystem, not "
            f"{type(mem).__name__}")
    hier = mem.hierarchy
    if hier.line_bytes < 8:
        raise ConfigurationError(
            f"cache lines must be at least 8 bytes: {hier.line_bytes}")
    caches = hier.levels
    if len(caches) != len(LEVEL_POLICIES):
        raise ConfigurationError(
            f"the engine expects an L1/L2/L3 hierarchy, not "
            f"{len(caches)} levels")
    for cache, (name, policy) in zip(caches, LEVEL_POLICIES):
        if type(cache.policy) is not POLICIES[policy]:
            raise ConfigurationError(
                f"the engine's {name} must use {policy!r}, not "
                f"{cache.policy.name!r}")
    for cache in caches[:2]:
        if cache._prefetched_tags or any(cache._pinned_counts):
            raise ConfigurationError(
                f"{cache.name} holds pinned or prefetched lines; only "
                f"the LLC may")
    stride = mem.stride_prefetcher
    if stride is not None and stride._region_shift is None:
        raise ConfigurationError(
            f"the stride prefetcher's region must be a power of two: "
            f"{stride.region_bytes}")
    if any(lat != int(lat) for lat in hier.latencies):
        raise ConfigurationError(
            f"cache latencies must be whole cycles: {hier.latencies}")
    if hier.latencies[0] > engine.PIPELINED_LATENCY:
        raise ConfigurationError(
            f"{caches[0].name} latency {hier.latencies[0]} exceeds the "
            f"pipelined {engine.PIPELINED_LATENCY} cycles")
    check_compiled(mem.dram, "the engine's DRAM")


#: Per-level state the front-end evolves (plus stats and policy state).
_CACHE_STATE = ("_tags", "_dirty", "_pinned", "_valid_counts",
                "_pinned_counts", "_prefetched_tags")


def _policy_state(policy) -> dict:
    """A replacement policy's state as plain comparable data."""
    return {k: _policy_state(v) if isinstance(v, ReplacementPolicy) else v
            for k, v in vars(policy).items()}


def _set_policy(policy, state: dict) -> None:
    """Set a replacement policy to a :func:`_policy_state` (taken
    over, not copied)."""
    for k, v in state.items():
        current = getattr(policy, k)
        if isinstance(current, ReplacementPolicy):
            _set_policy(current, v)
        else:
            setattr(policy, k, v)


def _level_state(cache: Cache) -> tuple:
    """One private level's geometry, contents, counters and policy
    state as plain comparable data (live references: deep-copy it to
    keep it)."""
    return ((cache.num_sets, cache.ways, cache._max_pinned_ways,
             cache.line_bytes),
            [getattr(cache, name) for name in _CACHE_STATE],
            vars(cache.stats), _policy_state(cache.policy))


def _set_level(cache: Cache, state: tuple) -> None:
    """Set a level's contents, counters and policy state to a
    :func:`_level_state` of the same geometry (taken over, not
    copied)."""
    _, contents, stats, policy = state
    for name, value in zip(_CACHE_STATE, contents):
        setattr(cache, name, value)
    vars(cache.stats).update(stats)
    _set_policy(cache.policy, policy)


def run_trace(engine: TraceEngine, trace: PackedTrace) -> EngineStats:
    """Execute ``trace`` on ``engine``: statistics bit-identical to a
    :class:`~repro.testing.oracles.ReferenceEngine` run of the same
    trace on the same machine.

    The machine must pass :func:`check_shape`.  Its L1, L2 and stride
    prefetcher run through :func:`recorded_front_end` -- computed, or
    replayed when an earlier run of the same dense stream started from
    the same private state -- and its own back-end
    (:func:`_back_end`) replays the records chunk by chunk.
    ``REPRO_CHECK`` is read once, here.
    """
    check_shape(engine)
    checking = _checks.enabled()
    memory = engine.memory
    hier = memory.hierarchy
    # The back-end reads the L1 as the run finds it: build it before
    # the front-end's first chunk.
    consume, finish = _back_end(engine, trace, checking)
    chunks, front_finish = recorded_front_end(
        hier.levels[0], hier.levels[1], memory.stride_prefetcher,
        hier.line_bytes, trace, checking, l1_ends=True)
    for chunk in chunks:
        consume(chunk)
    return finish(*front_finish())


def _columns(trace: PackedTrace):
    """The trace's ``vaddr`` and ``meta`` columns as int64 numpy views."""
    return tuple(np.frombuffer(col, dtype=np.int64) if len(col)
                 else np.empty(0, dtype=np.int64)
                 for col in (trace.vaddr, trace.meta))


def _chunk_lines(va, me, begin: int, end: int, line_mask: int) -> list:
    """The lines of dense positions ``[begin, end)``, -1 on Work rows."""
    seg = va[begin:end] & line_mask
    seg[(me[begin:end] & 2) != 0] = -1
    return seg.tolist()


#: The largest value an ``array('i')`` holds.
_INT_MAX = (1 << (8 * array("i").itemsize - 1)) - 1


def _narrow(values) -> array:
    """``values`` as an ``array('i')``, or as an ``array('q')`` when
    one of them does not fit: a stored front-end's records are half
    the size for every address below 2**31."""
    try:
        return array("i", values)
    except OverflowError:
        return array("q", values)


def _front_end(l1: Cache, l2: Cache, stride, line_bytes: int,
               trace: PackedTrace, checking: bool, l1_ends: bool = False):
    """The private half of the split interpreter, on one machine's or
    one co-run core's own L1 and L2, and its stride prefetcher unless
    ``stride`` is None (a co-run machine's is shared and trains at its
    yield points).

    Returns ``(chunk, finish)``.  ``chunk(begin, end)`` decodes dense
    positions ``[begin, end)``, probes and fills L1 and L2 (both victim
    ripples included), trains the stride prefetcher, and returns the
    chunk's records, ``(begin, n, rec_i, rec_code, rec_ext, rec_u,
    rec_pf, l1_end)``, each list an ``array('i')``, or an
    ``array('q')`` where a value needs 64 bits.  Each L1 miss is
    one record: its chunk index in ``rec_i``, ``line | write | l2_hit
    << 1 | writebacks << 2`` in ``rec_code``, and ``rec_u``, the
    trace's issue slots before its position's own work; a sentinel
    record ``(n, -1, u_end)`` -- ``u_end`` the slots through the chunk
    -- ends the three.  A flagged record's LLC-bound writebacks (the
    L2 fill's victim, then the L1 victim's ripple victim; -1 for none)
    are two ``rec_ext`` entries.  ``rec_pf`` holds ``i, k`` and the
    ``k`` stride targets of each record ``i`` that has some (``()``
    without a stride prefetcher).  ``l1_end`` is, with ``l1_ends``,
    the L1's resident lines at the chunk's end, else None.
    ``finish()`` flushes the counters and returns the trace's
    (instructions, mem_accesses).  A trace with a negative address is
    refused with :class:`ConfigurationError`, naming its first
    position.

    The L1 is probed once per MRU run, not per access.  A run is a
    set's accesses to one line in a row within the chunk; its first
    access, the leader, is interpreted with the run's OR of write
    flags as its dirty bit and the clock of the run's last access as
    its stamp (the chunk's start clock + 1 + that access's memory
    ordinal), and the L1's clock advances by the chunk's memory
    accesses at its end.  Exact: the followers hit by construction
    and nothing else touches the set before the last of them.  A miss
    is a leader, and its record keeps the leader's own write bit.  A
    dict of the L1's resident lines to their ways, built from the
    tags when the run starts and kept by the L1 fills, answers the
    leader's probe; the front-end owns the L1 until ``finish``.

    When ``checking``, every L2 fill re-derives its set, and ``chunk``
    ends by re-deriving every L1 and L2 set it probed, holding the
    L1's valid lines to fill conservation, its clock and the stamps of
    the sets it touched to the fold, and the line index to the tags.

    The caches hold the trace's own addresses: a co-run core adds its
    address-space offset to a record's lines where they leave the core.
    """
    line_mask = -line_bytes
    va, me = _columns(trace)
    if len(va) and va.min() < 0:
        # A negative line would alias invalid ways (tag -1) and the
        # Work marker of a chunk's lines.
        pos = int(np.flatnonzero(va < 0)[0])
        raise ConfigurationError(
            f"negative address {int(va[pos]):#x} at trace position {pos}")
    tags0, tags1 = l1._tags, l2._tags
    dirty0, dirty1 = l1._dirty, l2._dirty
    vc0, vc1 = l1._valid_counts, l2._valid_counts
    ls0, ls1 = l1._line_shift, l2._line_shift
    sm0, sm1 = l1._set_mask, l2._set_mask
    ts0, ts1 = l1._tag_shift, l2._tag_shift
    ns0, ns1 = l1.num_sets, l2.num_sets
    ways0, ways1 = l1.ways, l2.ways
    allways1 = l2._all_ways
    lb = line_bytes
    l1pol, p1 = l1.policy, l2.policy
    stamps0 = l1pol._stamp
    set_dtype = np.uint16 if ns0 <= 1 << 16 else np.int64
    rrpv1 = p1._rrpv
    pmax1, phalf1 = p1._psel_max, p1._psel_half
    duel = DRRIPPolicy.DUEL_PERIOD
    lip = BRRIPPolicy.LONG_INTERVAL_PERIOD
    RMAX, RLONG = RRPV_MAX, RRPV_LONG
    ITAG = INVALID_TAG
    # The L1's resident lines and their ways: an L1 hit is one dict
    # lookup, not a scan of its set's tags.  Only the L1 fill below
    # changes it.
    where0 = {(tg * ns0 + si) * lb: way for si, row in enumerate(tags0)
              for way, tg in enumerate(row) if tg != ITAG}
    way_of = where0.get
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
        is_mem = (seg_m & 2) == 0
        n_mem = int(np.count_nonzero(is_mem))
        slots = (seg_m >> 2) + is_mem
        cum = np.cumsum(slots)
        # Issue slots before each position's own work.
        pre = cum - slots + u_base
        u_end = u_base + int(cum[-1])
        u_base = u_end
        n_mem_total += n_mem
        rec_i: List[int] = []
        rec_code: List[int] = []
        rec_ext: List[int] = []
        rec_pf: List[int] = []
        c0a += n_mem
        psel1 = p1._psel
        fc1 = p1._brrip._fill_count
        # MRU runs: an access whose line is the one its L1 set saw
        # last in this chunk hits by construction, and nothing else
        # touches the set before it.  Only a run's leader is
        # interpreted, with the run's OR of write flags as its dirty
        # bit and its last access's clock as its stamp (the chunk's
        # start clock + 1 + that access's memory ordinal).
        mpos = np.flatnonzero(is_mem)
        mln = va[begin:end][mpos] & line_mask
        mw = seg_m[mpos] & 1
        msi = (mln >> ls0) & sm0
        # Memory ordinals in set order, time order within a set; a line
        # fixes its set, so a run starts wherever the line changes.
        order = np.argsort(msi.astype(set_dtype), kind="stable")
        starts = np.flatnonzero(np.diff(mln[order], prepend=-1))
        # Scatter each run's OR and last ordinal to its leader's
        # ordinal; the ``lead`` mask reads them back in time order.
        lead_ord = order[starts]
        lead = np.zeros(n_mem, dtype=bool)
        lead[lead_ord] = True
        run_w = np.empty(n_mem, dtype=bool)
        run_w[lead_ord] = np.maximum.reduceat(mw[order], starts)
        run_last = np.empty(n_mem, dtype=np.int64)
        run_last[lead_ord] = np.maximum.reduceat(order, starts)
        lln = mln[lead]
        for i, line, si0, w, dty, stamp in zip(
                mpos[lead].tolist(), lln.tolist(), msi[lead].tolist(),
                mw[lead].tolist(), run_w[lead].tolist(),
                (run_last[lead] + (l1pol._clock + 1)).tolist()):
            way = way_of(line)
            if way is not None:              # L1 hit
                if dty:
                    dirty0[si0][way] = True
                stamps0[si0][way] = stamp
                continue
            row0 = tags0[si0]
            tg0 = line >> ts0
            c0m += 1
            code = line | w
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
                wb0 = (row0[fway] * ns0 + si0) * lb
                # (No entry when a corrupted valid count evicts an
                # invalid way: REPRO_CHECK reports that one.)
                where0.pop(wb0, None)
                if dirty0[si0][fway]:
                    c0wb += 1
                    sj = (wb0 >> ls1) & sm1
                    tj = wb0 >> ts1
                    rowj = tags1[sj]
                    if tj in rowj:
                        dirty1[sj][rowj.index(tj)] = True
                    else:
                        wbx = fa1(sj, tj, True)
            row0[fway] = tg0
            where0[line] = fway
            dirty0[si0][fway] = dty
            stamps0[si0][fway] = stamp
            if wb1 is not None or wbx is not None:
                code |= 4
                rec_ext.append(-1 if wb1 is None else wb1)
                rec_ext.append(-1 if wbx is None else wbx)
            if targets:
                rec_pf.append(i)
                rec_pf.append(len(targets))
                rec_pf.extend(targets)
            rec_i.append(i)
            rec_code.append(code)
        l1pol._clock += n_mem
        p1._psel = psel1
        p1._brrip._fill_count = fc1
        # Issue slots only grow: ``u_end`` bounds the chunk's.
        if u_end <= _INT_MAX:
            rec_u = array("i", pre[rec_i].astype(np.intc).tobytes())
        else:
            rec_u = array("q", pre[rec_i].tobytes())
        rec_u.append(u_end)
        rec_i.append(n)
        rec_code.append(-1)
        return (begin, n, _narrow(rec_i), _narrow(rec_code),
                _narrow(rec_ext), rec_u,
                _narrow(rec_pf) if stride_on else (),
                _narrow(where0) if l1_ends else None)

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

    if not checking:
        return chunk, finish
    # ``chunk`` reads ``fa1`` from this scope when it runs, so the
    # rebinding re-derives the set of every L2 fill as it happens.
    fa1 = _checks.checked_fill(fa1, l2)
    plain_chunk = chunk
    # An L1 fill is inline: a count a later fill of the same chunk
    # mends passes the set recount, but not conservation.
    valid0 = _checks.valid_lines(l1)

    def checked_chunk(begin: int, end: int):
        clock0 = l1pol._clock
        records = plain_chunk(begin, end)
        lines = _chunk_lines(va, me, begin, end, line_mask)
        for si in {(ln >> ls0) & sm0 for ln in lines if ln >= 0}:
            _checks.check_cache_set(l1, si)
        _checks.check_fill_conservation(l1, valid0, c0m, c0ev)
        _checks.check_lru_fold(l1, clock0, lines)
        _checks.check_line_index(l1, where0)
        # Every L1 miss probed L2 (record codes keep the line above
        # bit 2, and lines are at least 8 bytes).
        for si in {(code >> ls1) & sm1 for code in records[3][:-1]}:
            _checks.check_cache_set(l2, si)
        return records

    return checked_chunk, finish


#: Stored front-ends (:func:`recorded_front_end`): per dense stream
#: ``(id(vaddr), id(meta), len(vaddr), len(meta))``, the columns' weak
#: references and the stream's entries.
_RECORDED: Dict[tuple, tuple] = {}
#: Serve runs points on threads: lookups and inserts hold the lock.
_RECORDED_LOCK = threading.Lock()
#: Entries kept per dense stream (one per pre-run private state).
_ENTRIES_PER_STREAM = 2


class _Recorded:
    """One stored front-end: its key (whether it keeps the L1's chunk
    ends, and the :func:`_private_bytes` it started from), its chunks'
    records (:func:`_front_end`), the private state it ended in, and
    its ``finish()`` result."""

    __slots__ = ("before", "chunks", "after", "result")

    def __init__(self, before, chunks, after, result) -> None:
        self.before = before
        self.chunks = chunks
        self.after = after
        self.result = result


def _stride_state(stride) -> Optional[tuple]:
    """A stride prefetcher's configuration, streams (in their LRU
    order) and counters as plain comparable data (live references);
    None for none."""
    if stride is None:
        return None
    return ((stride.max_streams, stride.degree, stride.line_bytes,
             stride.region_bytes),
            list(stride._streams.items()), vars(stride.stats))


def _set_stride(stride, state: Optional[tuple]) -> None:
    """Set a stride prefetcher's streams and counters to a
    :func:`_stride_state` of the same configuration."""
    if stride is not None:
        _, streams, stats = state
        stride._streams = dict(streams)
        vars(stride.stats).update(stats)


def _private_state(l1: Cache, l2: Cache, stride) -> tuple:
    """What a front-end reads and evolves: the L1 and L2
    :func:`_level_state` and the :func:`_stride_state`."""
    return _level_state(l1), _level_state(l2), _stride_state(stride)


def _private_bytes(l1: Cache, l2: Cache, stride) -> bytes:
    """The :func:`_private_state` pickled: a compact copy, and a sound
    equality test (equal bytes load as equal states)."""
    return pickle.dumps(_private_state(l1, l2, stride),
                        pickle.HIGHEST_PROTOCOL)


def _with_ops(chunks, trace: PackedTrace):
    """Each kept chunk plus ``op_u``: for every XMemOp position ``at``
    (chunk-relative) inside the chunk, the issue slots before it; None
    for a chunk that holds no op."""
    positions = [p for p, _ in trace.xmem]
    k = u_base = 0
    for chunk in chunks:
        begin, n = chunk[0], chunk[1]
        op_u = None
        if k < len(positions) and positions[k] < begin + n:
            meta = np.frombuffer(trace.meta, dtype=np.int64)[begin:begin + n]
            slots = (meta >> 2) + ((meta & 2) == 0)
            pre = np.cumsum(slots) - slots + u_base
            op_u = {}
            while k < len(positions) and positions[k] < begin + n:
                at = positions[k] - begin
                op_u[at] = int(pre[at])
                k += 1
        u_base = chunk[5][-1]
        yield chunk + (op_u,)


def recorded_front_end(l1: Cache, l2: Cache, stride, line_bytes: int,
                       trace: PackedTrace, checking: bool,
                       l1_ends: bool = False):
    """A front-end (:func:`_front_end`) computed once per dense stream
    and pre-run private state, and replayed from then on: every
    single-core run's, and every co-run core's (no stride prefetcher,
    no ``l1_ends``).

    Returns ``(chunks, finish)``.  ``chunks`` iterates over the
    stream's chunks, each :func:`_front_end`'s records.  ``finish()``,
    once every chunk is consumed, leaves L1, L2 and the stride
    prefetcher in their end state and returns (instructions,
    mem_accesses).

    The front-end is a function of the dense stream and of the L1, L2
    and stride prefetcher alone.  A stored entry is keyed weakly on
    the trace's ``vaddr`` and ``meta`` columns (shared by every replay
    of a recording) and their lengths, and serves a run that asks for
    the same ``l1_ends`` and whose private parts equal its pre-run
    state -- geometry, contents, counters and policy state
    (:func:`_private_bytes`): a warm machine or another geometry
    computes afresh.  An entry dies with its columns, and a stream
    keeps at most :data:`_ENTRIES_PER_STREAM`.  A computed run stores
    its records, the private end state and the ``finish()`` result;
    the columns are not written once run.

    With ``checking``, a replay also recomputes the front-end on the
    machine's own private parts and raises :class:`ConfigurationError`
    where a chunk's records, the end state or the result differ.
    """
    vaddr, meta = trace.vaddr, trace.meta
    key = (id(vaddr), id(meta), len(vaddr), len(meta))
    before = (l1_ends, _private_bytes(l1, l2, stride))
    with _RECORDED_LOCK:
        stored = _RECORDED.get(key)
        entry = next((e for e in stored[1] if e.before == before),
                     None) if stored is not None else None
    if entry is None:
        return _record(l1, l2, stride, line_bytes, trace, checking,
                       l1_ends, key, before)

    def finish():
        after1, after2, after_stride = pickle.loads(entry.after)
        _set_level(l1, after1)
        _set_level(l2, after2)
        _set_stride(stride, after_stride)
        return entry.result

    if not checking:
        return iter(entry.chunks), finish
    chunk, fresh_finish = _front_end(l1, l2, stride, line_bytes, trace,
                                     True, l1_ends)

    def checked_chunks():
        for records in entry.chunks:
            begin, n = records[0], records[1]
            if chunk(begin, begin + n) != records:
                raise ConfigurationError(
                    f"the stored front-end records of the chunk at "
                    f"position {begin} differ from a fresh front-end's")
            yield records

    def checked_finish():
        if fresh_finish() != entry.result or pickle.loads(
                entry.after) != _private_state(l1, l2, stride):
            raise ConfigurationError(
                "the stored front-end's private end state or counts "
                "differ from a fresh front-end's")
        return finish()

    return checked_chunks(), checked_finish


def _record(l1: Cache, l2: Cache, stride, line_bytes: int,
            trace: PackedTrace, checking: bool, l1_ends: bool, key: tuple,
            before: tuple):
    """:func:`recorded_front_end`'s miss: compute the front-end, keep
    each chunk as it is consumed, and store the entry at ``finish``."""
    chunk, front_finish = _front_end(l1, l2, stride, line_bytes, trace,
                                     checking, l1_ends)
    kept: list = []

    def chunks():
        total = len(trace.meta)
        for pos in range(0, total, CHUNK):
            kept.append(chunk(pos, min(pos + CHUNK, total)))
            yield kept[-1]

    def finish():
        result = front_finish()
        entry = _Recorded(before, kept, _private_bytes(l1, l2, stride),
                          result)
        with _RECORDED_LOCK:
            stored = _RECORDED.get(key)
            if stored is None:
                # Either column's death drops the stream's entries.
                def forget(_ref):
                    _RECORDED.pop(key, None)
                stored = _RECORDED[key] = (
                    (weakref.ref(trace.vaddr, forget),
                     weakref.ref(trace.meta, forget)), [])
            entries = stored[1]
            if all(e.before != before for e in entries):
                entries.append(entry)
                del entries[:-_ENTRIES_PER_STREAM]
        return result

    return chunks(), finish


def _llc_ops(llc: Cache, pin_predicate, dram, writeback, prefetch_ready,
             checking: bool):
    """The shared LLC of both engines: its primitives, built once per
    run over the LLC's hoisted tables.

    Returns ``(probe, fill, put, prefetch)``, the LLC half of
    :meth:`MemorySystem.access <repro.sim.system.MemorySystem.access>`
    (its ``Cache.access``/``fill_absent``/``fill`` calls, the DRRIP
    hooks, ``MemorySystem._prefetch``) written out for the shipped
    shape (:func:`check_shape`):

    * ``probe(line)`` -- 0 on a miss (the set duel trained), 1 on a hit
      (RRPV promoted), 2 on a hit that consumes a prefetched tag;
    * ``fill(line)`` -- the demand fill of an absent line: the DRRIP
      victim (unpinned ways first), the pin quota and its refusals,
      prefetched tags; it asks to pin when ``pin_predicate(line)``
      (None: nothing pins) and returns the dirty victim line or None;
    * ``put(line)`` -- a victim ripple: marks a resident line dirty or
      fills it dirty, and returns the dirty victim line or None;
    * ``prefetch(line, t)`` -- one prefetch issue: False when the line
      is resident; else its DRAM read at ``t`` (``prefetch_ready``
      keeps the completion), its fill as a prefetched line with its
      pin request, ``writeback(victim, t)`` for a dirty victim, and
      True.

    Counters go to ``llc.stats``, and the duel's PSEL and BRRIP fill
    count are read and written through the policy on every use, so an
    XMemOp between calls sees them current.  DRAM is
    ``dram.access_completes``.  The caller orders the calls as its
    oracle does.  When ``checking``, every fill and put re-derives its
    set.
    """
    ls, sm, ts = llc._line_shift, llc._set_mask, llc._tag_shift
    ns, ways, lb = llc.num_sets, llc.ways, llc.line_bytes
    tags, dirty, pinned = llc._tags, llc._dirty, llc._pinned
    vc, pc = llc._valid_counts, llc._pinned_counts
    allways, maxpin = llc._all_ways, llc._max_pinned_ways
    pfd = llc._prefetched_tags
    pol = llc.policy
    brrip = pol._brrip
    rrpv = pol._rrpv
    psel_max, psel_half = pol._psel_max, pol._psel_half
    st = llc.stats
    duel = DRRIPPolicy.DUEL_PERIOD
    lip = BRRIPPolicy.LONG_INTERVAL_PERIOD
    RMAX, RLONG, ITAG = RRPV_MAX, RRPV_LONG, INVALID_TAG
    dram_access = dram.access_completes

    def probe(line):
        si = (line >> ls) & sm
        tg = line >> ts
        row = tags[si]
        st.accesses += 1
        if tg in row:
            st.hits += 1
            rrpv[si][row.index(tg)] = 0
            if pfd and (si, tg) in pfd:
                st.prefetch_hits += 1
                pfd.discard((si, tg))
                return 2
            return 1
        st.misses += 1
        ph = si % duel
        if ph == 0:
            if pol._psel < psel_max:
                pol._psel += 1
        elif ph == 1:
            if pol._psel > 0:
                pol._psel -= 1
        return 0

    def fill_absent(si, tg, dty, pin_req, pref):
        """``Cache.fill_absent`` at the LLC; returns the dirty victim."""
        row = tags[si]
        rr = rrpv[si]
        pr = pinned[si]
        victim = None
        if vc[si] < ways:
            way = row.index(ITAG)
            vc[si] += 1
        else:
            if pc[si]:
                cands = [w for w in allways if not pr[w]] or allways
                hi = max(map(rr.__getitem__, cands))
                if hi < RMAX:
                    for w in cands:
                        rr[w] += RMAX - hi
                for w in cands:
                    if rr[w] >= RMAX:
                        way = w
                        break
            elif RMAX in rr:
                way = rr.index(RMAX)
            else:
                bump = RMAX - max(rr)
                for w in allways:
                    rr[w] += bump
                way = rr.index(RMAX)
            st.evictions += 1
            vt = row[way]
            if dirty[si][way]:
                st.writebacks += 1
                victim = (vt * ns + si) * lb
            if pfd:
                pfd.discard((si, vt))
            if pr[way]:
                pr[way] = False
                pc[si] -= 1
        row[way] = tg
        dirty[si][way] = dty
        if pin_req and pc[si] < maxpin:
            pr[way] = True
            st.pinned_fills += 1
            pc[si] += 1
            rr[way] = 0
        else:
            if pin_req:
                st.pin_refusals += 1
            pr[way] = False
            ph = si % duel
            if ph == 1 or (ph != 0 and pol._psel > psel_half):
                brrip._fill_count += 1
                rr[way] = RLONG if brrip._fill_count % lip == 0 else RMAX
            else:
                rr[way] = RLONG
        if pref:
            st.prefetch_fills += 1
            pfd.add((si, tg))
        return victim

    def fill(line):
        return fill_absent((line >> ls) & sm, line >> ts, False,
                           pin_predicate is not None
                           and pin_predicate(line), False)

    def put(line):
        si = (line >> ls) & sm
        tg = line >> ts
        row = tags[si]
        if tg in row:
            dirty[si][row.index(tg)] = True
            return None
        return fill_absent(si, tg, True, False, False)

    def prefetch(line, t):
        si = (line >> ls) & sm
        tg = line >> ts
        if tg in tags[si]:
            return False
        prefetch_ready[line] = dram_access(line, t, False)
        victim = fill_absent(si, tg, False, pin_predicate is not None
                             and pin_predicate(line), True)
        if victim is not None:
            writeback(victim, t)
        return True

    if checking:
        # ``fill``, ``put`` and ``prefetch`` read ``fill_absent`` from
        # this scope when they run.
        fill_absent = _checks.checked_fill(fill_absent, llc)
        put = _checks.checked_fill(put, llc, by_line=True)
    return probe, fill, put, prefetch


def _back_end(engine: TraceEngine, trace: PackedTrace, checking: bool):
    """The per-machine half of the split interpreter: the LLC
    (:func:`_llc_ops`), its writebacks into the write buffer, DRAM,
    prefetch issue, the MSHR file and model time, over the records of
    :func:`_front_end`.

    Returns ``(consume, finish)``: ``consume(chunk)`` replays one
    chunk's records (with ``l1_end``), ``finish(instructions,
    mem_accesses)`` ends the run and returns its :class:`EngineStats`.
    Besides the records it reads the trace's columns, and the L1 only
    as the run finds it: build the back-end before the front-end's
    first chunk.  Reservations go through the machine's
    :meth:`MSHRFile.reserve <repro.mem.mshr.MSHRFile.reserve>`.  When
    ``checking``, every LLC fill re-derives its set, ``consume`` ends by
    re-deriving every LLC set it probed, and ``finish`` by
    :func:`~repro.testing.checks.check_engine_run`.

    Time between records folds in closed form: every L1 hit and Work
    block only adds issue slots, so ``now`` advances by the slot
    count since the last record -- exact by the dyadic-grid argument
    in the module docstring while ``now`` stays below ``now_limit``;
    past it, and from the start on a non-dyadic grid, every position
    of a chunk is replayed as its own event: each position's
    ``(u - u_done) / issue`` step then adds just its Work block's
    count, or its access's work, as the reference engine does.
    An L1 hit is replayed on its own too (a *special*) when its line
    awaits an in-flight prefetch: a prefetch that targets a line the
    L1 holds at the chunk's end marks the line's next access, if that
    access hits L1, so it pops the prefetch and may wait in the MSHR
    file.  A chunk's lines and per-position issue slots are decoded
    from the columns only when it issues a prefetch or has a special.
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
    now_limit = fold_ceiling(issue, dram.timing)
    lk1 = hier.latencies[0]
    lk12 = lk1 + hier.latencies[1]
    lk123 = lk12 + hier.latencies[2]
    tv, tm = trace.vaddr, trace.meta
    va, me = _columns(trace)
    line_mask = -hier.line_bytes
    xops = trace.xmem
    n_ops = len(xops)
    not7 = ~7                # record code -> line

    mem_stats = memory.stats
    prefetch_ready = memory._prefetch_ready
    # The write buffer (its drain threshold, ``memory.writebacks``)
    # takes every dirty LLC victim.
    buffer_write = memory._buffer_write
    dram_access = dram.access_completes
    xmem_pf = memory.xmem_prefetcher
    xmem_on_miss = xmem_pf.on_demand_miss if xmem_pf is not None else None
    pin_predicate = hier.pin_predicate
    probe, fill, put, prefetch = _llc_ops(
        llc, None if pin_predicate is _never_pin else pin_predicate, dram,
        buffer_write, prefetch_ready, checking)
    reserve = mshr.reserve

    # Machine state and deferred counters (flushed by finish).
    now = 0.0
    stall = 0.0
    misses = 0
    n_x = 0
    u_done = 0
    oi = 0
    # Lines that await a prefetch while L1 holds them and whose next
    # access lies beyond the chunks replayed so far.
    l1 = hier.levels[0]
    watch: Set[int] = {ln for ln in prefetch_ready
                       if (ln >> l1._tag_shift)
                       in l1._tags[(ln >> l1._line_shift) & l1._set_mask]}
    # The current chunk (set by ``consume``): its first position and
    # length, its miss indices, the sorted indices of its specials and
    # the L1's lines at its end (``resident``: as a set, when asked);
    # its lines (a list and a set) when decoded.
    begin = n = 0
    rec_i = specials = l1_end = resident = lines = line_set = None

    def decode():
        """Decode the current chunk's lines."""
        nonlocal lines, line_set
        lines = _chunk_lines(va, me, begin, begin + n, line_mask)
        line_set = set(lines)

    def held(target):
        """Whether the L1 holds ``target`` at the chunk's end."""
        nonlocal resident
        if resident is None:
            resident = set(l1_end)
        return target in resident

    def issued(target, i):
        """Count a prefetch issued at record index ``i``; a target the
        L1 holds gets its next L1 hit marked special."""
        mem_stats.prefetch_reads += 1
        if lines is None:
            decode()
        if target in line_set:
            try:
                q = lines.index(target, i + 1)
            except ValueError:
                pass                 # accessed only earlier in the chunk
            else:
                mark(q)
                return
        if held(target):
            watch.add(target)

    def mark(q):
        """Make chunk index ``q`` -- an awaited line's next access --
        a special when it is an L1 hit (no record)."""
        if rec_i[bisect_left(rec_i, q)] != q:
            k = bisect_left(specials, q)
            if k == len(specials) or specials[k] != q:
                specials.insert(k, q)

    def consume(chunk) -> None:
        nonlocal now, stall, misses, n_x, u_done, oi
        nonlocal begin, n, rec_i, specials, l1_end, resident, lines
        nonlocal line_set
        begin, n, rec_i, rec_code, rec_ext, rec_u, rec_pf, l1_end = chunk
        # Lists, not the kept arrays: their items need no boxing.
        rec_i = rec_i.tolist()
        rec_code = rec_code.tolist()
        rec_ext = rec_ext.tolist()
        rec_u = rec_u.tolist()
        resident = lines = line_set = None
        ua = None                    # per-position slots, when decoded
        u_base = u_done
        if now >= now_limit:
            # Past the exactness ceiling, or off the dyadic grid:
            # replay every position as its own event.
            in_rec = set(rec_i)
            specials = [q for q in range(n) if q not in in_rec]
        else:
            specials = []
        if watch:
            decode()
            for target in list(watch):
                if target in line_set:
                    watch.discard(target)
                    mark(lines.index(target))
                elif not held(target):
                    watch.discard(target)
        spi = 0
        sp_at = specials[0] if specials else _NEVER
        op_at = xops[oi][0] - begin if oi < n_ops else _NEVER
        nxt = op_at if op_at < sp_at else sp_at
        xi = pj = 0
        n_pf = len(rec_pf)
        pf_at = rec_pf[0] if n_pf else _NEVER
        for i, code, pre in zip(rec_i, rec_code, rec_u):
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
                        getattr(xmemlib, op.method)(*op.args)
                else:
                    q = sp_at
                    spi += 1
                    sp_at = specials[spi] if spi < len(specials) \
                        else _NEVER
                    if ua is None:
                        if lines is None:
                            decode()
                        seg = me[begin:begin + n]
                        is_mem = (seg & 2) == 0
                        ua = (np.cumsum((seg >> 2) + is_mem) - is_mem
                              + u_base).tolist()
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
                            start = reserve(now, completes)
                            if start > now:
                                stall += start - now
                                now = start
                        now += slot
                        u_done += 1
                nxt = op_at if op_at < sp_at else sp_at
            if code < 0:                     # the chunk's sentinel
                break
            u = pre + (tm[begin + i] >> 2)
            now += (u - u_done) / issue
            u_done = u + 1
            line = code & not7
            mem_wbs = None
            llc_pf = memread = False
            if code & 2:                     # L2 hit
                t_lookup = now + lk12
            else:
                t_lookup = now + lk123
                hit = probe(line)
                if hit:
                    llc_pf = hit == 2
                else:
                    memread = True
                    wb = fill(line)
                    if wb is not None:
                        mem_wbs = [wb]
            if code & 4:
                # LLC-bound victims of the L2 fill and of the L1
                # victim's ripple, in that order.
                for wb in (rec_ext[xi], rec_ext[xi + 1]):
                    if wb >= 0:
                        wb = put(wb)
                        if wb is not None:
                            if mem_wbs is None:
                                mem_wbs = [wb]
                            else:
                                mem_wbs.append(wb)
                xi += 2
            targets = None
            if i == pf_at:
                k = rec_pf[pj + 1]
                targets = rec_pf[pj + 2:pj + 2 + k]
                pj += 2 + k
                pf_at = rec_pf[pj] if pj < n_pf else _NEVER
            # ---- timing ----
            if memread:
                completes = dram_access(line, t_lookup, False)
                if prefetch_ready:
                    prefetch_ready.pop(line, None)
                if code & 1:
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
            # ---- prefetchers (issue at `now`, as in the model) ----
            if targets or (xmem_on_miss is not None
                           and (memread or llc_pf)):
                n_sp = len(specials)
                if targets:
                    for target in targets:
                        if prefetch(target, now):
                            issued(target, i)
                if xmem_on_miss is not None and (memread or llc_pf):
                    for target in xmem_on_miss(tv[begin + i]):
                        if prefetch(target, now):
                            issued(target, i)
                if len(specials) != n_sp:
                    sp_at = specials[spi]
                    nxt = op_at if op_at < sp_at else sp_at
            # ---- back in the engine ----
            if memread:
                misses += 1
            if completes - now > pipelined:
                start = reserve(now, completes)
                if start > now:
                    stall += start - now
                    now = start
            now += slot
        u_end = rec_u[-1]
        now += (u_end - u_done) / issue
        u_done = u_end
        rec_i = specials = l1_end = resident = lines = line_set = None

    def finish(instructions: int, mem_accesses: int) -> EngineStats:
        nonlocal now, n_x
        # XMemOps at the end of the stream when no chunk ran.
        for _, op in xops[oi:]:
            n_x += 1
            now += slot
            if xmemlib is not None:
                getattr(xmemlib, op.method)(*op.args)
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

    if not checking:
        return consume, finish
    plain_consume, plain_finish = consume, finish

    def checked_consume(chunk) -> None:
        plain_consume(chunk)
        # Every record that missed L2 probed the LLC.
        for si in {llc._index(code & not7) for code in chunk[3][:-1]
                   if not code & 2}:
            _checks.check_cache_set(llc, si)

    def checked_finish(instructions: int, mem_accesses: int) -> EngineStats:
        stats = plain_finish(instructions, mem_accesses)
        _checks.check_engine_run(engine, stats)
        return stats

    return checked_consume, checked_finish
