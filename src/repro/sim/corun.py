"""Multi-core co-running simulation (the Section 5.1 scenario).

Use Case 1's motivation is that the cache space *actually available* to
an application changes when other applications co-run on the shared
LLC.  This module simulates N cores, each with private L1/L2 and its
own trace, sharing the L3 and DRAM:

* cores advance in timestamp order (the core with the smallest local
  clock steps next), so shared-resource contention interleaves
  naturally;
* each application may carry its own XMem process; the shared LLC's
  pinning decision is *global* -- the paper's greedy algorithm "takes
  the active atoms in all the cores" and pins by reuse until the 75%
  budget fills;
* per-application address spaces are disjoint (each core's addresses
  are offset), so one AAM lookup per application resolves cleanly.

The interleaver is PackedTrace-native (object event streams are packed
first).  A binary heap keyed by ``(core.now, core.index)`` schedules
cores; between shared-LLC interactions a core's private stretch -- L1
hits and Work blocks, which touch nothing outside the core -- is
fast-forwarded with the single-core engine's techniques (chunked
columnar decoding, inline replacement updates, exact dyadic-grid time
accumulation), so the core yields control only at *yield points*:
accesses that can leave the L1 (they may ripple writebacks into the
shared LLC/DRAM or consume shared prefetch state) and XMemOps (they can
retrigger the global pinning decision).  Yield points execute in
timestamp order, the lowest core index breaking ties, through one
fused memory-path body built per run (:meth:`CorunSystem._yield_body`):
the L1/L2/LLC probes, fills and victim ripples, prefetch issue and the
MSHR reserve written out over hoisted tables, in the order the method
descent (:class:`repro.testing.oracles.ReferenceCorun`) performs them,
so every float sum is the same.  The body is specialised to the one
machine shape every caller builds (``scaled_config``: LRU L1, DRRIP
L2/L3, power-of-two lines), which the constructor enforces.  Machine
shapes outside the fast-forward domain
(:meth:`CorunSystem.packed_eligible`) skip fast-forwarding: every dense
event is then a yield point.

Private events commute with other cores' shared events (disjoint
state), which is why a core's private prefix may be applied eagerly
while sibling cores are still behind in model time: only the *order of
shared interactions* is observable, and the heap fixes it.  The
per-event reference interleaver,
:class:`repro.testing.oracles.ReferenceCorun`, steps one event of the
``(now, index)``-smallest core at a time through its own method
descent over the system's components; per-core :class:`CoreStats` and
every counter must be bit-identical to it (fuzz lane ``corun``, pins
in ``tests/sim/test_corun_packed.py``).  With ``REPRO_CHECK=1`` the
fused body re-derives every cache set a yield point touched and the
MSHR occupancy after each reservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.errors import ConfigurationError
from repro.core.stats import iter_stat_groups
from repro.core.xmemlib import XMemLib
from repro.cpu.trace import (
    META_COUNT_SHIFT,
    META_WORK_BIT,
    META_WRITE_BIT,
    PackedTrace,
    Trace,
)
from repro.cpu.vector_engine import dyadic_k
from repro.dram.system import DramSystem
from repro.mem.cache import INVALID_TAG, Cache
from repro.mem.replacement import (
    RRPV_LONG,
    RRPV_MAX,
    BRRIPPolicy,
    DRRIPPolicy,
)
from repro.mem.mshr import MSHRFile
from repro.mem.prefetch import MultiStridePrefetcher, XMemPrefetcher
from repro.sim.config import SimConfig
from repro.testing import checks as _checks

#: Address-space stride between co-running applications.
APP_SPACE = 1 << 40

#: Events per columnar decomposition chunk of the packed interleaver.
CHUNK = 2048
#: Addresses must stay well inside int64 after the per-app offset for
#: the numpy decomposition; traces outside use the (equally exact)
#: raw scalar planner.
_ADDR_BOUND = 1 << 61

# Yield kinds of a planned cursor.
_Y_MEM, _Y_XMEM, _Y_END = 0, 1, 2

#: The replacement policy of each level the fused memory path is
#: written for (the ``scaled_config`` shape every caller builds).
LEVEL_POLICIES = (("L1", "lru"), ("L2", "drrip"), ("L3", "drrip"))


@dataclass
class CoreStats:
    """Per-core results."""

    cycles: float = 0.0
    instructions: int = 0
    mem_accesses: int = 0
    llc_misses: int = 0


class _Core:
    """Private state of one core."""

    def __init__(self, index: int, config: SimConfig,
                 xmemlib: Optional[XMemLib]) -> None:
        self.index = index
        self.offset = index * APP_SPACE
        l1, l2 = config.levels[0], config.levels[1]
        self.l1 = Cache(f"c{index}.L1", l1.size_bytes, l1.ways,
                        config.line_bytes, policy=l1.policy)
        self.l2 = Cache(f"c{index}.L2", l2.size_bytes, l2.ways,
                        config.line_bytes, policy=l2.policy)
        self.l1_lat = l1.latency
        self.l2_lat = l2.latency
        self.xmemlib = xmemlib
        self.xmem_pf: Optional[XMemPrefetcher] = None
        self.now = 0.0
        self.mshr = MSHRFile(config.cpu.window)
        self.stats = CoreStats()

    def stat_groups(self):
        """StatGroup protocol: the core's private machine state."""
        yield "core", self.stats
        yield "l1", self.l1.stats
        yield "l2", self.l2.stats
        yield "mshr", self.mshr.stats
        if self.xmem_pf is not None:
            yield "prefetch.xmem", self.xmem_pf.stats
        if self.xmemlib is not None:
            yield from iter_stat_groups(self.xmemlib.process.amu, "amu")


class _PackedCursor:
    """Per-core interleaver state over one :class:`PackedTrace`.

    Holds the dense position / XMemOp index pair, the planned yield
    kind, and the current decomposition chunk: per-position set index,
    tag, work count and write flag, pre-split from the packed columns
    in one vectorized pass (numpy planner only: addresses inside the
    int64-safe window).
    """

    __slots__ = ("core", "trace", "tv", "tm", "xmem", "n_dense", "n_x",
                 "pos", "xi", "kind", "va", "me",
                 "cbase", "cend",
                 "csets_l", "ctags_l", "cmem_l", "cwrite_l",
                 "ccum_l", "cmcum_l")

    def __init__(self, core: _Core, trace: PackedTrace) -> None:
        self.core = core
        self.trace = trace
        self.tv = trace.vaddr
        self.tm = trace.meta
        self.xmem = trace.xmem
        self.n_dense = len(trace.vaddr)
        self.n_x = len(trace.xmem)
        self.pos = 0
        self.xi = 0
        self.kind = _Y_END
        self.va = None
        self.me = None
        if self.n_dense:
            va = _np.frombuffer(trace.vaddr, dtype=_np.int64)
            lo = int(va.min()) + core.offset
            hi = int(va.max()) + core.offset
            if -_ADDR_BOUND < lo and hi < _ADDR_BOUND:
                self.va = va
                self.me = _np.frombuffer(trace.meta, dtype=_np.int64)
        # Decomposition chunk (empty until the first _classify).
        self.cbase = 0
        self.cend = 0
        self.csets_l: list = []
        self.ctags_l: list = []
        self.cmem_l: list = []
        self.cwrite_l: list = []
        self.ccum_l: list = []
        self.cmcum_l: list = []


class MultiProcessController:
    """The global greedy pinning decision over every app's atoms.

    Mirrors :class:`repro.policies.cache_mgmt.CacheController` but
    walks the active atoms of *all* registered XMem processes, sorted
    together by reuse, against one shared 75% budget.  Addresses are
    per-application physical (offset), so pin lookups dispatch to the
    owning application's AMU.
    """

    def __init__(self, llc: Cache, pin_fraction: float = 0.75) -> None:
        self.llc = llc
        self.pin_fraction = pin_fraction
        self._apps: List[Tuple[int, XMemLib]] = []
        self._pin_spans: Dict[int, List[Tuple[int, int]]] = {}
        self.prefetchers: Dict[int, XMemPrefetcher] = {}

    def register(self, offset: int, xmemlib: XMemLib,
                 prefetcher: Optional[XMemPrefetcher] = None) -> None:
        """Attach one application (by its address-space offset)."""
        self._apps.append((offset, xmemlib))
        if prefetcher is not None:
            self.prefetchers[offset] = prefetcher
        xmemlib.listeners.append(self.refresh)
        self.refresh()

    def refresh(self) -> None:
        """Recompute the global pinning decision."""
        budget = int(self.llc.size_bytes * self.pin_fraction)
        entries = []
        for offset, lib in self._apps:
            for atom in lib.process.active_atoms():
                if atom.reuse > 0:
                    entries.append((atom.reuse, offset, lib, atom))
        entries.sort(key=lambda e: e[0], reverse=True)
        spans: Dict[int, List[Tuple[int, int]]] = {}
        arm: Dict[int, Dict] = {o: {} for o, _ in self._apps}
        for reuse, offset, lib, atom in entries:
            if budget <= 0:
                break
            aam = lib.process.amu.aam
            chunk = aam.config.chunk_bytes
            atom_spans = _coalesce(sorted(aam.mapped_chunks(atom.atom_id)),
                                   chunk)
            size = sum(e - s for s, e in atom_spans)
            take = min(size, budget)
            if take < chunk:
                continue
            taken = _prefix(atom_spans, take)
            spans.setdefault(offset, []).extend(
                (s + offset, e + offset) for s, e in taken
            )
            budget -= take
            if take < size and offset in self.prefetchers:
                from repro.core.pat import translate_for_prefetcher
                attrs = lib.process.gat.get(atom.atom_id)
                if attrs is not None:
                    arm[offset][atom.atom_id] = XMemPrefetcher.entry(
                        translate_for_prefetcher(attrs), atom_spans)
        if spans != self._pin_spans:
            self.llc.unpin_all()
            self._pin_spans = spans
        for offset, pf in self.prefetchers.items():
            pf.set_pinned_atoms(arm.get(offset, {}))

    def pin_predicate(self, global_addr: int) -> bool:
        """Whether a (global) line address belongs to a pinned atom."""
        offset = (global_addr // APP_SPACE) * APP_SPACE
        spans = self._pin_spans.get(offset)
        if not spans:
            return False
        # Once per LLC fill; a plain loop avoids the generator frame.
        for s, e in spans:
            if s <= global_addr < e:
                return True
        return False

    def stat_groups(self):
        """StatGroup protocol: a lazy summary of the pinning decision."""
        yield "pin", self.pin_summary

    def pin_summary(self) -> Dict[str, int]:
        """Span-level view of the current global pinning decision."""
        spans = [s for lst in self._pin_spans.values() for s in lst]
        return {
            "apps_pinned": sum(1 for lst in self._pin_spans.values()
                               if lst),
            "spans": len(spans),
            "pinned_bytes": sum(e - s for s, e in spans),
        }


class CorunSystem:
    """N cores over a shared LLC + DRAM."""

    def __init__(self, config: SimConfig, n_cores: int,
                 xmem_cores: Sequence[int] = ()) -> None:
        if n_cores <= 0:
            raise ConfigurationError(f"need at least one core: {n_cores}")
        if len(config.levels) != 3:
            raise ConfigurationError("corun expects an L1/L2/L3 config")
        for level, (name, policy) in zip(config.levels, LEVEL_POLICIES):
            if level.policy != policy:
                raise ConfigurationError(
                    f"corun's {name} must use {policy!r}, "
                    f"not {level.policy!r}")
        if config.line_bytes & (config.line_bytes - 1):
            raise ConfigurationError(
                f"corun expects a power-of-two line size: "
                f"{config.line_bytes}")
        self.config = config
        l3 = config.levels[2]
        self.llc = Cache("sharedL3", l3.size_bytes, l3.ways,
                         config.line_bytes, policy=l3.policy)
        self.llc_lat = l3.latency
        self.dram = DramSystem(geometry=config.dram_geometry,
                               timing=config.timing(),
                               mapping=config.dram_mapping)
        self.stride_pf = MultiStridePrefetcher(
            streams=config.prefetcher.streams,
            degree=config.prefetcher.degree,
            line_bytes=config.line_bytes,
        ) if config.prefetcher.enabled else None
        self.controller = MultiProcessController(self.llc)
        self.cores: List[_Core] = []
        for i in range(n_cores):
            lib = XMemLib() if i in xmem_cores else None
            core = _Core(i, config, lib)
            self.cores.append(core)
            if lib is not None:
                pf = XMemPrefetcher(
                    lookup_atom=self._app_lookup(core.offset, lib),
                    line_bytes=config.line_bytes,
                )
                core.xmem_pf = pf
                self.controller.register(core.offset, lib, pf)
        self._prefetch_ready: Dict[int, float] = {}
        # Hot-loop hoists (issue width, line size), whether private
        # stretches are fast-forwarded (set by ``run``), and the
        # exactness ceiling of batched time accumulation (set by
        # ``packed_eligible``).
        self._issue = config.cpu.issue_width
        self._line_bytes = config.line_bytes
        self._fast_forward = False
        self._now_limit = 0.0

    @staticmethod
    def _app_lookup(offset: int, lib: XMemLib):
        def lookup(global_addr: int):
            return lib.process.amu.lookup(global_addr - offset)
        return lookup

    # -- Stats ----------------------------------------------------------

    def stat_groups(self):
        """StatGroup protocol: shared resources plus per-core groups."""
        yield "llc", self.llc.stats
        yield "dram", self.dram.stats
        yield "dram.banks", self.dram.bank_summary
        if self.stride_pf is not None:
            yield "prefetch.stride", self.stride_pf.stats
        yield from iter_stat_groups(self.controller, "controller")
        for core in self.cores:
            prefix = f"core{core.index}"
            for sub, group in core.stat_groups():
                yield f"{prefix}.{sub}", group

    def stats_registry(self):
        """The system's full stats tree, assembled fresh.

        Groups are live references into the component counters, so a
        registry built before a run snapshots correctly after it.
        Paths: ``llc``, ``dram``, ``dram.banks``, ``prefetch.stride``,
        ``controller.pin``, and per core ``core<i>.{core,l1,l2,mshr,
        prefetch.xmem,amu,amu.alb}``.
        """
        from repro.sim.stats import StatsRegistry
        registry = StatsRegistry()
        registry.register_provider("", self)
        return registry

    def stats_snapshot(self) -> dict:
        """One nested, JSON-ready snapshot of every component counter."""
        return self.stats_registry().snapshot()

    # -- Running --------------------------------------------------------

    def run(self, traces: Sequence[Trace]) -> List[CoreStats]:
        """Interleave one trace per core until all complete.

        Object event streams are packed first.  The heap pops the core
        with the smallest ``(now, index)``, which executes its planned
        yield point (an XMemOp here, a dense event through the fused
        body of :meth:`_yield_body`) and plans its next one.
        """
        if len(traces) != len(self.cores):
            raise ConfigurationError(
                f"{len(self.cores)} cores need {len(self.cores)} traces"
            )
        self._fast_forward = self.packed_eligible()
        issue = self._issue
        step = self._yield_body()
        cursors = [_PackedCursor(core, trace if type(trace) is PackedTrace
                                 else PackedTrace.from_events(trace))
                   for core, trace in zip(self.cores, traces)]
        heap: List[Tuple[float, int]] = []
        for cur in cursors:
            self._plan(cur)
            heappush(heap, (cur.core.now, cur.core.index))
        while heap:
            _, idx = heappop(heap)
            cur = cursors[idx]
            core = cur.core
            kind = cur.kind
            if kind == _Y_END:
                # Drain the window: the core ends when its last miss
                # lands.
                tail = core.mshr.latest_completion()
                if tail is not None and tail > core.now:
                    core.now = tail
                core.mshr.flush()
                core.stats.cycles = core.now
                continue
            if kind == _Y_XMEM:
                op = cur.xmem[cur.xi][1]
                core.stats.instructions += 1
                core.now += 1.0 / issue
                if core.xmemlib is not None:
                    getattr(core.xmemlib, op.method)(*op.args)
                cur.xi += 1
            else:
                step(cur)
            self._plan(cur)
            heappush(heap, (core.now, idx))
        return [c.stats for c in self.cores]

    # -- Fast-forward planner --------------------------------------------

    def packed_eligible(self) -> bool:
        """Whether the machine shape admits the batched fast path.

        The constructor already fixes the L1 to a shift-decomposable
        LRU cache that never holds prefetched tags (co-run prefetches
        only fill the LLC), so what remains is time, as in the
        single-core interpreter (:mod:`repro.cpu.vector_engine`): every
        quantum on one dyadic grid, so batched ``now`` accumulation is
        exact.
        Failing the gate turns fast-forwarding off -- every event then
        executes as a yield point -- so the gate never changes the
        model, only how fast it is evaluated.
        """
        issue = self.config.cpu.issue_width
        if issue <= 0 or issue & (issue - 1):
            return False
        lats = [float(self.llc_lat)]
        for core in self.cores:
            lats.append(float(core.l1_lat))
            lats.append(float(core.l2_lat))
        timing = self.dram.timing
        k = dyadic_k((1.0 / issue, 1.0, 4.0, timing.t_cl, timing.t_rcd,
                      timing.t_rp, timing.t_burst, *lats))
        if k is None:
            return False
        # Grid points below 2**(52-k) carry <= 52 mantissa bits, so
        # every addition in a batched sum is exact.
        self._now_limit = float(1 << (52 - k))
        return True

    def _plan(self, cur: _PackedCursor) -> None:
        """Fast-forward the core's private prefix and record the next
        yield point in ``cur.kind``.

        Applies batched L1-hit/Work stretches eagerly (they commute
        with other cores' shared events), stopping at the first access
        that can leave the L1, at the next XMemOp position, or at the
        end of the trace.  Without fast-forwarding, the next dense
        event is the yield point.
        """
        n_dense = cur.n_dense
        while True:
            pos = cur.pos
            if cur.xi < cur.n_x and cur.xmem[cur.xi][0] <= pos:
                cur.kind = _Y_XMEM
                return
            if pos >= n_dense:
                cur.kind = _Y_END
                return
            if not self._fast_forward:
                cur.kind = _Y_MEM
                return
            bound = cur.xmem[cur.xi][0] if cur.xi < cur.n_x else n_dense
            if not self._advance(cur, bound):
                cur.kind = _Y_MEM
                return
            # Reached the bound: loop to emit the XMemOp / END, or to
            # continue into the next inter-op window.

    def _advance(self, cur: _PackedCursor, bound: int) -> bool:
        """Consume private events up to ``bound``; True iff reached."""
        if cur.va is None:
            return self._advance_scalar(cur, bound)
        while cur.pos < bound:
            if cur.pos >= cur.cend:
                self._classify(cur)
            hi = cur.cend if cur.cend < bound else bound
            if not self._advance_scalar_snap(cur, hi):
                return False
        return True

    def _classify(self, cur: _PackedCursor) -> None:
        """Decompose the next chunk of packed columns in one pass.

        One vectorized sweep splits each position into L1 set index,
        tag, work count and write flag (the loop-header decomposition
        of the single-core engine), so the planner's walk needs no per-event
        address arithmetic.  Residency is *not*
        snapshotted: a chunk's own misses fill lines its later
        positions reuse, so a static residency table misclassifies
        whole miss-then-reuse groups -- the planner probes the live
        tag table instead, which can never go stale.
        """
        pos = cur.pos
        stop = pos + CHUNK
        if stop > cur.n_dense:
            stop = cur.n_dense
        cur.cbase = pos
        cur.cend = stop
        l1 = cur.core.l1
        m = cur.me[pos:stop]
        v = cur.va[pos:stop]
        ga = v + cur.core.offset
        lkey = ga >> l1._line_shift
        is_mem = (m & META_WORK_BIT) == 0
        cur.csets_l = (lkey & l1._set_mask).tolist()
        cur.ctags_l = (ga >> l1._tag_shift).tolist()
        cur.cmem_l = is_mem.tolist()
        cur.cwrite_l = ((m & META_WRITE_BIT) != 0).tolist()
        # Inclusive prefix sums of the work counts and the MemAccess
        # flags: any walked range's instruction/access totals become
        # two subtractions instead of per-event accumulation.
        cur.ccum_l = (m >> META_COUNT_SHIFT).cumsum().tolist()
        cur.cmcum_l = is_mem.cumsum().tolist()

    def _advance_scalar_snap(self, cur: _PackedCursor, bound: int) -> bool:
        """Fused live-probing planner over the chunk's snapshot columns.

        Walks positions with set/tag/write pre-decomposed (no per-event
        address arithmetic), probing the *live* L1 tag table, and
        applies each hit's replacement/dirty effect inline -- the same
        per-event state writes an L1 hit performs (one LRU clock tick
        and a stamp, the dirty bit of a write), so no replay pass is
        needed.  Counters and model time for the whole run then commit
        in one batched step.  Probes are live, so snapshot staleness
        never matters here.  True iff ``bound`` reached.
        """
        core = cur.core
        l1 = core.l1
        l1_tags = l1._tags
        l1_dirty = l1._dirty
        base = cur.cbase
        cmem = cur.cmem_l
        csets = cur.csets_l
        ctags = cur.ctags_l
        cwr = cur.cwrite_l
        start = pos = cur.pos
        i = pos - base
        pol = l1.policy
        clock = pol._clock
        stamp = pol._stamp
        while pos < bound:
            if cmem[i]:
                sidx = csets[i]
                tags = l1_tags[sidx]
                try:
                    w = tags.index(ctags[i])
                except ValueError:
                    break
                clock += 1
                stamp[sidx][w] = clock
                if cwr[i]:
                    l1_dirty[sidx][w] = True
            pos += 1
            i += 1
        pol._clock = clock
        if pos > start:
            i0 = start - base
            i1 = pos - base - 1
            ccum = cur.ccum_l
            cmcum = cur.cmcum_l
            total = ccum[i1] - (ccum[i0 - 1] if i0 else 0)
            n_mem = cmcum[i1] - (cmcum[i0 - 1] if i0 else 0)
            self._commit_run(cur, start, pos, total, n_mem)
            cur.pos = pos
        return pos >= bound

    def _advance_scalar(self, cur: _PackedCursor, bound: int) -> bool:
        """Fallback planner over the raw packed columns (addresses
        outside the int64-safe window).

        Interprets hit events one at a time with the arithmetic of the
        yield-point body -- pure Python ints, so it is exact
        for any addresses -- and yields at the first probe miss.  True
        iff ``bound`` reached.
        """
        core = cur.core
        l1 = core.l1
        l1_tags = l1._tags
        ls = l1._line_shift
        sm = l1._set_mask
        ts = l1._tag_shift
        lb = self._line_bytes
        offs = core.offset
        issue = self._issue
        stats = core.stats
        tv, tm = cur.tv, cur.tm
        pos = cur.pos
        while pos < bound:
            m = tm[pos]
            if m & META_WORK_BIT:
                count = m >> META_COUNT_SHIFT
                core.now += count / issue
                stats.instructions += count
                pos += 1
                continue
            ga = tv[pos] + offs
            if (ga >> ts) not in l1_tags[(ga >> ls) & sm]:
                break
            work = m >> META_COUNT_SHIFT
            if work:
                core.now += work / issue
                stats.instructions += work
            stats.instructions += 1
            stats.mem_accesses += 1
            l1.access(ga - ga % lb, bool(m & META_WRITE_BIT))
            # L1 hit: completes - now is the 1.0 L1 latency, which
            # never exceeds the 4.0 MSHR threshold.
            core.now += 1.0 / issue
            pos += 1
        cur.pos = pos
        return pos >= bound

    def _commit_run(self, cur: _PackedCursor, begin: int, end: int,
                    total: int, n_mem: int) -> None:
        """Apply an accumulated hit run's counters and time in one step.

        Replacement and dirty state were already written inline by the
        fused walk; what remains advances by run totals -- ``now`` by
        the run's exact issue-slot sum (dyadic grid), the core and L1
        counters by batch increments.  Past the exactness ceiling --
        unreachable in practice -- model time is re-walked event by
        event with per-event rounding instead.
        """
        core = cur.core
        issue = self._issue
        add = (total + n_mem) / issue
        if core.now + add >= self._now_limit:
            self._commit_sequential(cur, begin, end, total, n_mem)
            return
        core.stats.instructions += total + n_mem
        if total:
            core.now += total / issue
        if n_mem:
            core.stats.mem_accesses += n_mem
            core.now += n_mem * (1.0 / issue)
            l1stats = core.l1.stats
            l1stats.accesses += n_mem
            l1stats.hits += n_mem

    def _commit_sequential(self, cur: _PackedCursor, begin: int,
                           end: int, total: int, n_mem: int) -> None:
        """Event-by-event time replay of a known-hit run (per-event
        float rounding beyond the dyadic-grid ceiling).  Replacement state
        was already applied by the fused walk; only ``now`` needs the
        per-event rounding, and the integer counters batch as usual."""
        core = cur.core
        issue = self._issue
        tm = cur.tm
        for pos in range(begin, end):
            m = tm[pos]
            if m & META_WORK_BIT:
                core.now += (m >> META_COUNT_SHIFT) / issue
                continue
            work = m >> META_COUNT_SHIFT
            if work:
                core.now += work / issue
            # L1 hit: completes - now is the 1.0 L1 latency, which
            # never exceeds the 4.0 MSHR threshold.
            core.now += 1.0 / issue
        core.stats.instructions += total + n_mem
        core.stats.mem_accesses += n_mem
        l1stats = core.l1.stats
        l1stats.accesses += n_mem
        l1stats.hits += n_mem

    # -- Fused memory path ------------------------------------------------

    def _yield_body(self):
        """Build the yield-point body of one :meth:`run`.

        Returns ``step(cur)``, which executes the dense event at
        ``cur.pos``: a Work block, or a memory access through the
        core's L1 and L2, the shared LLC, DRAM and the core's MSHR
        window.  Every per-core and shared table is hoisted here, once
        per run; the body then performs the method descent of
        :class:`repro.testing.oracles.ReferenceCorun` -- ``Cache.access``
        / ``fill_absent`` / ``fill``, the replacement hooks, the
        prefetchers and ``MSHRFile.reserve`` -- written out for the
        shape the constructor enforces (LRU L1, DRRIP L2/L3, pins and
        prefetched tags only at the LLC), statement for statement in
        the same order, so counters and float sums are identical.
        Scalar replacement state (the L1 clock, which the planner also
        advances, and the DRRIP duel counters) is read and written
        through its owner on every use.  DRAM stays behind
        :meth:`DramSystem.access_completes`.

        With ``REPRO_CHECK`` set (read once, here) every cache set a
        yield point touched is re-derived by
        :func:`~repro.testing.checks.check_cache_set` and every
        reservation by :func:`~repro.testing.checks.check_mshr`.
        """
        checking = _checks.enabled()
        issue = self._issue
        slot = 1.0 / issue
        lb = self._line_bytes
        line_mask = ~(lb - 1)
        duel = DRRIPPolicy.DUEL_PERIOD
        lip = BRRIPPolicy.LONG_INTERVAL_PERIOD
        RMAX, RLONG, ITAG = RRPV_MAX, RRPV_LONG, INVALID_TAG
        # Geometry and latencies (every core's private levels are alike).
        first = self.cores[0]
        llc = self.llc
        ((ls0, sm0, ts0, ns0, ways0), (ls1, sm1, ts1, ns1, ways1),
         (ls2, sm2, ts2, ns2, ways2)) = [
            (c._line_shift, c._set_mask, c._tag_shift, c.num_sets, c.ways)
            for c in (first.l1, first.l2, llc)]
        lat1, lat2, lat3 = first.l1_lat, first.l2_lat, self.llc_lat
        # The shared LLC.
        tags2, dirty2, pinned2 = llc._tags, llc._dirty, llc._pinned
        vc2, pc2 = llc._valid_counts, llc._pinned_counts
        allways2, maxpin2 = llc._all_ways, llc._max_pinned_ways
        p2 = llc.policy
        b2 = p2._brrip
        rrpv2 = p2._rrpv
        st2 = llc.stats
        pfd2 = llc._prefetched_tags
        # DRAM, prefetchers and the pin decision.
        dram_access = self.dram.access_completes
        prefetch_ready = self._prefetch_ready
        observe = (self.stride_pf.observe if self.stride_pf is not None
                   else None)
        pin_predicate = self.controller.pin_predicate

        def llc_fill(si, tg, dty, pin_req, pref):
            """``Cache.fill_absent`` at the LLC; returns the dirty victim."""
            row = tags2[si]
            rr = rrpv2[si]
            pr = pinned2[si]
            victim = None
            if vc2[si] < ways2:
                way = row.index(ITAG)
                vc2[si] += 1
            else:
                if pc2[si]:
                    cands = [w for w in allways2 if not pr[w]] or allways2
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
                    for w in allways2:
                        rr[w] += bump
                    way = rr.index(RMAX)
                st2.evictions += 1
                vt = row[way]
                if dirty2[si][way]:
                    st2.writebacks += 1
                    victim = (vt * ns2 + si) * lb
                if pfd2:
                    pfd2.discard((si, vt))
                if pr[way]:
                    pr[way] = False
                    pc2[si] -= 1
            row[way] = tg
            dirty2[si][way] = dty
            if pin_req and pc2[si] < maxpin2:
                pr[way] = True
                st2.pinned_fills += 1
                pc2[si] += 1
                rr[way] = 0
            else:
                if pin_req:
                    st2.pin_refusals += 1
                pr[way] = False
                ph = si % duel
                if ph == 1 or (ph != 0 and p2._psel > p2._psel_half):
                    b2._fill_count += 1
                    rr[way] = RLONG if b2._fill_count % lip == 0 else RMAX
                else:
                    rr[way] = RLONG
            if pref:
                st2.prefetch_fills += 1
                pfd2.add((si, tg))
            return victim

        def llc_put(line, now):
            """``Cache.fill(line, dirty=True)`` at the LLC (a victim
            ripple); a dirty LLC victim is written to DRAM at ``now``."""
            si = (line >> ls2) & sm2
            tg = line >> ts2
            row = tags2[si]
            if tg in row:
                dirty2[si][row.index(tg)] = True
                return
            victim = llc_fill(si, tg, True, False, False)
            if victim is not None:
                dram_access(victim, now, True)

        def prefetch(line, now):
            """One prefetch issue: LLC-only, skipped when resident."""
            si = (line >> ls2) & sm2
            tg = line >> ts2
            if tg in tags2[si]:
                return
            prefetch_ready[line] = dram_access(line, now, False)
            victim = llc_fill(si, tg, False, pin_predicate(line), True)
            if victim is not None:
                dram_access(victim, now, True)

        def private_l2(l2):
            """The fill paths of one core's L2 (DRRIP; never pinned or
            prefetched): ``fill_absent`` and the victim-ripple ``put``."""
            tags1, dirty1, vc1 = l2._tags, l2._dirty, l2._valid_counts
            p1 = l2.policy
            b1 = p1._brrip
            rrpv1 = p1._rrpv
            st1 = l2.stats

            def l2_fill(si, tg, dty):
                row = tags1[si]
                rr = rrpv1[si]
                victim = None
                if vc1[si] < ways1:
                    way = row.index(ITAG)
                    vc1[si] += 1
                else:
                    if RMAX in rr:
                        way = rr.index(RMAX)
                    else:
                        bump = RMAX - max(rr)
                        for w in range(ways1):
                            rr[w] += bump
                        way = rr.index(RMAX)
                    st1.evictions += 1
                    if dirty1[si][way]:
                        st1.writebacks += 1
                        victim = (row[way] * ns1 + si) * lb
                row[way] = tg
                dirty1[si][way] = dty
                ph = si % duel
                if ph == 1 or (ph != 0 and p1._psel > p1._psel_half):
                    b1._fill_count += 1
                    rr[way] = RLONG if b1._fill_count % lip == 0 else RMAX
                else:
                    rr[way] = RLONG
                return victim

            def l2_put(line, now):
                si = (line >> ls1) & sm1
                tg = line >> ts1
                row = tags1[si]
                if tg in row:
                    dirty1[si][row.index(tg)] = True
                    return
                victim = l2_fill(si, tg, True)
                if victim is not None:
                    llc_put(victim, now)

            if checking:
                l2_fill = _checks.checked_fill(l2_fill, l2)
                l2_put = _checks.checked_fill(l2_put, l2, by_line=True)
            return l2_fill, l2_put

        if checking:
            llc_fill = _checks.checked_fill(llc_fill, llc)
            llc_put = _checks.checked_fill(llc_put, llc, by_line=True)

        per_core = []
        for core in self.cores:
            l1, l2, mshr = core.l1, core.l2, core.mshr
            per_core.append((
                l1._tags, l1._dirty, l1._valid_counts, l1.policy,
                l1.policy._stamp, l1.stats,
                l2._tags, l2.policy, l2.policy._rrpv, l2.stats,
                *private_l2(l2),
                mshr, mshr._completions, mshr.entries, mshr.stats,
                core.stats, core.offset,
                (core.xmem_pf.on_demand_miss if core.xmem_pf is not None
                 else None),
            ))

        def step(cur):
            core = cur.core
            pos = cur.pos
            m = cur.tm[pos]
            cur.pos = pos + 1
            if m & META_WORK_BIT:
                count = m >> META_COUNT_SHIFT
                core.now += count / issue
                core.stats.instructions += count
                return
            (tags0, dirty0, vc0, pol0, stamps0, st0, tags1, p1, rrpv1, st1,
             l2_fill, l2_put, mshr, comp, cap, mstats, cstats, offset,
             xmem_miss) = per_core[core.index]
            now = core.now
            work = m >> META_COUNT_SHIFT
            if work:
                now += work / issue
                cstats.instructions += work
            cstats.instructions += 1
            cstats.mem_accesses += 1
            line = (cur.tv[pos] + offset) & line_mask
            is_write = (m & META_WRITE_BIT) != 0
            # L1 probe (LRU).
            si0 = (line >> ls0) & sm0
            tg0 = line >> ts0
            row0 = tags0[si0]
            st0.accesses += 1
            if tg0 in row0:
                st0.hits += 1
                way = row0.index(tg0)
                if is_write:
                    dirty0[si0][way] = True
                pol0._clock += 1
                stamps0[si0][way] = pol0._clock
                # Completes after the 1.0 L1 latency: never past the
                # 4.0 MSHR threshold.
                core.now = now + slot
                return
            st0.misses += 1
            t = now + lat1
            # L2 probe (DRRIP; a miss trains the duel).
            si1 = (line >> ls1) & sm1
            tg1 = line >> ts1
            row1 = tags1[si1]
            st1.accesses += 1
            if tg1 in row1:
                st1.hits += 1
                rrpv1[si1][row1.index(tg1)] = 0
                completes = t + lat2
            else:
                st1.misses += 1
                ph = si1 % duel
                if ph == 0:
                    if p1._psel < p1._psel_max:
                        p1._psel += 1
                elif ph == 1:
                    if p1._psel > 0:
                        p1._psel -= 1
                t += lat2
                # LLC probe (DRRIP, prefetched tags).
                si2 = (line >> ls2) & sm2
                tg2 = line >> ts2
                row2 = tags2[si2]
                st2.accesses += 1
                llc_hit = tg2 in row2
                if llc_hit:
                    st2.hits += 1
                    rrpv2[si2][row2.index(tg2)] = 0
                    if pfd2 and (si2, tg2) in pfd2:
                        st2.prefetch_hits += 1
                        pfd2.discard((si2, tg2))
                else:
                    st2.misses += 1
                    ph = si2 % duel
                    if ph == 0:
                        if p2._psel < p2._psel_max:
                            p2._psel += 1
                    elif ph == 1:
                        if p2._psel > 0:
                            p2._psel -= 1
                t += lat3
                if observe is not None:
                    for target in observe(line):
                        prefetch(target, now)
                if llc_hit:
                    ready = prefetch_ready.pop(line, None)
                    if ready is not None and ready > t:
                        t = ready
                    completes = t
                else:
                    # Stride targets are never the demand line, so it
                    # is still absent.
                    cstats.llc_misses += 1
                    completes = dram_access(line, t, False)
                    prefetch_ready.pop(line, None)
                    victim = llc_fill(si2, tg2, False, pin_predicate(line),
                                      False)
                    if victim is not None:
                        dram_access(victim, t, True)
                    if xmem_miss is not None:
                        for target in xmem_miss(line):
                            prefetch(target, now)
                victim = l2_fill(si1, tg1, False)
                if victim is not None:
                    llc_put(victim, now)
            # L1 fill (LRU victim) and its ripple down the hierarchy.
            if vc0[si0] < ways0:
                way = row0.index(ITAG)
                vc0[si0] += 1
                victim = None
            else:
                stamps = stamps0[si0]
                way = stamps.index(min(stamps))
                st0.evictions += 1
                if dirty0[si0][way]:
                    st0.writebacks += 1
                    victim = (row0[way] * ns0 + si0) * lb
                else:
                    victim = None
            row0[way] = tg0
            dirty0[si0][way] = is_write
            pol0._clock += 1
            stamps0[si0][way] = pol0._clock
            if victim is not None:
                l2_put(victim, now)
            # MSHR reserve for a long access.
            if completes - now > 4.0:
                while comp and comp[0] <= now:
                    heappop(comp)
                start = now
                if len(comp) >= cap:
                    start = heappop(comp)
                    mstats.full_stalls += 1
                heappush(comp, completes)
                mstats.reservations += 1
                if checking:
                    _checks.check_mshr(mshr, now, start)
                if start > now:
                    now = start
            core.now = now + slot

        if not checking:
            return step
        unchecked = step

        def checked_step(cur):
            core = cur.core
            pos = cur.pos
            unchecked(cur)
            if not cur.tm[pos] & META_WORK_BIT:
                addr = cur.tv[pos] + core.offset
                for cache in (core.l1, core.l2, llc):
                    _checks.check_cache_set(cache, cache._index(addr))
        return checked_step


def _coalesce(chunks: List[int], chunk_bytes: int
              ) -> List[Tuple[int, int]]:
    """Chunk indices -> coalesced (start, end) byte spans."""
    spans: List[Tuple[int, int]] = []
    for c in chunks:
        start = c * chunk_bytes
        if spans and spans[-1][1] == start:
            spans[-1] = (spans[-1][0], start + chunk_bytes)
        else:
            spans.append((start, start + chunk_bytes))
    return spans


def _prefix(spans: List[Tuple[int, int]], budget: int
            ) -> List[Tuple[int, int]]:
    """Leading ``budget`` bytes of a span list."""
    out: List[Tuple[int, int]] = []
    remaining = budget
    for s, e in spans:
        if remaining <= 0:
            break
        take = min(e - s, remaining)
        out.append((s, s + take))
        remaining -= take
    return out
