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
fast-forwarded with the packed tier's machinery (chunked columnar
residency probing, inline replacement updates, exact dyadic-grid time
accumulation), so the core yields control only at *yield points*:
accesses that can leave the L1 (they may ripple writebacks into the
shared LLC/DRAM or consume shared prefetch state) and XMemOps (they can
retrigger the global pinning decision).  Yield points execute through
one shared ``_access`` path, in timestamp order with the lowest core
index breaking ties.  Machine shapes outside the fast-forward domain
(:meth:`CorunSystem.packed_eligible`) skip fast-forwarding: every dense
event is then a yield point.

Private events commute with other cores' shared events (disjoint
state), which is why a core's private prefix may be applied eagerly
while sibling cores are still behind in model time: only the *order of
shared interactions* is observable, and the heap fixes it.  The
per-event reference interleaver,
:class:`repro.testing.oracles.ReferenceCorun`, steps one event of the
``(now, index)``-smallest core at a time; per-core :class:`CoreStats`
and every counter must be bit-identical to it (fuzz lane ``corun``,
pins in ``tests/sim/test_corun_packed.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

try:
    import numpy as _np
except ImportError:          # pragma: no cover - numpy ships in the image
    _np = None

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
from repro.cpu.vector_engine import BATCHABLE_POLICIES, dyadic_k
from repro.dram.system import DramSystem
from repro.mem.cache import Cache
from repro.mem.replacement import LRUPolicy, RandomPolicy
from repro.mem.mshr import MSHRFile
from repro.mem.prefetch import MultiStridePrefetcher, XMemPrefetcher
from repro.sim.config import SimConfig

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
    in one vectorized pass (numpy planner only).
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
        if _np is not None and self.n_dense:
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
        return any(s <= global_addr < e for s, e in spans)

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
        yield point and plans its next one.
        """
        if len(traces) != len(self.cores):
            raise ConfigurationError(
                f"{len(self.cores)} cores need {len(self.cores)} traces"
            )
        self._fast_forward = self.packed_eligible()
        issue = self._issue
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
                self._exec_packed_event(cur)
            self._plan(cur)
            heappush(heap, (core.now, idx))
        return [c.stats for c in self.cores]

    # -- Fast-forward planner --------------------------------------------

    def packed_eligible(self) -> bool:
        """Whether the machine shape admits the batched fast path.

        The gate mirrors :func:`repro.cpu.vector_engine.eligible`:
        plain :class:`Cache` L1s under a batchable policy with
        shift-decomposable geometry, no prefetched L1 tags (co-run
        prefetches only fill the LLC, so this holds by construction),
        and every time quantum on one dyadic grid so batched ``now``
        accumulation is exact.  Failing the gate turns fast-forwarding
        off -- every event then executes as a yield point -- so the
        gate never changes the model, only how fast it is evaluated.
        """
        issue = self.config.cpu.issue_width
        if issue <= 0 or issue & (issue - 1):
            return False
        lats = [float(self.llc_lat)]
        for core in self.cores:
            l1 = core.l1
            if type(l1) is not Cache or l1._line_shift is None:
                return False
            if type(l1.policy) not in BATCHABLE_POLICIES:
                return False
            if l1._prefetched_tags:
                return False
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

    def _exec_packed_event(self, cur: _PackedCursor) -> None:
        """Execute the dense event at ``cur.pos`` (a Work block or a
        memory access through the shared ``_access`` path)."""
        core = cur.core
        issue = self._issue
        pos = cur.pos
        m = cur.tm[pos]
        cur.pos = pos + 1
        if m & META_WORK_BIT:
            count = m >> META_COUNT_SHIFT
            core.now += count / issue
            core.stats.instructions += count
            return
        work = m >> META_COUNT_SHIFT
        if work:
            core.now += work / issue
            core.stats.instructions += work
        core.stats.instructions += 1
        core.stats.mem_accesses += 1
        addr = cur.tv[pos] + core.offset
        completes = self._access(core, addr, bool(m & META_WRITE_BIT))
        latency = completes - core.now
        if latency > 4.0:
            start = core.mshr.reserve(core.now, completes)
            core.now = max(core.now, start) + 1.0 / issue
        else:
            core.now += 1.0 / issue

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
        of the packed tier), so the planner's walk needs no per-event
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
        per-event state writes an L1 hit through ``_access`` performs
        (LRU: one clock tick and a stamp; RRIP: RRPV promotion to 0;
        random: nothing), so no replay pass is needed.  Counters and model time
        for the whole run then commit in one batched step.  Probes are
        live, so snapshot staleness never matters here.  True iff
        ``bound`` reached.
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
        tpol = type(pol)
        if tpol is LRUPolicy:
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
        elif tpol is RandomPolicy:
            while pos < bound:
                if cmem[i]:
                    sidx = csets[i]
                    tags = l1_tags[sidx]
                    if cwr[i]:
                        try:
                            w = tags.index(ctags[i])
                        except ValueError:
                            break
                        l1_dirty[sidx][w] = True
                    elif ctags[i] not in tags:
                        break
                pos += 1
                i += 1
        else:
            # The RRIP family: a hit promotes the line to RRPV 0.
            rrpv = pol._rrpv
            while pos < bound:
                if cmem[i]:
                    sidx = csets[i]
                    tags = l1_tags[sidx]
                    try:
                        w = tags.index(ctags[i])
                    except ValueError:
                        break
                    rrpv[sidx][w] = 0
                    if cwr[i]:
                        l1_dirty[sidx][w] = True
                pos += 1
                i += 1
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
        """Fallback planner over the raw packed columns (no numpy, or
        addresses outside the int64-safe window).

        Interprets hit events one at a time with the arithmetic of
        :meth:`_exec_packed_event` -- pure Python ints, so it is exact
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

    # -- Shared memory path ----------------------------------------------

    def _access(self, core: _Core, addr: int, is_write: bool) -> float:
        line = addr - addr % self._line_bytes
        now = core.now
        # Private L1.
        if core.l1.access(line, is_write).hit:
            return now + 1.0
        t = now + core.l1_lat
        # Private L2.
        if core.l2.access(line, False).hit:
            self._fill_private(core, line, is_write, l2_resident=True)
            return t + core.l2_lat
        t += core.l2_lat
        # Shared L3.
        result = self.llc.access(line, False)
        t += self.llc_lat
        if self.stride_pf is not None:
            for target in self.stride_pf.observe(line):
                self._prefetch(target, now)
        if result.hit:
            ready = self._prefetch_ready.pop(line, None)
            if ready is not None and ready > t:
                t = ready
            self._fill_private(core, line, is_write)
            return t
        core.stats.llc_misses += 1
        res = self.dram.access(line, t, is_write=False)
        self._prefetch_ready.pop(line, None)
        wb = self.llc.fill(line,
                           pinned=self.controller.pin_predicate(line))
        if wb is not None:
            self.dram.access(wb, t, is_write=True)
        if core.xmem_pf is not None:
            for target in core.xmem_pf.on_demand_miss(line):
                self._prefetch(target, now)
        self._fill_private(core, line, is_write)
        return res.completes_at

    def _fill_private(self, core: _Core, line: int, is_write: bool,
                      l2_resident: bool = False) -> None:
        # Callers establish the line's L2 state within the same
        # ``_access`` (nothing in between touches the private levels):
        # a resident merge with no flags is a no-op, and an absent
        # line can fill without the presence re-scan.  The writeback
        # ripples keep plain :meth:`Cache.fill` -- an L1 victim is
        # usually still L2-resident.
        if not l2_resident:
            wb2 = core.l2.fill_absent(line)
            if wb2 is not None:
                wb3 = self.llc.fill(wb2, dirty=True)
                if wb3 is not None:
                    self.dram.access(wb3, core.now, is_write=True)
        wb1 = core.l1.fill_absent(line, dirty=is_write)
        if wb1 is not None:
            wb2 = core.l2.fill(wb1, dirty=True)
            if wb2 is not None:
                wb3 = self.llc.fill(wb2, dirty=True)
                if wb3 is not None:
                    self.dram.access(wb3, core.now, is_write=True)

    def _prefetch(self, line: int, now: float) -> None:
        if self.llc.probe(line):
            return
        res = self.dram.access(line, now, is_write=False)
        self._prefetch_ready[line] = res.completes_at
        wb = self.llc.fill(line, prefetch=True,
                           pinned=self.controller.pin_predicate(line))
        if wb is not None:
            self.dram.access(wb, now, is_write=True)


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
