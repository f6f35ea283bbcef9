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

A core's private levels depend on its own trace alone: the hierarchy
is inclusive-by-fill with no back-invalidation, and prefetches and
pins fill only the LLC.  So each core runs its L1 and L2 ahead, chunk
by chunk, through the single-core interpreter's front-end
(:func:`repro.cpu.vector_engine._front_end`, with no stride
prefetcher: the shared one trains at the LLC), and only events that
reach shared state are ordered -- the bound/weave split of zsim.  A
core's *yield points* are the front-end's records (its L1 misses) and
its XMemOps (they can retrigger the global pinning decision).  A
binary heap keyed by ``(now, index)`` -- the core's time before the
event's own work, the lowest core index breaking ties -- executes them
in the order of the per-event reference, each record through the
shared half of the memory path built once per run
(:meth:`CorunSystem._yield_body`): the LLC probe, the shared stride
prefetcher's training, prefetch issue, the demand DRAM read and LLC
fill, the XMem prefetcher, the record's LLC-bound writebacks and the
core's MSHR reserve, in the order the method descent
(:class:`repro.testing.oracles.ReferenceCorun`) performs them, so
every float sum is the same.  The LLC primitives are the single-core
engine's (:func:`repro.cpu.vector_engine._llc_ops`), pinned by the
global controller, with a dirty victim written to DRAM at once;
every DRAM access is a
:meth:`~repro.dram.system.DramSystem.access_completes` call.  The
body is specialised to the one machine shape every caller builds
(``scaled_config``: LRU L1, DRRIP L2/L3, power-of-two lines of at
least 8 bytes), which the constructor enforces.

Private caches hold tenant-local lines; the core's address-space
offset (:data:`APP_SPACE`) is added where a record leaves the core --
at the LLC, DRAM, the prefetchers and the pin predicate.  The offset
is a multiple of every cache's set span, so set indices are unchanged
and tags are relabelled one-to-one.  Time between yield points folds
from the records' issue-slot counts, exact on the dyadic grid below
:func:`~repro.cpu.vector_engine.fold_ceiling`; past that ceiling, or
off the grid (issue width 3), every position is replayed in the
reference's order.

Private events commute with other cores' shared events (disjoint
state), which is why a core's private levels may run ahead while
sibling cores are still behind in model time: only the *order of
shared interactions* is observable, and the heap fixes it.  Per-core
:class:`CoreStats` and every counter must be bit-identical to
:class:`~repro.testing.oracles.ReferenceCorun`, which steps one event
of the ``(now, index)``-smallest core at a time through its own
method descent (fuzz lane ``corun``, pins in
``tests/sim/test_corun_packed.py``).  With ``REPRO_CHECK=1`` the
front-end checks each core's L1 and L2 per chunk, the shared half
re-derives every LLC set a yield point touched, and each core's
checked :meth:`MSHRFile.reserve <repro.mem.mshr.MSHRFile.reserve>`
bounds every reservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.stats import iter_stat_groups
from repro.core.xmemlib import XMemLib
from repro.cpu.trace import PackedTrace, Trace
from repro.cpu.vector_engine import (
    CHUNK,
    LEVEL_POLICIES,
    _NEVER,
    _front_end,
    _llc_ops,
    fold_ceiling,
)
from repro.dram.system import DramSystem, check_compiled
from repro.mem.cache import Cache
from repro.mem.mshr import MSHRFile
from repro.mem.prefetch import MultiStridePrefetcher, XMemPrefetcher
from repro.sim.config import SimConfig
from repro.testing import checks as _checks

#: Address-space stride between co-running applications.
APP_SPACE = 1 << 40


@dataclass
class CoreStats:
    """Per-core results."""

    cycles: float = 0.0
    instructions: int = 0
    mem_accesses: int = 0
    llc_misses: int = 0


class _Core:
    """Private state of one core.  :meth:`CorunSystem.run` fills its L1
    and L2 with tenant-local lines (the trace's own addresses)."""

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
        lb = config.line_bytes
        # Record codes carry flags in a line's bits 0-2.
        if lb < 8 or lb & (lb - 1):
            raise ConfigurationError(
                f"corun expects a power-of-two line size of at least 8 "
                f"bytes: {lb}")
        self.config = config
        l3 = config.levels[2]
        self.llc = Cache("sharedL3", l3.size_bytes, l3.ways,
                         config.line_bytes, policy=l3.policy)
        self.llc_lat = l3.latency
        self.dram = DramSystem(geometry=config.dram_geometry,
                               timing=config.timing(),
                               mapping=config.dram_mapping)
        check_compiled(self.dram, "corun's DRAM")
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

    @staticmethod
    def _app_lookup(offset: int, lib: XMemLib):
        def lookup(global_addr: int):
            return lib.process.amu.lookup(global_addr - offset)
        return lookup

    # -- Stats ----------------------------------------------------------

    def stat_groups(self):
        """StatGroup protocol: shared resources plus per-core groups."""
        yield "llc", self.llc.stats
        yield from self.dram.stat_groups()
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

        Object event streams are packed first.  Each core is a
        :meth:`_tenant` generator; the heap pops the core with the
        smallest ``(now, index)`` key and resumes it, which executes
        its yield point and yields the key of its next one.
        """
        if len(traces) != len(self.cores):
            raise ConfigurationError(
                f"{len(self.cores)} cores need {len(self.cores)} traces"
            )
        checking = _checks.enabled()
        body = self._yield_body(checking)
        first = self.cores[0]
        ceiling = fold_ceiling(self.config.cpu.issue_width,
                               self.dram.timing,
                               (first.l1_lat, first.l2_lat, self.llc_lat))
        tenants = [
            self._tenant(core, trace if type(trace) is PackedTrace
                         else PackedTrace.from_events(trace),
                         body(core), ceiling, checking)
            for core, trace in zip(self.cores, traces)]
        heap: List[Tuple[float, int]] = []
        for idx, tenant in enumerate(tenants):
            key = next(tenant, None)
            if key is not None:
                heappush(heap, (key, idx))
        while heap:
            _, idx = heappop(heap)
            key = next(tenants[idx], None)
            if key is not None:
                heappush(heap, (key, idx))
        return [c.stats for c in self.cores]

    def _tenant(self, core: _Core, trace: PackedTrace, access,
                ceiling: float, checking: bool):
        """One core's run: a generator that yields the core's heap key
        before each yield point and executes the point when resumed.

        The front-end runs the core's L1 and L2 a chunk ahead.  Between
        yield points ``now`` advances by the issue slots of the L1 hits
        and Work blocks passed -- folded from the records' slot counts
        below ``ceiling``, else replayed per position in the
        reference's order.  A record's or an XMemOp's key is the
        core's time before its own work; a record then runs through
        ``access`` (:meth:`_yield_body`).  At the end the window drains
        and the core's counters are set.
        """
        issue = self.config.cpu.issue_width
        slot = 1.0 / issue
        tm = trace.meta
        xops = trace.xmem
        n_ops = len(xops)
        xmemlib = core.xmemlib
        chunk, finish = _front_end(core.l1, core.l2, None,
                                   self.config.line_bytes, trace, checking)

        def xmem_op(k):
            op = xops[k][1]
            if xmemlib is not None:
                getattr(xmemlib, op.method)(*op.args)

        now = core.now
        u_done = oi = 0
        op_at = xops[0][0] if n_ops else _NEVER
        total = len(tm)
        for pos in range(0, total, CHUNK):
            begin, n, ua, _, rec_i, rec_code, rec_ext, u_end = chunk(
                pos, min(pos + CHUNK, total))
            q = xi = 0
            # The records, then the sentinel ``(n, -1)``: the chunk's
            # end.  XMemOps due before a record's position run first.
            for i, code in zip(rec_i, rec_code):
                at = op_at - begin
                while True:
                    j = at if at < i else i
                    # Pass the private positions [q, j): ``pre`` counts
                    # the issue slots before position j's own work
                    # (meta: count << 2 | Work << 1 | write).
                    pre = ua[j] - (tm[begin + j] >> 2) if j < n else u_end
                    if now < ceiling:
                        if pre != u_done:
                            now += (pre - u_done) / issue
                    else:
                        for m in tm[begin + q:begin + j]:
                            if m >> 2:
                                now += (m >> 2) / issue
                            if not m & 2:
                                now += slot      # an L1 hit
                    u_done = pre
                    q = j
                    if at > i:
                        break
                    yield now
                    now += slot
                    xmem_op(oi)
                    oi += 1
                    op_at = xops[oi][0] if oi < n_ops else _NEVER
                    at = op_at - begin
                if code < 0:
                    break
                yield now
                work = tm[begin + i] >> 2
                if work:
                    now += work / issue
                ext = None
                if code & 4:
                    ext = rec_ext[xi]
                    xi += 1
                now = access(code, ext, now)
                u_done = ua[i] + 1
                q = i + 1
        while oi < n_ops:                # an empty dense stream
            yield now
            now += slot
            xmem_op(oi)
            oi += 1
        instructions, mem_accesses = finish()
        tail = core.mshr.latest_completion()
        if tail is not None and tail > now:
            now = tail
        core.mshr.flush()
        core.now = now
        stats = core.stats
        stats.cycles = now
        stats.instructions += instructions + n_ops
        stats.mem_accesses += mem_accesses

    # -- The shared half of the memory path ---------------------------------

    def _yield_body(self, checking: bool):
        """Build the shared half of the memory path of one :meth:`run`.

        Returns ``for_core(core)``, which returns the core's
        ``access(code, ext, now)``: one record of the core's front-end
        -- an L1 miss, ``now`` its time after its work -- through the
        shared LLC, DRAM and the core's MSHR window, returning the
        core's time after the access's issue slot.  The LLC is the
        single-core back-end's (:func:`~repro.cpu.vector_engine._llc_ops`,
        pinned by the controller, a dirty victim written to DRAM at
        once); ``access`` calls it, the shared stride
        prefetcher, DRAM and the XMem prefetcher in the order of the
        method descent of :class:`repro.testing.oracles.ReferenceCorun`
        -- stride prefetches, the demand DRAM read and fill, XMem
        prefetches, then the record's LLC-bound writebacks -- so
        counters and float sums are identical.

        The window is the core's ``MSHRFile.reserve``, checked under
        ``REPRO_CHECK``.  With ``checking`` every LLC fill and the LLC
        set of every record are re-derived by
        :func:`~repro.testing.checks.check_cache_set`.
        """
        slot = 1.0 / self.config.cpu.issue_width
        not7 = ~7                        # record code -> line
        # Latencies (every core's private levels are alike).
        first = self.cores[0]
        lat1, lat2, lat3 = first.l1_lat, first.l2_lat, self.llc_lat
        llc = self.llc
        dram_access = self.dram.access_completes
        prefetch_ready = self._prefetch_ready
        observe = (self.stride_pf.observe if self.stride_pf is not None
                   else None)

        def write(line, t):
            dram_access(line, t, True)

        probe, fill, put, prefetch = _llc_ops(
            llc, self.controller.pin_predicate, self.dram, write,
            prefetch_ready, checking)

        def for_core(core: _Core):
            offset = core.offset
            reserve = core.mshr.reserve
            cstats = core.stats
            xmem_miss = (core.xmem_pf.on_demand_miss
                         if core.xmem_pf is not None else None)

            def access(code, ext, now):
                line = (code & not7) + offset
                t = now + lat1
                if code & 2:                 # L2 hit
                    completes = t + lat2
                else:
                    t += lat2
                    llc_hit = probe(line)
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
                        # Stride targets are never the demand line, so
                        # it is still absent.
                        cstats.llc_misses += 1
                        completes = dram_access(line, t, False)
                        prefetch_ready.pop(line, None)
                        victim = fill(line)
                        if victim is not None:
                            write(victim, t)
                        if xmem_miss is not None:
                            for target in xmem_miss(line):
                                prefetch(target, now)
                if ext is not None:
                    # The L2 fill's victim, then the L1 victim's ripple
                    # (tenant-local lines).
                    for wb in ext[:2]:
                        if wb is not None:
                            victim = put(wb + offset)
                            if victim is not None:
                                write(victim, now)
                # MSHR reserve for a long access.
                if completes - now > 4.0:
                    start = reserve(now, completes)
                    if start > now:
                        now = start
                return now + slot

            if not checking:
                return access

            def checked_access(code, ext, now):
                now = access(code, ext, now)
                _checks.check_cache_set(llc, llc._index((code & not7)
                                                         + offset))
                return now
            return checked_access

        return for_core


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
