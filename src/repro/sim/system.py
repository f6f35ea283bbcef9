"""Full-system composition: caches + DRAM + prefetchers + XMem.

:class:`MemorySystem` is the memory side the trace engine talks to; the
``build_*`` functions assemble the configurations evaluated in the
paper:

* :func:`build_baseline` -- DRRIP caches + multi-stride L3 prefetcher
  (the strengthened baseline of Sections 5.3/6.3);
* :func:`build_xmem` -- baseline plus the Use-Case-1 cache controller
  (greedy pinning) and the XMem semantic prefetcher;
* :func:`build_xmem_pref` -- the Figure 6 ablation: XMem prefetching
  only, DRRIP cache management unchanged.

Each build returns a :class:`SystemHandle` bundling the engine, memory,
and (when applicable) the XMem library to hand to workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.xmemlib import XMemLib, XMemProcess
from repro.cpu.engine import EngineStats, TraceEngine
from repro.cpu.trace import Trace, strip_xmem
from repro.dram.system import DramSystem
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.prefetch import MultiStridePrefetcher, XMemPrefetcher
from repro.policies.cache_mgmt import CacheController
from repro.sim.config import SimConfig


#: Buffered writebacks that trigger a drain of the write queue.
WRITE_DRAIN_LINES = 32


@dataclass
class MemoryStats:
    """Counters owned by the memory system wrapper."""

    demand_reads: int = 0
    demand_writes: int = 0
    prefetch_reads: int = 0
    writebacks: int = 0


class MemorySystem:
    """The engine-facing memory side of the machine.

    :meth:`access` is the single-core memory model written out plainly:
    the walk over the hierarchy's levels, the DRAM read of a full miss,
    the write queue, the prefetchers and their LLC fills.  Production
    runs execute the same model fused into the engine loop
    (:mod:`repro.cpu.vector_engine`), which calls only the write
    queue's methods (:meth:`_buffer_write`, :meth:`drain_writes`) of
    this class; :meth:`access` is called by the reference engine
    (:class:`repro.testing.oracles.ReferenceEngine`) and by tests.
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        dram: DramSystem,
        stride_prefetcher: Optional[MultiStridePrefetcher] = None,
        xmem_prefetcher: Optional[XMemPrefetcher] = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.dram = dram
        self.stride_prefetcher = stride_prefetcher
        self.xmem_prefetcher = xmem_prefetcher
        #: line -> DRAM completion time of an in-flight prefetch; a
        #: demand hit to a line that has not arrived yet waits for it
        #: (prefetch timeliness).
        self._prefetch_ready: dict = {}
        #: Buffered writebacks, drained in (bank, row)-sorted batches --
        #: the memory controller's write queue.  Writes leave the
        #: critical path and stop closing rows under demand reads.
        self._write_buffer: List[int] = []
        self.stats = MemoryStats()

    def stat_groups(self):
        """StatGroup protocol: the wrapper, the cache levels, the DRAM
        system (with its per-bank aggregate), and the prefetchers."""
        yield "memory", self.stats
        yield from self.hierarchy.stat_groups()
        yield from self.dram.stat_groups()
        if self.stride_prefetcher is not None:
            yield "prefetch.stride", self.stride_prefetcher.stats
        if self.xmem_prefetcher is not None:
            yield "prefetch.xmem", self.xmem_prefetcher.stats

    def access(self, paddr: int, is_write: bool,
               now: float) -> Tuple[float, bool]:
        """One demand access; returns (completion time, went-to-DRAM)."""
        hierarchy = self.hierarchy
        levels = hierarchy.levels
        last = len(levels) - 1
        line = paddr & -hierarchy.line_bytes
        # Look the line up level by level; only L1 sees the write.
        lookup = 0
        hit_level: Optional[int] = None
        llc_prefetch_hit = False
        for i, cache in enumerate(levels):
            lookup += hierarchy.latencies[i]
            result = cache.access(line, is_write and i == 0)
            if result.hit:
                hit_level = i
                llc_prefetch_hit = i == last and result.was_prefetched
                break
        # Fill every level above the hit (all of them on a full miss),
        # the LLC first and L1 last.  L1 gets the dirty bit on a write
        # (write-allocate); inner copies stay clean, and only the LLC
        # consults the pin predicate.  A dirty victim ripples down,
        # landing dirty on the next level; one that leaves the LLC is
        # a DRAM write.
        writebacks: List[int] = []
        top = last + 1 if hit_level is None else hit_level
        for i in range(top - 1, -1, -1):
            wb = levels[i].fill_absent(
                line, dirty=is_write and i == 0,
                pinned=i == last and hierarchy.pin_predicate(line))
            j = i + 1
            while wb is not None and j <= last:
                wb = levels[j].fill(wb, dirty=True)
                j += 1
            if wb is not None:
                writebacks.append(wb)
        # The integer lookup latencies are summed first and added to
        # ``now`` once, as the engine does: adding them level by level
        # rounds differently.
        t_lookup = now + lookup
        memory_read = hit_level is None
        ready = self._prefetch_ready.pop(line, None)
        if memory_read:
            completes = self.dram.access_completes(line, t_lookup,
                                                   is_write=False)
            if is_write:
                self.stats.demand_writes += 1
            else:
                self.stats.demand_reads += 1
        else:
            completes = t_lookup
            if ready is not None and ready > completes:
                # The prefetch was issued but its data has not
                # arrived: the demand access waits (late prefetch).
                completes = ready
        for wb in writebacks:
            self._buffer_write(wb, t_lookup)
        if self.stride_prefetcher is not None and (
                memory_read or hit_level == last):
            for target in self.stride_prefetcher.observe(line):
                self._prefetch(target, now)
        if self.xmem_prefetcher is not None and (
                memory_read or llc_prefetch_hit):
            # A miss to a pinned atom starts the stream; a demand hit on
            # a prefetched line keeps it running ahead.
            for target in self.xmem_prefetcher.on_demand_miss(paddr):
                self._prefetch(target, now)
        return completes, memory_read

    def _buffer_write(self, line: int, now: float) -> None:
        self.stats.writebacks += 1
        self._write_buffer.append(line)
        if len(self._write_buffer) >= WRITE_DRAIN_LINES:
            self.drain_writes(now)

    def drain_writes(self, now: float) -> None:
        """Issue buffered writebacks, sorted for row locality.

        Sorting by (bank, row) is what an FR-FCFS controller's write
        drain achieves: consecutive writes to the same row become row
        hits instead of ping-ponging the row buffer under reads.  The
        key is the DRAM's ``order_key``: (bank, row, column) packed
        into one int, ordered as a DramAddress is.
        """
        if not self._write_buffer:
            return
        dram = self.dram
        for line in sorted(self._write_buffer, key=dram.order_key):
            dram.access_completes(line, now, is_write=True)
        self._write_buffer.clear()

    def _prefetch(self, line: int, now: float) -> None:
        """Prefetch one line into the LLC only; free when resident."""
        hierarchy = self.hierarchy
        llc = hierarchy.llc
        if llc.probe(line):
            return
        wb = llc.fill_absent(line, pinned=hierarchy.pin_predicate(line),
                             prefetch=True)
        self.stats.prefetch_reads += 1
        self._prefetch_ready[line] = self.dram.access_completes(
            line, now, is_write=False)
        if wb is not None:
            self._buffer_write(wb, now)


@dataclass
class SystemHandle:
    """Everything a workload run needs, bundled."""

    name: str
    config: SimConfig
    engine: TraceEngine
    memory: MemorySystem
    xmemlib: Optional[XMemLib] = None
    controller: Optional[CacheController] = None

    def run(self, trace: Trace) -> EngineStats:
        """Execute a trace on this machine.

        Machines without an XMem system automatically drop the trace's
        XMem operations (hints are supplemental: the binary still runs).
        See :mod:`repro.cpu.tiers` for how the trace is evaluated.
        """
        from repro.cpu.tiers import run_tier
        return run_tier(self.engine, strip_xmem(trace)
                        if self.xmemlib is None else trace)

    @property
    def llc(self):
        """The last-level cache (stats live here)."""
        return self.memory.hierarchy.llc

    @property
    def dram(self) -> DramSystem:
        """The DRAM system (latency/RBL stats live here)."""
        return self.memory.dram

    def stats_registry(self) -> "StatsRegistry":
        """The machine's full stats tree, assembled fresh.

        Groups are live references into the component counters, so a
        registry built before a run snapshots correctly after it.
        Paths: ``engine``, ``engine.mshr``, ``memory``,
        ``cache.<level>``, ``dram``, ``dram.banks``,
        ``prefetch.{stride,xmem}``, and ``amu``/``amu.alb`` on XMem
        machines.
        """
        from repro.sim.stats import StatsRegistry
        registry = StatsRegistry()
        registry.register_provider("engine", self.engine)
        registry.register_provider("", self.memory)
        if self.xmemlib is not None:
            registry.register_provider("amu", self.xmemlib.process.amu)
        return registry

    def stats_snapshot(self) -> dict:
        """One nested, JSON-ready snapshot of every component counter."""
        return self.stats_registry().snapshot()


def _base_parts(config: SimConfig):
    hierarchy = CacheHierarchy(config.levels, config.line_bytes)
    dram = DramSystem(
        geometry=config.dram_geometry,
        timing=config.timing(),
        mapping=config.dram_mapping,
    )
    stride = None
    if config.prefetcher.enabled:
        stride = MultiStridePrefetcher(
            streams=config.prefetcher.streams,
            degree=config.prefetcher.degree,
            line_bytes=config.line_bytes,
        )
    return hierarchy, dram, stride


def build_baseline(config: SimConfig) -> SystemHandle:
    """The strengthened baseline: DRRIP + multi-stride prefetcher."""
    hierarchy, dram, stride = _base_parts(config)
    memory = MemorySystem(hierarchy, dram, stride_prefetcher=stride)
    engine = TraceEngine(memory, xmemlib=None,
                         issue_width=config.cpu.issue_width,
                         window=config.cpu.window)
    return SystemHandle("baseline", config, engine, memory)


def build_xmem(config: SimConfig,
               process: Optional[XMemProcess] = None) -> SystemHandle:
    """Baseline + Use-Case-1 cache management + XMem prefetching."""
    hierarchy, dram, stride = _base_parts(config)
    xmemlib = XMemLib(process)
    xmem_pf = XMemPrefetcher(
        lookup_atom=xmemlib.process.amu.lookup,
        line_bytes=config.line_bytes,
    )
    memory = MemorySystem(hierarchy, dram, stride_prefetcher=stride,
                          xmem_prefetcher=xmem_pf)
    controller = CacheController(xmemlib, hierarchy.llc,
                                 prefetcher=xmem_pf)
    controller.install(hierarchy)
    engine = TraceEngine(memory, xmemlib=xmemlib,
                         issue_width=config.cpu.issue_width,
                         window=config.cpu.window)
    return SystemHandle("xmem", config, engine, memory,
                        xmemlib=xmemlib, controller=controller)


def build_xmem_pref(config: SimConfig) -> SystemHandle:
    """Figure 6's XMem-Pref: semantic prefetching, DRRIP caching.

    The controller still tracks the "pinned" working set so the
    prefetcher knows what to fetch, but its pin predicate is *not*
    installed -- insertion stays default-priority everywhere.
    """
    hierarchy, dram, stride = _base_parts(config)
    xmemlib = XMemLib()
    xmem_pf = XMemPrefetcher(
        lookup_atom=xmemlib.process.amu.lookup,
        line_bytes=config.line_bytes,
    )
    memory = MemorySystem(hierarchy, dram, stride_prefetcher=stride,
                          xmem_prefetcher=xmem_pf)
    controller = CacheController(xmemlib, hierarchy.llc,
                                 prefetcher=xmem_pf)
    # Deliberately NOT installed on the hierarchy: no pinning.
    engine = TraceEngine(memory, xmemlib=xmemlib,
                         issue_width=config.cpu.issue_width,
                         window=config.cpu.window)
    return SystemHandle("xmem-pref", config, engine, memory,
                        xmemlib=xmemlib, controller=controller)
