"""Focused tests for the MemorySystem wrapper (write queue, prefetch
timeliness, stats)."""

import pytest

from repro.dram.mapping import DramGeometry
from repro.dram.system import DramSystem
from repro.mem.hierarchy import CacheHierarchy, LevelConfig
from repro.mem.prefetch import MultiStridePrefetcher
from repro.sim import system
from repro.sim.system import MemorySystem


def make_memory(llc_bytes=4096, stride_pf=False, **dram_kw):
    hierarchy = CacheHierarchy(
        [LevelConfig("LLC", llc_bytes, 4, latency=10, policy="lru")]
    )
    dram_kw.setdefault("geometry", DramGeometry(capacity_bytes=1 << 24))
    dram = DramSystem(**dram_kw)
    pf = MultiStridePrefetcher(degree=2) if stride_pf else None
    return MemorySystem(hierarchy, dram, stride_prefetcher=pf)


class TestWriteQueue:
    def test_writebacks_buffered_until_threshold(self, monkeypatch):
        monkeypatch.setattr(system, "WRITE_DRAIN_LINES", 8)
        mem = make_memory(llc_bytes=1024)
        # Dirty lines that conflict-evict: 1KB/4way/64B = 4 sets.
        now = 0.0
        for i in range(12):
            mem.access(i * 4 * 64, True, now)  # same set, dirty fills
            now += 500.0
        # Evictions started after the 4th fill: 8 writebacks buffered
        # at that point trigger one drain.
        assert mem.stats.writebacks >= 8
        assert mem.dram.stats.writes in (0, 8)
        assert len(mem._write_buffer) == mem.stats.writebacks - \
            mem.dram.stats.writes

    def test_drain_writes_flushes_and_sorts(self, monkeypatch):
        monkeypatch.setattr(system, "WRITE_DRAIN_LINES", 1000)  # never
        mem = make_memory(llc_bytes=1024)
        now = 0.0
        for i in range(12):
            mem.access(i * 4 * 64, True, now)
            now += 500.0
        buffered = len(mem._write_buffer)
        assert buffered > 0
        mem.drain_writes(now)
        assert mem._write_buffer == []
        assert mem.dram.stats.writes == buffered

    def test_drain_empty_noop(self):
        mem = make_memory()
        mem.drain_writes(0.0)
        assert mem.dram.stats.writes == 0

    def test_sorted_drain_gets_row_hits(self, monkeypatch):
        monkeypatch.setattr(system, "WRITE_DRAIN_LINES", 1000)
        mem = make_memory(llc_bytes=1024)
        # Fill dirty lines spread across two rows of one bank, in an
        # interleaved order that would ping-pong if unsorted.
        g = mem.dram.geometry
        row_stride = g.row_bytes * g.banks_per_rank * g.channels
        lines = []
        for i in range(8):
            lines.append((i % 2) * row_stride + (i // 2) * 4 * 64)
        now = 0.0
        for line in lines:
            mem.access(line, True, now)
            now += 300.0
        # Evict everything by filling other sets' tags.
        for i in range(64):
            mem.access((1 << 20) + i * 64, False, now)
            now += 300.0
        conflicts_before = mem.dram.stats.row_conflicts
        mem.drain_writes(now)
        drain_conflicts = mem.dram.stats.row_conflicts - conflicts_before
        # Sorted drain: each row opened at most once for the writes.
        assert drain_conflicts <= 4


class TestPrefetchTimeliness:
    def test_demand_hit_waits_for_late_prefetch(self):
        mem = make_memory(stride_pf=True)
        now = 0.0
        # Train the stride prefetcher: sequential misses.
        for i in range(4):
            completes, _ = mem.access(i * 64, False, now)
            now = completes
        # The prefetcher has now fetched ahead; an immediate demand for
        # the prefetched line completes no earlier than its DRAM time.
        if mem._prefetch_ready:
            line, ready = next(iter(mem._prefetch_ready.items()))
            completes, to_mem = mem.access(line, False, now)
            assert not to_mem          # it's an LLC hit...
            assert completes >= min(ready, completes)  # ...but gated

    def test_demand_miss_clears_inflight_entry(self):
        mem = make_memory(stride_pf=True)
        mem._prefetch_ready[0] = 1e12
        completes, to_mem = mem.access(0, False, 0.0)
        assert to_mem
        assert 0 not in mem._prefetch_ready
        assert completes < 1e12


class TestStats:
    def test_demand_counters(self):
        mem = make_memory()
        mem.access(0, False, 0.0)
        mem.access(4096, True, 0.0)
        mem.access(0, False, 10_000.0)  # hit
        assert mem.stats.demand_reads == 1
        assert mem.stats.demand_writes == 1

    def test_prefetch_reads_counted(self):
        mem = make_memory(stride_pf=True)
        now = 0.0
        for i in range(6):
            completes, _ = mem.access(i * 64, False, now)
            now = completes
        assert mem.stats.prefetch_reads > 0
