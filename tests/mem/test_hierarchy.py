"""Tests for the cache hierarchy (repro.mem.hierarchy), driven through
the memory model that walks it (repro.sim.system.MemorySystem)."""

from itertools import accumulate

import pytest

from repro.core.errors import ConfigurationError
from repro.dram.mapping import DramGeometry
from repro.dram.system import DramSystem
from repro.mem.hierarchy import CacheHierarchy, LevelConfig
from repro.sim.system import MemorySystem

#: A time far past any DRAM work the tests issue, so a hit's completion
#: is its lookup latency alone.
LATE = 1e6


def make_dram():
    return DramSystem(geometry=DramGeometry(capacity_bytes=1 << 24))


def memory(levels):
    return MemorySystem(CacheHierarchy(levels), make_dram())


def three_level(l1=1024, l2=2048, l3=4096, policy="lru"):
    return memory([
        LevelConfig("L1", l1, 2, latency=4, policy="lru"),
        LevelConfig("L2", l2, 4, latency=8, policy=policy),
        LevelConfig("L3", l3, 4, latency=27, policy=policy),
    ])


def hit_level(mem, addr, is_write=False):
    """The level that served a demand access, read off its lookup
    latency (None: it went to DRAM)."""
    completes, to_memory = mem.access(addr, is_write, LATE)
    if to_memory:
        return None
    return list(accumulate(mem.hierarchy.latencies)).index(completes - LATE)


class TestBasics:
    def test_needs_levels(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy([])

    def test_cold_miss_reaches_memory(self):
        mem = three_level()
        completes, to_memory = mem.access(0, False, 0.0)
        assert to_memory
        # The DRAM read is issued after all three lookups.
        assert completes == make_dram().access_completes(0, 4 + 8 + 27)

    def test_fill_after_miss_hits_l1(self):
        mem = three_level()
        mem.access(0, False, 0.0)
        assert mem.access(0, False, LATE) == (LATE + 4, False)

    def test_l1_eviction_falls_to_l2(self):
        mem = three_level()
        # L1: 1KB/2way/64B = 8 sets. Fill 3 lines in one L1 set.
        stride = 8 * 64
        for i in range(3):
            mem.access(i * stride, False, 0.0)
        # Line 0 was evicted from L1 but still in L2.
        assert hit_level(mem, 0) == 1

    def test_dirty_l1_victim_propagates(self):
        mem = three_level()
        stride = 8 * 64
        mem.access(0, True, 0.0)            # dirty in L1
        mem.access(stride, False, 0.0)
        mem.access(2 * stride, False, 0.0)  # evicts line 0 dirty into L2
        # No memory writeback yet: absorbed by L2.
        mem.access(3 * stride, False, 0.0)
        assert mem.stats.writebacks == 0
        assert hit_level(mem, 0) == 1

    def test_rippled_victim_lands_dirty(self):
        # L1: one line; LLC: direct-mapped, 2 sets (lines 0 and 128
        # share set 0).
        mem = memory([LevelConfig("L1", 64, 1, latency=1),
                      LevelConfig("LLC", 128, 1, latency=1)])
        mem.access(0, True, 0.0)     # dirty in L1, clean in the LLC
        mem.access(64, False, 0.0)   # L1 victim 0 marks the LLC copy dirty
        mem.access(128, False, 0.0)  # the LLC evicts 0: a DRAM write
        assert mem._write_buffer == [0]

    def test_llc_dirty_eviction_writes_memory(self):
        mem = memory([LevelConfig("LLC", 1024, 1, latency=1)])
        mem.access(0, True, 0.0)
        # Direct-mapped 16 sets: conflict at the same set.
        mem.access(16 * 64, False, 0.0)
        assert mem._write_buffer == [0]
        assert mem.stats.writebacks == 1

    def test_write_allocates(self):
        mem = three_level()
        _, to_memory = mem.access(0, True, 0.0)
        assert to_memory
        assert mem.stats.demand_writes == 1
        assert hit_level(mem, 0) == 0


class TestPinning:
    def test_pin_predicate_applies_at_llc_only(self):
        mem = three_level()
        h = mem.hierarchy
        h.pin_predicate = lambda line: True
        mem.access(0, False, 0.0)
        assert h.llc.pinned_lines == 1
        assert h.levels[0].pinned_lines == 0
        assert h.levels[1].pinned_lines == 0

    def test_pinned_survive_llc_thrash(self):
        mem = memory([LevelConfig("LLC", 4096, 4, latency=1,
                                  policy="lru")])
        h = mem.hierarchy
        h.pin_predicate = lambda line: line == 0
        mem.access(0, False, 0.0)
        stride = h.llc.num_sets * 64
        for i in range(1, 32):
            mem.access(i * stride, False, 0.0)
        assert hit_level(mem, 0) == 0


class TestPrefetchPath:
    def test_prefetch_fills_llc_only(self):
        mem = three_level()
        h = mem.hierarchy
        mem._prefetch(0, 0.0)
        assert mem.stats.prefetch_reads == 1     # had to fetch
        assert 0 in mem._prefetch_ready
        assert h.llc.probe(0)
        assert not h.levels[0].probe(0)
        assert not h.levels[1].probe(0)

    def test_prefetch_to_resident_line_free(self):
        mem = three_level()
        mem.access(0, False, 0.0)
        mem._prefetch(0, 0.0)
        assert mem.stats.prefetch_reads == 0
        assert mem.dram.stats.reads == 1
        assert not mem._prefetch_ready

    def test_prefetched_line_demand_hits_at_llc(self):
        mem = three_level()
        mem._prefetch(0, 0.0)
        assert hit_level(mem, 0) == 2
        assert mem.hierarchy.llc.stats.prefetch_hits == 1

    def test_prefetch_respects_pin_predicate(self):
        mem = three_level()
        mem.hierarchy.pin_predicate = lambda line: True
        mem._prefetch(0, 0.0)
        assert mem.hierarchy.llc.pinned_lines == 1


class TestWorkingSets:
    def test_fitting_working_set_hits(self):
        mem = three_level()
        lines = [i * 64 for i in range(8)]  # 512B fits everywhere
        for a in lines:
            mem.access(a, False, 0.0)
        hits = sum(hit_level(mem, a) == 0 for a in lines)
        assert hits == len(lines)

    def test_thrashing_working_set_misses_lru(self):
        # Working set 2x the LLC with LRU: second pass all misses.
        mem = memory([LevelConfig("LLC", 1024, 2, latency=1,
                                  policy="lru")])
        lines = [i * 64 for i in range(2 * 1024 // 64)]
        for a in lines:
            mem.access(a, False, 0.0)
        misses = sum(mem.access(a, False, 0.0)[1] for a in lines)
        assert misses == len(lines)

    def test_brrip_resists_thrash(self):
        # Same oversize working set with BRRIP keeps part resident.
        mem = memory([LevelConfig("LLC", 1024, 2, latency=1,
                                  policy="brrip")])
        lines = [i * 64 for i in range(2 * 1024 // 64)]
        for _ in range(4):
            for a in lines:
                mem.access(a, False, 0.0)
        assert mem.hierarchy.llc.stats.hit_rate > 0.05
