"""Tests for the set-associative cache model (repro.mem.cache)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.mem.cache import Cache


def small_cache(**kw):
    defaults = dict(name="L", size_bytes=4096, ways=4, line_bytes=64,
                    policy="lru")
    defaults.update(kw)
    return Cache(**defaults)


class TestGeometry:
    def test_sets_computed(self):
        c = small_cache()
        assert c.num_sets == 4096 // (4 * 64)

    def test_bad_size_rejected(self):
        with pytest.raises(ConfigurationError):
            Cache("x", 1000, 4, 64)

    def test_non_pow2_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            Cache("x", 4096 * 3, 4, 64)

    def test_non_pow2_line_rejected(self):
        # 4096 B / (4 ways x 48 B) would give 16 sets, a power of two:
        # only the line size is wrong.
        with pytest.raises(ConfigurationError, match="line size"):
            Cache("x", 48 * 4 * 16, 4, 48)

    def test_line_addr(self):
        c = small_cache()
        assert c.line_addr(130) == 128
        assert c.line_addr(128) == 128


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        r = c.access(0, is_write=False)
        assert not r.hit
        c.fill(0)
        assert c.access(0, is_write=False).hit
        assert c.stats.accesses == 2
        assert c.stats.hits == 1
        assert c.stats.misses == 1

    def test_same_line_different_offsets(self):
        c = small_cache()
        c.fill(c.line_addr(70))
        assert c.access(c.line_addr(64), False).hit

    def test_conflict_eviction(self):
        c = small_cache()  # 16 sets, 4 ways
        set_stride = 16 * 64
        # Five lines mapping to set 0 overflow its 4 ways.
        for i in range(5):
            c.fill(i * set_stride)
        assert c.stats.evictions == 1
        assert not c.access(0, False).hit          # LRU victim was line 0
        assert c.access(4 * set_stride, False).hit

    def test_capacity(self):
        c = small_cache()
        lines = 4096 // 64
        for i in range(lines):
            c.fill(i * 64)
        assert c.resident_lines == lines
        assert c.stats.evictions == 0


class TestWriteback:
    def test_dirty_eviction_reports_writeback(self):
        c = small_cache(ways=1, size_bytes=1024)  # direct-mapped, 16 sets
        c.fill(0, dirty=True)
        wb = c.fill(1024)  # same set, evicts line 0
        assert wb == 0
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = small_cache(ways=1, size_bytes=1024)
        c.fill(0, dirty=False)
        assert c.fill(1024) is None

    def test_write_hit_sets_dirty(self):
        c = small_cache(ways=1, size_bytes=1024)
        c.fill(0)
        c.access(0, is_write=True)
        wb = c.fill(1024)
        assert wb == 0

    def test_refill_merges_dirty(self):
        c = small_cache()
        c.fill(0, dirty=False)
        c.fill(0, dirty=True)
        assert c.resident_lines == 1


class TestPinning:
    def test_pinned_line_survives_pressure(self):
        c = small_cache()  # 4 ways
        set_stride = c.num_sets * 64
        c.fill(0, pinned=True)
        for i in range(1, 20):
            c.fill(i * set_stride)
        assert c.access(0, False).hit
        assert c.pinned_lines == 1

    def test_pin_quota_enforced(self):
        c = small_cache(pin_quota=0.75)  # 4 ways -> max 3 pinned
        set_stride = c.num_sets * 64
        for i in range(4):
            c.fill(i * set_stride, pinned=True)
        assert c.pinned_lines == 3
        assert c.stats.pin_refusals == 1

    def test_unpin_all(self):
        c = small_cache()
        set_stride = c.num_sets * 64
        c.fill(0, pinned=True)
        c.fill(set_stride, pinned=True)
        assert c.unpin_all() == 2
        assert c.pinned_lines == 0
        # Now pressure can evict them.
        for i in range(2, 20):
            c.fill(i * set_stride)
        assert not c.access(0, False).hit

    def test_zero_quota_pins_nothing(self):
        c = small_cache(pin_quota=0.0)
        c.fill(0, pinned=True)
        assert c.pinned_lines == 0

    def test_all_pinned_degrades_not_deadlocks(self):
        c = small_cache(pin_quota=1.0, ways=2, size_bytes=2048)
        set_stride = c.num_sets * 64
        for i in range(3):
            c.fill(i * set_stride, pinned=True)
        assert c.resident_lines >= 2  # still functional


class TestPrefetchTracking:
    def test_prefetch_fill_then_demand_hit_counted(self):
        c = small_cache()
        c.fill(0, prefetch=True)
        assert c.stats.prefetch_fills == 1
        r = c.access(0, False)
        assert r.hit and r.was_prefetched
        assert c.stats.prefetch_hits == 1
        # Second hit is no longer "first use of a prefetch".
        assert not c.access(0, False).was_prefetched

    def test_evicted_prefetch_not_counted_later(self):
        c = small_cache(ways=1, size_bytes=1024)
        c.fill(0, prefetch=True)
        c.fill(1024)  # evicts the prefetched line
        c.fill(0)
        assert not c.access(0, False).was_prefetched


class TestMaintenance:
    def test_invalidate_all(self):
        c = small_cache()
        for i in range(8):
            c.fill(i * 64)
        assert c.invalidate_all() == 8
        assert c.resident_lines == 0
        assert not c.access(0, False).hit

    def test_probe_no_side_effects(self):
        c = small_cache()
        c.fill(0)
        before = c.stats.accesses
        assert c.probe(0)
        assert not c.probe(64)
        assert c.stats.accesses == before


@settings(max_examples=30)
@given(
    addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=300),
    policy=st.sampled_from(["lru", "brrip", "drrip"]),
)
def test_cache_never_exceeds_capacity_and_stats_consistent(addrs, policy):
    """Invariants under arbitrary access streams, any policy."""
    c = Cache("t", 2048, 2, 64, policy=policy)
    for a in addrs:
        r = c.access(a, is_write=bool(a & 1))
        if not r.hit:
            c.fill(c.line_addr(a), dirty=bool(a & 1))
    assert c.resident_lines <= 2048 // 64
    assert c.stats.hits + c.stats.misses == c.stats.accesses
    assert c.stats.writebacks <= c.stats.evictions


@settings(max_examples=30)
@given(addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200))
def test_fill_makes_resident_until_evicted(addrs):
    """After fill(a), an immediate access to a must hit."""
    c = Cache("t", 1024, 2, 64)
    for a in addrs:
        line = c.line_addr(a)
        c.fill(line)
        assert c.access(line, False).hit
