"""Tests for prefetchers and MSHRs."""

import random

import pytest

from repro.core.attributes import PatternType
from repro.core.errors import ConfigurationError
from repro.core.pat import PrefetcherPrimitives
from repro.mem.mshr import MSHRFile
from repro.mem.prefetch import MultiStridePrefetcher, XMemPrefetcher


class TestMultiStride:
    def test_no_prefetch_before_confirmation(self):
        pf = MultiStridePrefetcher()
        assert pf.observe(0) == []
        assert pf.observe(64) == []     # first delta seen

    def test_confirmed_stride_prefetches_ahead(self):
        pf = MultiStridePrefetcher(degree=2)
        pf.observe(0)
        pf.observe(64)
        out = pf.observe(128)           # delta 64 confirmed twice
        assert out == [192, 256]

    def test_stride_change_retrains(self):
        pf = MultiStridePrefetcher()
        pf.observe(0)
        pf.observe(64)
        pf.observe(128)
        assert pf.observe(128 + 200) == []   # new stride, unconfirmed

    def test_large_stride(self):
        pf = MultiStridePrefetcher(degree=1)
        pf.observe(0)
        pf.observe(1024)
        out = pf.observe(2048)
        assert out == [3072]

    def test_same_address_ignored(self):
        pf = MultiStridePrefetcher()
        pf.observe(0)
        pf.observe(64)
        pf.observe(128)
        assert pf.observe(128) == []

    def test_negative_stride(self):
        pf = MultiStridePrefetcher(degree=1)
        pf.observe(4000)
        pf.observe(4000 - 64)
        out = pf.observe(4000 - 128)
        assert out == [4000 - 192 - (4000 - 192) % 64]

    def test_negative_target_clipped(self):
        pf = MultiStridePrefetcher(degree=4)
        pf.observe(256)
        pf.observe(128)
        out = pf.observe(0)
        assert all(t >= 0 for t in out)

    def test_stream_capacity_lru(self):
        pf = MultiStridePrefetcher(streams=2)
        pf.observe(0 * 4096)
        pf.observe(1 * 4096)
        pf.observe(2 * 4096)     # evicts region 0
        assert pf.active_streams == 2
        # Region 0 must retrain from scratch.
        pf.observe(0 * 4096 + 64)
        pf.observe(0 * 4096 + 128)
        assert pf.observe(0 * 4096 + 192) != []  # retrained after 2 deltas

    def test_victims_match_min_stamp_rule(self):
        """Recency-ordered eviction picks the same victims as the
        original rule: stamp every touch with a global clock and evict
        the stream with the smallest stamp (200 seeded region streams)."""
        for seed in range(200):
            rng = random.Random(seed)
            streams = rng.choice((1, 2, 4, 16))
            regions = rng.randint(streams + 1, 3 * streams + 2)
            pf = MultiStridePrefetcher(streams=streams)
            stamps, clock = {}, 0
            for _ in range(300):
                region = rng.randrange(regions)
                # Same-address repeats (zero deltas) are touches too.
                addr = region * 4096 + 64 * rng.randrange(4)
                clock += 1
                want = set()
                if region not in stamps and len(stamps) >= streams:
                    victim = min(stamps, key=stamps.__getitem__)
                    del stamps[victim]
                    want = {victim}
                stamps[region] = clock
                before = set(pf._streams)
                pf.observe(addr)
                assert before - set(pf._streams) == want, seed
                assert set(pf._streams) == set(stamps), seed

    def test_distinct_streams_tracked_independently(self):
        pf = MultiStridePrefetcher(streams=16, degree=1)
        # Interleave two streams in different 4KB regions.
        for i in range(3):
            a = pf.observe(i * 64)
            b = pf.observe(8192 + i * 128)
        assert a == [3 * 64]
        assert b == [8192 + 3 * 128]


def make_xmem_pf(atom_at, spans, pattern=PatternType.REGULAR, stride=64,
                 degree=2):
    prims = PrefetcherPrimitives(pattern=pattern, stride_bytes=stride
                                 if pattern is PatternType.REGULAR else 0)
    pf = XMemPrefetcher(lookup_atom=lambda a: atom_at(a), degree=degree)
    pf.set_pinned_atoms({7: XMemPrefetcher.entry(prims, spans)})
    return pf


class TestXMemPrefetcher:
    def test_prefetch_follows_stride(self):
        pf = make_xmem_pf(lambda a: 7, [(0, 1 << 20)], stride=64, degree=2)
        assert pf.on_demand_miss(0) == [64, 128]

    def test_sub_line_stride_advances_full_lines(self):
        pf = make_xmem_pf(lambda a: 7, [(0, 1 << 20)], stride=8, degree=2)
        assert pf.on_demand_miss(0) == [64, 128]

    def test_stays_inside_atom_range(self):
        pf = make_xmem_pf(lambda a: 7, [(0, 128)], stride=64, degree=4)
        assert pf.on_demand_miss(0) == [64]

    def test_no_atom_no_prefetch(self):
        pf = make_xmem_pf(lambda a: None, [(0, 1 << 20)])
        assert pf.on_demand_miss(0) == []

    def test_unpinned_atom_no_prefetch(self):
        pf = make_xmem_pf(lambda a: 3, [(0, 1 << 20)])  # atom 3 not in PAT
        assert pf.on_demand_miss(0) == []

    def test_irregular_streams_sequentially(self):
        pf = make_xmem_pf(lambda a: 7, [(0, 1 << 20)],
                          pattern=PatternType.IRREGULAR, degree=3)
        assert pf.on_demand_miss(128) == [192, 256, 320]

    def test_non_det_never_prefetches(self):
        pf = make_xmem_pf(lambda a: 7, [(0, 1 << 20)],
                          pattern=PatternType.NON_DET)
        assert pf.on_demand_miss(0) == []

    def test_negative_stride(self):
        pf = make_xmem_pf(lambda a: 7, [(0, 1 << 20)], stride=-64, degree=2)
        assert pf.on_demand_miss(256) == [192, 128]

    def test_set_pinned_atoms_replaces(self):
        pf = make_xmem_pf(lambda a: 7, [(0, 1 << 20)])
        pf.set_pinned_atoms({})
        assert pf.on_demand_miss(0) == []


class TestMSHR:
    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            MSHRFile(0)

    def test_reserve_without_pressure(self):
        m = MSHRFile(4)
        assert m.reserve(now=10, completes_at=100) == 10
        assert m.outstanding == 1

    def test_full_stalls_until_oldest(self):
        m = MSHRFile(2)
        m.reserve(0, 100)
        m.reserve(0, 200)
        start = m.reserve(0, 300)
        assert start == 100           # stalled until oldest completed
        assert m.stats.full_stalls == 1

    def test_drain_until(self):
        m = MSHRFile(2)
        m.reserve(0, 50)
        m.reserve(0, 60)
        m.drain_until(55)
        assert m.outstanding == 1
        assert m.reserve(56, 99) == 56

    def test_completion_queries(self):
        m = MSHRFile(4)
        assert m.oldest_completion() is None
        m.reserve(0, 30)
        m.reserve(0, 10)
        assert m.oldest_completion() == 10
        assert m.latest_completion() == 30

    def test_flush(self):
        m = MSHRFile(4)
        m.reserve(0, 10)
        m.flush()
        assert m.outstanding == 0
