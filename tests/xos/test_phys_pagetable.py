"""Tests for the frame pool and page table."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import (
    AllocationError,
    ConfigurationError,
    TranslationError,
)
from repro.core.ranges import AddressRange
from repro.dram.mapping import ALL_SCHEMES, DramGeometry, make_mapping
from repro.sim.usecase2 import usecase2_config
from repro.workloads.suite import BY_NAME
from repro.xos.loader import OperatingSystem
from repro.xos.page_table import PageTable
from repro.xos.phys import SCAN_STEP_BYTES, FramePool


def small_pool(mapping="scheme2", capacity=1 << 24, seed=0):
    g = DramGeometry(capacity_bytes=capacity)
    return FramePool(g, make_mapping(mapping, g), seed=seed)


class TestFramePool:
    def test_frame_count(self):
        pool = small_pool()
        assert pool.num_frames == (1 << 24) // 4096
        assert pool.free_frames == pool.num_frames

    def test_bad_page_size(self):
        g = DramGeometry()
        with pytest.raises(ConfigurationError):
            FramePool(g, make_mapping("scheme2", g), page_bytes=100)

    def test_alloc_sequential(self):
        pool = small_pool()
        assert pool.alloc_any() == 0
        assert pool.alloc_any() == 1
        assert pool.free_frames == pool.num_frames - 2

    def test_alloc_random_unique(self):
        pool = small_pool(seed=7)
        frames = {pool.alloc_any(randomize=True) for _ in range(100)}
        assert len(frames) == 100

    def test_free_and_realloc(self):
        pool = small_pool()
        f = pool.alloc_any()
        pool.free(f)
        assert pool.alloc_any() == f

    def test_double_free_rejected(self):
        pool = small_pool()
        f = pool.alloc_any()
        pool.free(f)
        with pytest.raises(AllocationError):
            pool.free(f)

    def test_bogus_free_rejected(self):
        pool = small_pool()
        with pytest.raises(AllocationError):
            pool.free(10**9)

    def test_exhaustion(self):
        g = DramGeometry(capacity_bytes=1 << 17)  # 32 frames
        pool = FramePool(g, make_mapping("scheme2", g))
        for _ in range(pool.num_frames):
            pool.alloc_any()
        with pytest.raises(AllocationError):
            pool.alloc_any()

    def test_scheme2_frames_single_bank(self):
        # Under the row-interleaved scheme a 4KB page sits in one bank.
        pool = small_pool("scheme2")
        for frame in range(32):
            assert len(pool.frame_banks(frame)) == 1

    def test_scheme5_frames_span_channels(self):
        pool = small_pool("scheme5")
        banks = pool.frame_banks(0)
        assert len({b[0] for b in banks}) == 2  # both channels

    def test_alloc_in_banks_confines(self):
        pool = small_pool("scheme2")
        target = pool.all_banks[3]
        for _ in range(10):
            frame = pool.alloc_in_banks([target])
            assert frame is not None
            assert pool.frame_banks(frame) == frozenset({target})

    def test_alloc_in_banks_disjoint_from_other_allocs(self):
        pool = small_pool("scheme2")
        a = pool.alloc_in_banks([pool.all_banks[0]])
        b = pool.alloc_in_banks([pool.all_banks[1]])
        assert a != b
        assert pool.frame_banks(a) != pool.frame_banks(b)

    def test_all_banks_complete(self):
        pool = small_pool()
        g = pool.geometry
        assert len(pool.all_banks) == g.total_banks
        assert len(set(pool.all_banks)) == g.total_banks

    def test_randomized_bank_alloc_stays_in_banks(self):
        pool = small_pool("scheme2", seed=3)
        targets = pool.all_banks[:2]
        for _ in range(20):
            frame = pool.alloc_in_banks(targets, randomize=True)
            assert pool.frame_banks(frame) <= set(targets)


class TestFrameBanks:
    """``frame_banks`` reads the compiled bit layout; it must name the
    banks ``decompose`` names for the same samples."""

    @pytest.mark.parametrize("mapping", ALL_SCHEMES)
    @pytest.mark.parametrize("page_bytes", [128, SCAN_STEP_BYTES, 4096,
                                            16384])
    def test_matches_decompose(self, mapping, page_bytes):
        g = DramGeometry(channels=2, ranks_per_channel=2,
                         capacity_bytes=1 << 24)
        m = make_mapping(mapping, g)
        pool = FramePool(g, m, page_bytes=page_bytes)
        step = min(SCAN_STEP_BYTES, page_bytes)
        frames = list(range(0, pool.num_frames,
                            max(1, pool.num_frames // 512)))
        frames += [pool.num_frames - 1]
        for frame in frames:
            base = frame * page_bytes
            want = frozenset(m.decompose(base + off).bank_key
                             for off in range(0, page_bytes, step))
            assert pool.frame_banks(frame) == want, (mapping, frame)

    @pytest.mark.parametrize("mapping", ALL_SCHEMES)
    @pytest.mark.parametrize("row_bytes", [8192, 1024])
    def test_one_sample_pages_match_the_scan(self, mapping, row_bytes):
        """A page none of whose bank-selecting bits lie below the page
        offset is sampled once; its banks are the 512-byte scan's.  At
        1 KB rows a page spans several banks under scheme2 and the
        permutation too."""
        g = DramGeometry(row_bytes=row_bytes)
        m = make_mapping(mapping, g)
        pool = FramePool(g, m)
        frames = list(range(0, pool.num_frames, pool.num_frames // 997))
        for frame in frames + [pool.num_frames - 1]:
            base = frame * pool.page_bytes
            scan = frozenset(m.decompose(base + off).bank_key
                             for off in range(0, pool.page_bytes,
                                              SCAN_STEP_BYTES))
            assert pool.frame_banks(frame) == scan, (mapping, frame)
        one_sample = {8192: ("scheme2", "scheme3", "scheme4", "permutation"),
                      1024: ("scheme3", "scheme4")}[row_bytes]
        assert (pool._step == pool.page_bytes) == (mapping in one_sample)

    def test_randomized_frames_ignore_bank_queries(self):
        """A randomized allocation never consults the controller
        mapping: asking for frames' banks in between leaves the frame
        sequence as it was."""
        quiet, asked = small_pool(seed=3), small_pool(seed=3)
        plain = [quiet.alloc_any(randomize=True) for _ in range(200)]
        seen = []
        for i in range(200):
            asked.frame_banks(i * 37 % asked.num_frames)
            seen.append(asked.alloc_any(randomize=True))
            asked.frame_banks(seen[-1])
        assert seen == plain

    # sha256 of the sorted (virtual page, frame) pairs after a Use Case
    # 2 workload is instantiated under its allocator at seed 17.
    FRAME_PINS = {
        ("randomized", "lbm"): "a7e9fc3908a04609a7dd9d54706dddfc"
                               "2bfdbcbd2a63d0f798cf458a5783903b",
        ("randomized", "mcf"): "6c797667b4f3b7b916efbd4ee8200f5e"
                               "8305dd26297a2401ccdfcf4b2e10b773",
        ("bank_target", "lbm"): "fed9206818cbfe4a64bf6f69b00863ac"
                                "c2bb367f4b80e7a6baf300b3d6d5038c",
        ("bank_target", "mcf"): "7892580be3d0867549b7eb7511061c0f"
                                "7af0eebe06a776c25c7588f83d48a4e8",
    }

    @pytest.mark.parametrize("allocator,model", sorted(FRAME_PINS))
    def test_use_case_2_frames_pinned(self, allocator, model):
        osys = OperatingSystem(usecase2_config().dram_geometry,
                               mapping="scheme2", allocator=allocator,
                               seed=17)
        proc = osys.create_process()
        BY_NAME[model].instantiate(proc)
        pairs = sorted(proc.page_table.items())
        digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
        assert digest == self.FRAME_PINS[allocator, model]


class TestPageTable:
    def test_translate(self):
        pt = PageTable()
        pt.map_page(5, 99)
        assert pt.translate(5 * 4096 + 123) == 99 * 4096 + 123

    def test_unmapped_raises(self):
        pt = PageTable()
        with pytest.raises(TranslationError):
            pt.translate(0)

    def test_is_mapped_and_frame_of(self):
        pt = PageTable()
        pt.map_page(2, 7)
        assert pt.is_mapped(2 * 4096)
        assert not pt.is_mapped(3 * 4096)
        assert pt.frame_of(2) == 7
        assert pt.frame_of(3) is None

    def test_unmap(self):
        pt = PageTable()
        pt.map_page(1, 3)
        assert pt.unmap_page(1) == 3
        assert pt.unmap_page(1) is None
        assert not pt.is_mapped(4096)

    def test_translate_range_contiguous_frames_coalesce(self):
        pt = PageTable()
        pt.map_page(0, 10)
        pt.map_page(1, 11)
        ranges = pt.translate_range(AddressRange(0, 8192))
        assert ranges == (AddressRange(10 * 4096, 12 * 4096),)

    def test_translate_range_scattered_frames_split(self):
        pt = PageTable()
        pt.map_page(0, 10)
        pt.map_page(1, 50)
        ranges = pt.translate_range(AddressRange(0, 8192))
        assert len(ranges) == 2
        assert ranges[0] == AddressRange(10 * 4096, 11 * 4096)
        assert ranges[1] == AddressRange(50 * 4096, 51 * 4096)

    def test_translate_range_partial_pages(self):
        pt = PageTable()
        pt.map_page(0, 10)
        ranges = pt.translate_range(AddressRange(100, 300))
        assert ranges == (AddressRange(10 * 4096 + 100, 10 * 4096 + 300),)

    def test_translate_range_empty(self):
        pt = PageTable()
        assert pt.translate_range(AddressRange(0, 0)) == ()

    def test_translate_range_unmapped_raises(self):
        pt = PageTable()
        pt.map_page(0, 10)
        with pytest.raises(TranslationError):
            pt.translate_range(AddressRange(0, 3 * 4096))

    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 1023)),
                    min_size=1, max_size=30))
    def test_translate_matches_per_byte(self, mappings):
        pt = PageTable()
        table = {}
        for vpage, pframe in mappings:
            pt.map_page(vpage, pframe)
            table[vpage] = pframe
        for vpage, pframe in table.items():
            for off in (0, 1, 4095):
                assert pt.translate(vpage * 4096 + off) == \
                    pframe * 4096 + off

    @given(st.integers(0, 60), st.integers(1, 5 * 4096))
    def test_translate_range_covers_exact_bytes(self, start_page, size):
        pt = PageTable()
        for vp in range(70):
            pt.map_page(vp, 1000 + vp * 3)  # scattered frames
        rng = AddressRange.from_size(start_page * 4096 + 17, size)
        ranges = pt.translate_range(rng)
        assert sum(r.size for r in ranges) == size
        # First byte translates consistently.
        assert ranges[0].start == pt.translate(rng.start)


class TestBankGroups:
    def test_scheme2_groups_are_singleton_banks(self):
        pool = small_pool("scheme2")
        groups = pool.bank_groups()
        assert len(groups) == pool.geometry.total_banks
        assert all(len(g) == 1 for g in groups)

    def test_xmem_interleaved_groups_are_channel_pairs(self):
        pool = small_pool("xmem_interleaved")
        groups = pool.bank_groups()
        assert len(groups) == pool.geometry.banks_per_rank
        for g in groups:
            assert len(g) == 2
            channels = {b[0] for b in g}
            banks = {b[2] for b in g}
            assert channels == {0, 1}
            assert len(banks) == 1

    def test_groups_cover_all_banks(self):
        pool = small_pool("scheme5")
        groups = pool.bank_groups()
        covered = {b for g in groups for b in g}
        assert covered == set(pool.all_banks)
