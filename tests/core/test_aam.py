"""Tests for the Atom Address Map (repro.core.aam)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.aam import AAMConfig, AtomAddressMap
from repro.core.errors import ConfigurationError
from repro.core.ranges import AddressRange


class TestAAMConfig:
    def test_defaults_match_paper(self):
        cfg = AAMConfig()
        assert cfg.chunk_bytes == 512
        assert cfg.atom_id_bits == 8
        assert cfg.chunks_per_page == 8

    def test_default_overhead_is_0_2_percent(self):
        # 8-bit atom ID per 512 B -> ~0.2% of physical memory.
        assert AAMConfig().storage_overhead_fraction() == pytest.approx(
            0.002, rel=0.05
        )

    def test_compact_overhead_is_0_07_percent(self):
        # Section 4.2: 6-bit IDs at 1 KB granularity -> 0.07%.
        cfg = AAMConfig(chunk_bytes=1024, atom_id_bits=6)
        assert cfg.storage_overhead_fraction() == pytest.approx(
            0.0007, rel=0.1
        )

    def test_storage_bytes_8gb(self):
        # Paper: ~16 MB on an 8 GB system.
        bytes_ = AAMConfig().storage_bytes(8 << 30)
        assert bytes_ == pytest.approx(16 << 20, rel=0.05)

    def test_rejects_non_power_of_two_chunks(self):
        with pytest.raises(ConfigurationError):
            AAMConfig(chunk_bytes=500)

    def test_rejects_chunk_larger_than_page_misaligned(self):
        with pytest.raises(ConfigurationError):
            AAMConfig(chunk_bytes=8192, page_bytes=4096)

    def test_rejects_bad_id_width(self):
        with pytest.raises(ConfigurationError):
            AAMConfig(atom_id_bits=0)
        with pytest.raises(ConfigurationError):
            AAMConfig(atom_id_bits=17)


class TestMapping:
    def test_lookup_unmapped_is_none(self):
        aam = AtomAddressMap()
        assert aam.lookup(0x1234) is None

    def test_map_range_covers_chunks(self):
        aam = AtomAddressMap()
        written = aam.map_range(AddressRange(0, 1024), atom_id=5)
        assert written == 2  # two 512B chunks
        assert aam.lookup(0) == 5
        assert aam.lookup(511) == 5
        assert aam.lookup(1023) == 5
        assert aam.lookup(1024) is None

    def test_chunk_granularity_approximation(self):
        # A range covering part of a chunk claims the whole chunk --
        # the paper's documented approximation.
        aam = AtomAddressMap()
        aam.map_range(AddressRange(100, 200), atom_id=1)
        assert aam.lookup(0) == 1
        assert aam.lookup(511) == 1

    def test_latest_mapping_wins(self):
        aam = AtomAddressMap()
        aam.map_range(AddressRange(0, 512), atom_id=1)
        aam.map_range(AddressRange(0, 512), atom_id=2)
        assert aam.lookup(0) == 2

    def test_unmap_only_own_chunks(self):
        aam = AtomAddressMap()
        aam.map_range(AddressRange(0, 512), atom_id=1)
        aam.map_range(AddressRange(0, 512), atom_id=2)
        # Late unmap from atom 1 must not clobber atom 2's mapping.
        aam.unmap_range(AddressRange(0, 512), atom_id=1)
        assert aam.lookup(0) == 2

    def test_unmap_unowned_noop(self):
        aam = AtomAddressMap()
        cleared = aam.unmap_range(AddressRange(0, 4096))
        assert cleared == 0

    def test_unmap_without_id_clears(self):
        aam = AtomAddressMap()
        aam.map_range(AddressRange(0, 512), atom_id=7)
        aam.unmap_range(AddressRange(0, 512))
        assert aam.lookup(0) is None

    def test_atom_id_must_fit_encoding(self):
        aam = AtomAddressMap(AAMConfig(atom_id_bits=6))
        with pytest.raises(ConfigurationError):
            aam.map_range(AddressRange(0, 512), atom_id=64)

    def test_lookup_page(self):
        aam = AtomAddressMap()
        aam.map_range(AddressRange(512, 1024), atom_id=3)
        page0 = aam.lookup_page(0)
        assert len(page0) == 8
        assert page0[0] is None
        assert page0[1] == 3
        assert all(e is None for e in page0[2:])

    def test_footprint_bytes(self):
        aam = AtomAddressMap()
        aam.map_range(AddressRange(0, 2048), atom_id=1)
        aam.map_range(AddressRange(8192, 8192 + 512), atom_id=1)
        assert aam.footprint_bytes(1) == 2048 + 512
        assert aam.footprint_bytes(2) == 0

    def test_clear(self):
        aam = AtomAddressMap()
        aam.map_range(AddressRange(0, 4096), atom_id=1)
        aam.clear()
        assert aam.mapped_chunk_count == 0

    def test_mapped_chunks(self):
        aam = AtomAddressMap()
        aam.map_range(AddressRange(0, 1024), atom_id=1)
        aam.map_range(AddressRange(2048, 2560), atom_id=2)
        assert sorted(aam.mapped_chunks(1)) == [0, 1]
        assert sorted(aam.mapped_chunks(2)) == [4]


@given(
    base=st.integers(0, 1 << 20),
    size=st.integers(1, 1 << 16),
    atom_id=st.integers(0, 255),
)
def test_map_then_lookup_every_byte(base, size, atom_id):
    """Every byte inside a mapped range must resolve to the atom."""
    aam = AtomAddressMap()
    rng = AddressRange.from_size(base, size)
    aam.map_range(rng, atom_id)
    # Probe the boundaries and a middle point.
    for addr in {rng.start, rng.start + size // 2, rng.end - 1}:
        assert aam.lookup(addr) == atom_id


@given(
    base=st.integers(0, 1 << 20),
    size=st.integers(1, 1 << 16),
    atom_id=st.integers(0, 255),
)
def test_map_unmap_restores_empty(base, size, atom_id):
    aam = AtomAddressMap()
    rng = AddressRange.from_size(base, size)
    aam.map_range(rng, atom_id)
    aam.unmap_range(rng, atom_id)
    assert aam.mapped_chunk_count == 0


class ChunkDictAAM:
    """The AAM as a dict keyed by chunk index: the model the
    page-indexed table replaced, restated as the reference its queries
    must equal."""

    def __init__(self, config=None):
        self.config = config or AAMConfig()
        self._chunks = {}

    def map_range(self, pa_range, atom_id):
        if not 0 <= atom_id <= self.config.max_atom_id:
            raise ConfigurationError(f"atom id {atom_id} too wide")
        written = 0
        for chunk in pa_range.chunks(self.config.chunk_bytes):
            self._chunks[chunk] = atom_id
            written += 1
        return written

    def unmap_range(self, pa_range, atom_id=None):
        cleared = 0
        for chunk in pa_range.chunks(self.config.chunk_bytes):
            owner = self._chunks.get(chunk)
            if owner is None or atom_id is not None and owner != atom_id:
                continue
            del self._chunks[chunk]
            cleared += 1
        return cleared

    def clear(self):
        self._chunks.clear()

    def lookup(self, paddr):
        return self._chunks.get(paddr // self.config.chunk_bytes)

    def lookup_page(self, page_index):
        base = page_index * self.config.chunks_per_page
        return tuple(self._chunks.get(base + i)
                     for i in range(self.config.chunks_per_page))

    def mapped_chunks(self, atom_id):
        return (c for c, a in self._chunks.items() if a == atom_id)

    @property
    def mapped_chunk_count(self):
        return len(self._chunks)

    def footprint_bytes(self, atom_id):
        count = sum(1 for a in self._chunks.values() if a == atom_id)
        return count * self.config.chunk_bytes


class TestPageRows:
    """The page-indexed table answers every query as the chunk-dict
    model does, through random map/unmap sequences with partial pages,
    overlapping atoms and unmap's atom filter."""

    ATOMS = (0, 1, 2, 5)

    def _same(self, aam, ref, pages, page_bytes):
        assert aam.mapped_chunk_count == ref.mapped_chunk_count
        for atom in self.ATOMS + (3,):
            assert sorted(aam.mapped_chunks(atom)) \
                == sorted(ref.mapped_chunks(atom))
            assert aam.footprint_bytes(atom) == ref.footprint_bytes(atom)
        for page in range(pages + 1):
            assert aam.lookup_page(page) == ref.lookup_page(page)
            for offset in range(0, page_bytes, aam.config.chunk_bytes):
                addr = page * page_bytes + offset
                assert aam.lookup(addr) == ref.lookup(addr)
                assert aam.lookup(addr + aam.config.chunk_bytes - 1) \
                    == ref.lookup(addr + aam.config.chunk_bytes - 1)

    @pytest.mark.parametrize("chunk,page", [(512, 4096), (1024, 4096),
                                            (512, 512), (512, 1536)])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_sequences_match_chunk_dict(self, seed, chunk, page):
        import random

        rng = random.Random(seed)
        cfg = AAMConfig(chunk_bytes=chunk, page_bytes=page)
        aam, ref = AtomAddressMap(cfg), ChunkDictAAM(cfg)
        pages = 6
        for _ in range(60):
            start = rng.randrange(pages * page)
            end = min(start + rng.choice([0, 1, chunk // 2, chunk,
                                          page - 7, page, 3 * page + 5]),
                      pages * page)
            pa_range = AddressRange(start, end)
            if rng.random() < 0.6:
                atom = rng.choice(self.ATOMS)
                assert aam.map_range(pa_range, atom) \
                    == ref.map_range(pa_range, atom)
            else:
                atom = rng.choice(self.ATOMS + (None, None))
                assert aam.unmap_range(pa_range, atom) \
                    == ref.unmap_range(pa_range, atom)
            self._same(aam, ref, pages, page)
        aam.clear()
        ref.clear()
        self._same(aam, ref, pages, page)

    def test_row_is_stored_and_emptied_pages_are_dropped(self):
        aam = AtomAddressMap()
        aam.map_range(AddressRange(4096 + 512, 4096 + 1024), atom_id=4)
        row = aam.lookup_page(1)
        assert row == (None, 4) + (None,) * 6
        assert aam.lookup_page(1) is row
        aam.unmap_range(AddressRange(4096, 8192), atom_id=4)
        assert aam._pages == {}
        assert aam.lookup_page(1) == (None,) * 8

    def test_use_case_1_point_unchanged(self, monkeypatch):
        """AMU lookups and ALB fills on a Use Case 1 point read as they
        did over the chunk-dict table: equal full snapshots."""
        from repro.core import amu
        from repro.sim import runner

        point = runner.SimPoint("gemm", 16, 8,
                                systems=("xmem", "xmem-pref"))
        monkeypatch.setattr(runner, "_MEMO", {})
        paged = runner.run_point(point, collect=True).stats
        monkeypatch.setattr(amu, "AtomAddressMap", ChunkDictAAM)
        monkeypatch.setattr(runner, "_MEMO", {})
        chunked = runner.run_point(point, collect=True).stats
        assert paged == chunked
        assert paged["xmem"]["amu"]["lookups"] > 0
        assert paged["xmem"]["amu.alb"]["misses"] > 0     # ALB fills
