"""Tests for DRAM timing and address-mapping schemes."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ConfigurationError
from repro.dram.mapping import (
    ALL_SCHEMES,
    DramGeometry,
    FieldOrderMapping,
    make_mapping,
)
from repro.dram.timing import DramTiming, ddr3_1066
from repro.testing.oracles import reference_decompose


class TestTiming:
    def test_latency_ordering(self):
        t = ddr3_1066()
        assert t.row_hit_latency < t.row_closed_latency
        assert t.row_closed_latency < t.row_conflict_latency

    def test_ddr3_values_in_cpu_cycles(self):
        t = ddr3_1066(cpu_ghz=3.6)
        # tCL = 13.125ns * 3.6 cycles/ns = 47.25 cycles.
        assert t.t_cl == pytest.approx(47.25)
        assert t.t_burst == pytest.approx(27.0)

    def test_bandwidth_scaling(self):
        t = ddr3_1066()
        half = t.scaled_bandwidth(0.5)
        assert half.t_burst == pytest.approx(2 * t.t_burst)
        assert half.t_cl == t.t_cl  # latency unchanged

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError):
            ddr3_1066().scaled_bandwidth(0)

    def test_positive_params_enforced(self):
        with pytest.raises(ConfigurationError):
            DramTiming(t_cl=0, t_rcd=1, t_rp=1, t_burst=1)


class TestGeometry:
    def test_defaults_match_table3(self):
        g = DramGeometry()
        assert g.channels == 2
        assert g.ranks_per_channel == 1
        assert g.banks_per_rank == 8
        assert g.total_banks == 16

    def test_rows_derived_from_capacity(self):
        g = DramGeometry(capacity_bytes=1 << 30)
        assert g.rows_per_bank * g.total_banks * g.row_bytes == 1 << 30

    def test_non_pow2_rejected(self):
        with pytest.raises(ConfigurationError):
            DramGeometry(channels=3)

    def test_lines_per_row(self):
        assert DramGeometry(row_bytes=8192).lines_per_row == 128


class TestMappings:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_all_schemes_constructible(self, name):
        m = make_mapping(name, DramGeometry())
        a = m.decompose(0x123456)
        g = DramGeometry()
        assert 0 <= a.channel < g.channels
        assert 0 <= a.rank < g.ranks_per_channel
        assert 0 <= a.bank < g.banks_per_rank
        assert 0 <= a.row < g.rows_per_bank
        assert 0 <= a.col < g.lines_per_row

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            make_mapping("scheme99", DramGeometry())

    def test_same_line_same_coords(self):
        m = make_mapping("scheme2", DramGeometry())
        assert m.decompose(64) == m.decompose(100)

    def test_scheme2_sequential_lines_same_row(self):
        # Row-interleaved: a whole row of consecutive lines maps to one
        # bank/row (high RBL for streaming).
        g = DramGeometry()
        m = make_mapping("scheme2", g)
        first = m.decompose(0)
        for line in range(g.lines_per_row):
            a = m.decompose(line * 64)
            assert a.bank_key == first.bank_key
            assert a.row == first.row

    def test_scheme5_sequential_lines_interleave_channels(self):
        g = DramGeometry()
        m = make_mapping("scheme5", g)
        # Channel rotates every col_low group (8 lines = 512B).
        chans = {m.decompose(line * 64).channel for line in range(16)}
        assert len(chans) == g.channels

    def test_field_order_validation(self):
        g = DramGeometry()
        with pytest.raises(ConfigurationError):
            FieldOrderMapping(g, "bad", ["col_low", "bank"])
        with pytest.raises(ConfigurationError):
            FieldOrderMapping(
                g, "bad2",
                ["col_high", "col_low", "bank", "row", "rank", "channel"],
            )

    def test_permutation_spreads_conflicting_rows(self):
        # Addresses that differ only in low row bits must land in
        # different banks under the permutation scheme.
        g = DramGeometry()
        base = make_mapping("scheme2", g)
        perm = make_mapping("permutation", g)
        row_stride = g.row_bytes * g.banks_per_rank  # bumps row, same bank
        base_banks = {base.decompose(i * row_stride * g.channels).bank
                      for i in range(8)}
        perm_banks = {perm.decompose(i * row_stride * g.channels).bank
                      for i in range(8)}
        assert len(perm_banks) > len(base_banks)

    @pytest.mark.parametrize("name", ["scheme5", "permutation"])
    def test_mapping_pickles(self, name):
        m = make_mapping(name, DramGeometry(channels=4))
        clone = pickle.loads(pickle.dumps(m))
        assert type(clone) is type(m) and clone.name == name
        for addr in (0, 4096, 0x123456, 1 << 31):
            assert clone.decompose(addr) == m.decompose(addr)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_decompose_total_and_deterministic(self, name):
        m = make_mapping(name, DramGeometry())
        for addr in (0, 63, 64, 4096, 1 << 20, (1 << 30) - 1, 1 << 31):
            assert m.decompose(addr) == m.decompose(addr)


@given(addr=st.integers(0, (1 << 34)),
       name=st.sampled_from(list(ALL_SCHEMES)))
def test_coordinates_always_in_range(addr, name):
    g = DramGeometry()
    a = make_mapping(name, g).decompose(addr)
    assert 0 <= a.channel < g.channels
    assert 0 <= a.bank < g.banks_per_rank
    assert 0 <= a.row < g.rows_per_bank
    assert 0 <= a.col < g.lines_per_row


@given(addr=st.integers(0, (1 << 30) - 1))
def test_scheme2_bijective_over_capacity(addr):
    """Distinct lines within capacity map to distinct coordinates."""
    g = DramGeometry()
    m = make_mapping("scheme2", g)
    a = m.decompose(addr)
    # Reconstruct the line index from the coordinates.
    line = addr // 64
    rebuilt = a.col & 7
    shift = 3
    rebuilt |= (a.col >> 3) << shift
    shift += 4  # col_high bits (128 lines/row -> 7 col bits total)
    rebuilt |= a.bank << shift
    shift += 3
    rebuilt |= a.row << shift
    shift += (g.rows_per_bank - 1).bit_length()
    rebuilt |= a.channel << shift
    assert rebuilt == line


#: Machine shapes for the compiled-vs-reference check: 1/2/4 channels,
#: 1/2 ranks, 4/8/16 banks, rows narrower than a col_low group, and
#: capacities from 16 MB to 8 GB.
GEOMETRIES = st.builds(
    DramGeometry,
    channels=st.sampled_from([1, 2, 4]),
    ranks_per_channel=st.sampled_from([1, 2]),
    banks_per_rank=st.sampled_from([4, 8, 16]),
    row_bytes=st.sampled_from([256, 2048, 8192]),
    capacity_bytes=st.sampled_from([1 << 24, 1 << 28, 1 << 30, 1 << 33]),
)


@given(geometry=GEOMETRIES, name=st.sampled_from(list(ALL_SCHEMES)),
       addr=st.one_of(st.integers(0, 1 << 40),
                      st.integers(0, 1 << 20).map(lambda a: a * 64 + 63)))
def test_compiled_matches_reference(geometry, name, addr):
    """The compiled shift/mask form equals the field-by-field walk,
    for unaligned addresses and addresses far beyond capacity too."""
    m = make_mapping(name, geometry)
    assert m.decompose(addr) == reference_decompose(m, addr)


@given(geometry=GEOMETRIES, name=st.sampled_from(list(ALL_SCHEMES)),
       addr=st.integers(0, 1 << 34), k=st.integers(1, 1 << 10))
def test_beyond_capacity_aliases_modulo_capacity(geometry, name, addr, k):
    m = make_mapping(name, geometry)
    assert m.decompose(addr) == \
        m.decompose(addr + k * geometry.capacity_bytes)


def test_address_orders_as_bank_row_col():
    """The write drain sorts addresses themselves: the tuple order is
    (bank key, row, column)."""
    g = DramGeometry()
    m = make_mapping("scheme2", g)
    addrs = [m.decompose(a * 4160) for a in range(200)]
    assert sorted(addrs) == sorted(
        addrs, key=lambda a: (a.bank_key, a.row, a.col))
