"""Tests for the Use-Case-1 cache controller (greedy pinning)."""

import pytest

from repro.core.attributes import PatternType
from repro.core.xmemlib import XMemLib
from repro.mem.cache import Cache
from repro.mem.prefetch import XMemPrefetcher
from repro.policies.cache_mgmt import CacheController, prefix_spans


def setup(llc_bytes=64 * 1024, with_prefetcher=True):
    lib = XMemLib()
    llc = Cache("L3", llc_bytes, 16, 64, policy="drrip")
    pf = (XMemPrefetcher(lookup_atom=lib.process.amu.lookup)
          if with_prefetcher else None)
    ctrl = CacheController(lib, llc, prefetcher=pf)
    return lib, llc, pf, ctrl


def make_tile(lib, name="tile", reuse=200, start=0, size=16 * 1024,
              stride=8):
    atom = lib.create_atom(name, pattern=PatternType.REGULAR,
                           stride_bytes=stride, reuse=reuse)
    lib.atom_map(atom, start, size)
    lib.atom_activate(atom)
    return atom


class TestGreedyPinning:
    def test_fitting_atom_fully_pinned(self):
        lib, llc, pf, ctrl = setup()
        atom = make_tile(lib, size=16 * 1024)
        assert ctrl.pinned_atom_ids == {atom}
        assert ctrl.pinned_bytes() == 16 * 1024

    def test_oversized_atom_partially_pinned(self):
        # WS 2x the cache: pin 75% of the cache, prefetch the rest.
        lib, llc, pf, ctrl = setup(llc_bytes=64 * 1024)
        atom = make_tile(lib, size=128 * 1024)
        assert ctrl.pinned_atom_ids == {atom}
        assert ctrl.pinned_bytes() == int(64 * 1024 * 0.75)

    def test_highest_reuse_first(self):
        lib, llc, pf, ctrl = setup(llc_bytes=64 * 1024)
        low = make_tile(lib, "low", reuse=10, start=0, size=40 * 1024)
        high = make_tile(lib, "high", reuse=250, start=1 << 20,
                         size=40 * 1024)
        # Budget 48KB: the high-reuse atom gets its full 40KB; the
        # low-reuse atom gets the 8KB remainder.
        spans = ctrl._pin_spans
        assert sum(e - s for s, e in spans[high]) == 40 * 1024
        assert sum(e - s for s, e in spans[low]) == 8 * 1024

    def test_zero_reuse_never_pinned(self):
        lib, llc, pf, ctrl = setup()
        atom = make_tile(lib, reuse=0)
        assert ctrl.pinned_atom_ids == set()

    def test_inactive_atom_not_pinned(self):
        lib, llc, pf, ctrl = setup()
        atom = make_tile(lib)
        lib.atom_deactivate(atom)
        assert ctrl.pinned_atom_ids == set()

    def test_refresh_runs_on_xmemlib_events(self):
        lib, llc, pf, ctrl = setup()
        before = ctrl.stats.refreshes
        atom = make_tile(lib)  # map + activate = 2 notifications
        assert ctrl.stats.refreshes >= before + 2

    def test_remap_moves_pinning_and_ages_lines(self):
        lib, llc, pf, ctrl = setup()
        atom = make_tile(lib, size=16 * 1024)
        # Simulate resident pinned lines.
        for i in range(8):
            llc.fill(i * 64, pinned=True)
        assert llc.pinned_lines == 8
        lib.atom_remap(atom, 1 << 20, 16 * 1024)
        assert llc.pinned_lines == 0  # aged on the change
        assert ctrl.pin_predicate((1 << 20))
        assert not ctrl.pin_predicate(0)


class TestPinPredicate:
    def test_respects_partial_spans(self):
        lib, llc, pf, ctrl = setup(llc_bytes=64 * 1024)
        atom = make_tile(lib, size=128 * 1024)
        limit = int(64 * 1024 * 0.75)
        assert ctrl.pin_predicate(0)
        assert ctrl.pin_predicate(limit - 64)
        assert not ctrl.pin_predicate(limit)
        assert not ctrl.pin_predicate(127 * 1024)

    def test_unmapped_address_not_pinned(self):
        lib, llc, pf, ctrl = setup()
        make_tile(lib, start=0, size=4096)
        assert not ctrl.pin_predicate(1 << 30)

    def test_no_atoms_cheap_false(self):
        lib, llc, pf, ctrl = setup()
        assert not ctrl.pin_predicate(0)


class TestPrefetcherArming:
    def test_fully_pinned_atom_not_armed(self):
        # A fully resident working set needs no semantic prefetching;
        # arming it would only waste bandwidth.
        lib, llc, pf, ctrl = setup()
        make_tile(lib, size=16 * 1024, stride=8)
        assert pf.on_demand_miss(0) == []

    def test_partially_pinned_atom_armed_with_full_spans(self):
        lib, llc, pf, ctrl = setup(llc_bytes=64 * 1024)
        make_tile(lib, size=128 * 1024, stride=8)
        # A miss inside the pinned prefix prefetches along its stride,
        # and targets may extend across the whole atom.
        targets = pf.on_demand_miss(0)
        assert targets
        assert all(0 < t < 128 * 1024 for t in targets)

    def test_prefetcher_covers_unpinned_tail(self):
        lib, llc, pf, ctrl = setup(llc_bytes=64 * 1024)
        atom = make_tile(lib, size=128 * 1024)
        # Miss in the unpinned tail still triggers prefetching (the
        # "prefetch the rest" path).
        targets = pf.on_demand_miss(100 * 1024)
        assert targets

    def test_disarmed_when_deactivated(self):
        lib, llc, pf, ctrl = setup()
        atom = make_tile(lib)
        lib.atom_deactivate(atom)
        assert pf.on_demand_miss(0) == []

    def test_controller_without_prefetcher(self):
        lib, llc, pf, ctrl = setup(with_prefetcher=False)
        make_tile(lib)  # must not raise
        assert ctrl.pinned_atom_ids


class TestPrefixSpans:
    def test_exact_fit(self):
        assert prefix_spans([(0, 100)], 100) == [(0, 100)]

    def test_truncates(self):
        assert prefix_spans([(0, 100)], 40) == [(0, 40)]

    def test_spills_across_spans(self):
        assert prefix_spans([(0, 100), (200, 300)], 150) == \
            [(0, 100), (200, 250)]

    def test_zero_budget(self):
        assert prefix_spans([(0, 100)], 0) == []
