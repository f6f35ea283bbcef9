"""Tests for multi-core co-running (repro.sim.corun)."""

import dataclasses

import pytest

from repro.core.attributes import PatternType
from repro.core.errors import ConfigurationError
from repro.cpu.trace import MemAccess, Work, XMemOp
from repro.sim.config import scaled_config
from repro.sim.corun import APP_SPACE, CorunSystem, MultiProcessController
from repro.mem.cache import Cache


def stream_trace(lines, passes=2, work=2, base=0):
    for _ in range(passes):
        for i in range(lines):
            yield MemAccess(base + i * 64, False, work=work)


class TestBasics:
    def test_core_count_validation(self):
        with pytest.raises(ConfigurationError):
            CorunSystem(scaled_config(16), 0)

    @pytest.mark.parametrize("level,policy", [(0, "drrip"), (1, "lru"),
                                              (2, "brrip")])
    def test_shape_gate_names_the_level(self, level, policy):
        """The fused memory path is written for LRU L1, DRRIP L2/L3;
        any other policy is refused up front, naming the level."""
        cfg = scaled_config(16)
        levels = list(cfg.levels)
        levels[level] = dataclasses.replace(levels[level], policy=policy)
        with pytest.raises(ConfigurationError, match=f"L{level + 1}"):
            CorunSystem(dataclasses.replace(cfg, levels=levels), 2)

    def test_shape_gate_line_size(self):
        """Lines must be a power of two of at least 8 bytes: record
        codes carry flags in a line's bits 0-2."""
        for line_bytes in (48, 4):
            cfg = dataclasses.replace(scaled_config(16),
                                      line_bytes=line_bytes)
            with pytest.raises(ConfigurationError, match="line size"):
                CorunSystem(cfg, 1)

    def test_shape_gate_dram_mapping(self, monkeypatch):
        """The DRAM must run the access path compiled from its
        mapping's bit layout."""
        from repro.dram.mapping import make_mapping
        from repro.dram.system import DramSystem
        from repro.sim import corun

        class Swapped(DramSystem):
            def __init__(self, **kw):
                super().__init__(**kw)
                self.mapping = make_mapping("scheme5", self.geometry)

        monkeypatch.setattr(corun, "DramSystem", Swapped)
        with pytest.raises(ConfigurationError, match="corun's DRAM"):
            CorunSystem(scaled_config(16), 1)

    def test_trace_count_validation(self):
        sys_ = CorunSystem(scaled_config(16), 2)
        with pytest.raises(ConfigurationError):
            sys_.run([iter([])])

    def test_single_core_runs(self):
        sys_ = CorunSystem(scaled_config(16), 1)
        (stats,) = sys_.run([stream_trace(64)])
        assert stats.mem_accesses == 128
        assert stats.cycles > 0

    def test_two_cores_progress_together(self):
        sys_ = CorunSystem(scaled_config(16), 2)
        s = sys_.run([stream_trace(64), stream_trace(64)])
        assert all(st.mem_accesses == 128 for st in s)

    def test_work_and_xmem_events(self):
        sys_ = CorunSystem(scaled_config(16), 1, xmem_cores=(0,))
        lib = sys_.cores[0].xmemlib
        atom = lib.create_atom("t", reuse=10)
        trace = [XMemOp("atom_map", atom, 0, 4096),
                 XMemOp("atom_activate", atom),
                 Work(100), MemAccess(0)]
        (stats,) = sys_.run([iter(trace)])
        assert stats.instructions == 103
        assert lib.process.atoms[atom].is_active

    def test_junk_event(self):
        sys_ = CorunSystem(scaled_config(16), 1)
        with pytest.raises(TypeError):
            sys_.run([iter([object()])])


class TestSharedLLCContention:
    def test_corunner_slows_victim(self):
        cfg = scaled_config(16)
        llc_lines = cfg.llc_bytes // 64
        victim = lambda: stream_trace(llc_lines // 2, passes=6)
        hog = lambda: stream_trace(8 * llc_lines, passes=1,
                                   base=1 << 30)
        alone = CorunSystem(cfg, 1)
        (solo,) = alone.run([victim()])
        shared = CorunSystem(cfg, 2)
        co, _ = shared.run([victim(), hog()])
        assert co.cycles > solo.cycles

    def test_disjoint_address_spaces(self):
        sys_ = CorunSystem(scaled_config(16), 2)
        sys_.run([stream_trace(16), stream_trace(16)])
        # Both cores touched "address 0" but in different app spaces:
        # the shared LLC holds both copies.
        assert sys_.llc.probe(0)
        assert sys_.llc.probe(APP_SPACE)


class TestGlobalPinning:
    def make_xmem_corun(self):
        cfg = scaled_config(16)
        sys_ = CorunSystem(cfg, 2, xmem_cores=(0,))
        lib = sys_.cores[0].xmemlib
        atom = lib.create_atom("tile", pattern=PatternType.REGULAR,
                               stride_bytes=64, reuse=255)
        return cfg, sys_, lib, atom

    def test_controller_pins_across_apps(self):
        cfg, sys_, lib, atom = self.make_xmem_corun()
        lib.atom_map(atom, 0, 8 * 1024)
        lib.atom_activate(atom)
        assert sys_.controller.pin_predicate(0)        # app 0 space
        assert not sys_.controller.pin_predicate(APP_SPACE)

    def test_budget_shared_globally(self):
        cfg = scaled_config(16)
        sys_ = CorunSystem(cfg, 2, xmem_cores=(0, 1))
        budget = int(cfg.llc_bytes * 0.75)
        # App 0's atom has higher reuse and soaks the whole budget.
        lib0 = sys_.cores[0].xmemlib
        a0 = lib0.create_atom("big", pattern=PatternType.REGULAR,
                              stride_bytes=64, reuse=255)
        lib0.atom_map(a0, 0, 2 * budget)
        lib0.atom_activate(a0)
        lib1 = sys_.cores[1].xmemlib
        a1 = lib1.create_atom("late", pattern=PatternType.REGULAR,
                              stride_bytes=64, reuse=10)
        lib1.atom_map(a1, 0, 4096)
        lib1.atom_activate(a1)
        assert sys_.controller.pin_predicate(0)
        # App 1 lost the duel: nothing pinned in its space.
        assert not sys_.controller.pin_predicate(APP_SPACE)

    def test_xmem_protects_victim_from_hog(self):
        """The Section 5.1 story: co-running changes available cache;
        XMem keeps the victim's working set resident anyway."""
        cfg = scaled_config(16)
        llc_lines = cfg.llc_bytes // 64
        ws_lines = llc_lines // 2

        def victim_trace():
            yield from stream_trace(ws_lines, passes=8)

        def victim_trace_xmem(atom):
            yield XMemOp("atom_map", atom, 0, ws_lines * 64)
            yield XMemOp("atom_activate", atom)
            yield from stream_trace(ws_lines, passes=8)

        def hog():
            return stream_trace(6 * llc_lines, passes=1, base=1 << 30,
                                work=1)

        plain = CorunSystem(cfg, 2)
        co_plain, _ = plain.run([victim_trace(), hog()])

        prot = CorunSystem(cfg, 2, xmem_cores=(0,))
        lib = prot.cores[0].xmemlib
        atom = lib.create_atom("ws", pattern=PatternType.REGULAR,
                               stride_bytes=64, reuse=255)
        co_prot, _ = prot.run([victim_trace_xmem(atom), hog()])

        assert co_prot.llc_misses < co_plain.llc_misses
        assert co_prot.cycles < co_plain.cycles * 1.02
