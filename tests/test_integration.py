"""Cross-layer integration tests: the whole stack working together."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attributes import PatternType
from repro.cpu.trace import MemAccess, XMemOp, strip_xmem
from repro.dram.mapping import DramGeometry
from repro.sim import build_baseline, build_xmem, scaled_config
from repro.sim.usecase2 import run_system
from repro.workloads.polybench import KERNELS
from repro.workloads.suite import BY_NAME
from repro.xos.loader import OperatingSystem


class TestHintOnlySemantics:
    """XMem is supplemental: dropping it never changes functionality."""

    def test_stripped_trace_has_identical_accesses(self):
        k = KERNELS["gemm"]
        from repro.core.xmemlib import XMemLib
        instrumented = list(k.build_trace(16, 8, lib=XMemLib()))
        plain = list(k.build_trace(16, 8))
        stripped = [e for e in strip_xmem(instrumented)]
        assert stripped == plain

    def test_xmem_system_sees_same_access_count(self):
        cfg = scaled_config(16)
        k = KERNELS["syrk"]
        base = build_baseline(cfg)
        b = base.run(k.build_trace(32, 16))
        xmem = build_xmem(cfg)
        x = xmem.run(k.build_trace(32, 16, lib=xmem.xmemlib))
        assert b.mem_accesses == x.mem_accesses

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
    def test_arbitrary_traces_run_on_both_systems(self, addrs):
        cfg = scaled_config(16)
        trace = [MemAccess(a - a % 8, bool(a & 1), work=1) for a in addrs]
        base = build_baseline(cfg).run(list(trace))
        xmem = build_xmem(cfg).run(list(trace))
        assert base.mem_accesses == xmem.mem_accesses == len(addrs)
        assert base.cycles > 0 and xmem.cycles > 0


class TestEndToEndAtomFlow:
    def test_compile_load_run_cycle(self):
        """Compile-time summarization -> OS load -> hardware query."""
        from repro.core.xmemlib import XMemLib

        # "Compile": a program creates atoms; the compiler summarizes.
        author = XMemLib()
        author.create_atom("weights", pattern=PatternType.REGULAR,
                           stride_bytes=8, reuse=200)
        author.create_atom("graph", pattern=PatternType.IRREGULAR,
                           access_intensity=100)
        segment = author.compile_segment()

        # "Load": the OS reads the segment into a fresh process.
        osys = OperatingSystem(DramGeometry(capacity_bytes=1 << 24))
        proc = osys.create_process()
        assert osys.load_program(proc, segment) == 2
        # The PATs are filled by the Attribute Translator.
        assert proc.xmem.pats["cache"].lookup(0).reuse == 200
        assert proc.xmem.pats["dram"].lookup(1).irregular

    def test_atom_queries_after_page_mapping(self):
        osys = OperatingSystem(DramGeometry(capacity_bytes=1 << 24))
        proc = osys.create_process()
        lib = proc.xmemlib
        atom = lib.create_atom("buf", reuse=50)
        va = proc.malloc_mapped(3 * 4096, atom)
        # Every page of the allocation resolves to the atom in PA space.
        for off in (0, 4096, 2 * 4096 + 100):
            pa = proc.translate(va + off)
            assert proc.xmem.amu.lookup(pa) == atom

    def test_scattered_frames_still_resolve(self):
        # Randomized allocation scatters frames; the AAM is PA-indexed
        # and must resolve each scattered page.
        osys = OperatingSystem(DramGeometry(capacity_bytes=1 << 24),
                               allocator="randomized")
        proc = osys.create_process()
        lib = proc.xmemlib
        atom = lib.create_atom("buf", reuse=50)
        va = proc.malloc_mapped(8 * 4096, atom)
        frames = {proc.page_table.frame_of(va // 4096 + i)
                  for i in range(8)}
        assert len(frames) == 8
        for i in range(8):
            pa = proc.translate(va + i * 4096)
            assert proc.xmem.amu.lookup(pa) == atom


class TestContextSwitch:
    """Section 4.3: per-process AST/PAT state, global AAM."""

    def test_two_processes_on_one_machine(self):
        osys = OperatingSystem(DramGeometry(capacity_bytes=1 << 24))
        p1 = osys.create_process()
        p2 = osys.create_process()
        a1 = p1.xmemlib.create_atom("p1data", reuse=10)
        a2 = p2.xmemlib.create_atom("p2data", reuse=20)
        va1 = p1.malloc_mapped(4096, a1)
        va2 = p2.malloc_mapped(4096, a2)
        # Each process's XMem view resolves its own data only.
        assert p1.xmem.amu.lookup(p1.translate(va1)) == a1
        assert p2.xmem.amu.lookup(p2.translate(va2)) == a2
        assert p1.xmem.amu.lookup(p2.translate(va2)) is None

    def test_ast_snapshot_roundtrip_through_switch(self):
        from repro.core.xmemlib import XMemLib
        lib = XMemLib()
        a = lib.create_atom("x", reuse=1)
        lib.atom_map(a, 0, 4096)
        lib.atom_activate(a)
        amu = lib.process.amu
        saved = amu.ast.snapshot()
        # Switch to an "empty" process and back.
        amu.context_switch(bytes(len(saved)))
        assert amu.lookup(0) is None
        amu.context_switch(saved)
        assert amu.lookup(0) == a


class TestUseCasesSmoke:
    def test_usecase1_full_path(self):
        cfg = scaled_config(16)
        handle = build_xmem(cfg)
        k = KERNELS["jacobi2d"]
        stats = handle.run(k.build_trace(64, 64, lib=handle.xmemlib))
        assert stats.cycles > 0
        assert handle.controller.stats.refreshes > 0
        assert handle.xmemlib.process.amu.alb.stats.lookups > 0

    def test_usecase2_full_path(self):
        r = run_system(BY_NAME["leslie3d"], "xmem", accesses=20_000)
        assert r.run.cycles > 0
        assert "isolated" in r.placement_report
