"""Tests for trace events and the timing model.

The model's timing semantics are stated by
:class:`repro.testing.oracles.ReferenceEngine`, so they are tested
there, over scriptable memories; the production engine is held to the
reference on real machines (``tests/cpu/test_vector_engine.py``).
"""

import pytest

from repro.core.errors import ConfigurationError
from repro.cpu.engine import TraceEngine
from repro.cpu.trace import (
    MemAccess,
    Work,
    XMemOp,
    count_events,
    strip_xmem,
)
from repro.testing.oracles import ReferenceEngine


class FakeMemory:
    """Scriptable memory: per-address latency, default fast hit."""

    def __init__(self, latencies=None, default=1.0):
        self.latencies = latencies or {}
        self.default = default
        self.calls = []

    def access(self, paddr, is_write, now):
        self.calls.append((paddr, is_write, now))
        lat = self.latencies.get(paddr, self.default)
        return now + lat, lat > 30


class FakeLib:
    def __init__(self):
        self.calls = []

    def atom_map(self, *args):
        self.calls.append(("atom_map", args))

    def atom_activate(self, *args):
        self.calls.append(("atom_activate", args))


class TestTraceHelpers:
    def test_count_events(self):
        trace = [MemAccess(0, work=3), Work(5), XMemOp("atom_activate", 0),
                 MemAccess(64)]
        assert count_events(trace) == (2, 8, 1)

    def test_count_rejects_junk(self):
        with pytest.raises(TypeError):
            count_events(["nope"])

    def test_strip_xmem(self):
        trace = [MemAccess(0), XMemOp("atom_map", 0, 0, 64), Work(1)]
        stripped = list(strip_xmem(trace))
        assert stripped == [MemAccess(0), Work(1)]

    def test_event_reprs(self):
        assert "W" in repr(MemAccess(0, is_write=True))
        assert "Work(3)" == repr(Work(3))
        assert "atom_map" in repr(XMemOp("atom_map", 1))


class TestEngineTiming:
    def test_work_retires_at_issue_width(self):
        eng = ReferenceEngine(FakeMemory(), issue_width=4)
        stats = eng.run([Work(400)])
        assert stats.cycles == pytest.approx(100)
        assert stats.instructions == 400
        assert stats.ipc == pytest.approx(4)

    def test_bad_issue_width(self):
        with pytest.raises(ConfigurationError):
            TraceEngine(FakeMemory(), issue_width=0)

    def test_fast_hits_pipelined(self):
        eng = ReferenceEngine(FakeMemory(default=1.0), issue_width=1)
        stats = eng.run([MemAccess(i * 64) for i in range(100)])
        assert stats.cycles == pytest.approx(100)
        assert stats.misses_to_memory == 0

    def test_long_latency_overlaps_in_window(self):
        # 10 accesses of 100 cycles each, window 16: all overlap.
        mem = FakeMemory(default=100.0)
        eng = ReferenceEngine(mem, issue_width=1, window=16)
        stats = eng.run([MemAccess(i * 64) for i in range(10)])
        # Far less than serialized 1000 cycles.
        assert stats.cycles < 150
        assert stats.misses_to_memory == 10

    def test_window_full_stalls(self):
        mem = FakeMemory(default=100.0)
        eng = ReferenceEngine(mem, issue_width=1, window=2)
        stats = eng.run([MemAccess(i * 64) for i in range(10)])
        assert stats.stall_cycles > 0
        # Far above the fully-overlapped ~110 cycles: pair-serialized.
        assert stats.cycles >= 350

    def test_trailing_miss_counted(self):
        mem = FakeMemory(default=500.0)
        eng = ReferenceEngine(mem, issue_width=1, window=8)
        stats = eng.run([MemAccess(0)])
        assert stats.cycles >= 500

    def test_work_attached_to_access(self):
        eng = ReferenceEngine(FakeMemory(), issue_width=2)
        stats = eng.run([MemAccess(0, work=10)])
        assert stats.instructions == 11
        assert stats.cycles >= 5

    def test_junk_event_raises(self):
        """The production engine packs first, and packing rejects
        anything that is not a trace event."""
        eng = TraceEngine(FakeMemory())
        with pytest.raises(TypeError):
            eng.run([object()])


class TestEngineXMem:
    def test_xmem_ops_executed_in_order(self):
        lib = FakeLib()
        eng = ReferenceEngine(FakeMemory(), xmemlib=lib)
        eng.run([
            XMemOp("atom_map", 0, 0, 4096),
            MemAccess(0),
            XMemOp("atom_activate", 0),
        ])
        assert lib.calls == [("atom_map", (0, 0, 4096)),
                             ("atom_activate", (0,))]

    def test_xmem_ops_counted_as_instructions(self):
        lib = FakeLib()
        eng = ReferenceEngine(FakeMemory(), xmemlib=lib)
        stats = eng.run([XMemOp("atom_activate", 0), Work(999)])
        assert stats.instructions == 1000
        assert stats.xmem_instructions == 1
        assert stats.xmem_instruction_overhead == pytest.approx(0.001)

    def test_xmem_ops_skipped_without_lib(self):
        eng = ReferenceEngine(FakeMemory(), xmemlib=None)
        stats = eng.run([XMemOp("atom_activate", 0)])
        # Still counted (the instruction exists in the binary) but not
        # executed anywhere.
        assert stats.xmem_instructions == 1

    def test_overhead_zero_when_empty(self):
        eng = ReferenceEngine(FakeMemory())
        stats = eng.run([])
        assert stats.xmem_instruction_overhead == 0.0
        assert stats.ipc == 0.0
