"""Packed columnar traces: encoding, reconstruction, and the
engine fast path.

The load-bearing property is the last test class: for **every**
registered polybench kernel, the packed tier over the packed columns
produces bit-for-bit the same :class:`EngineStats` as the object-event
reference interpreter (:class:`~repro.testing.oracles.ReferenceEngine`)
over the reconstructed event stream, on both baseline and XMem
machines.  Everything the figures report flows through the packed
tier, so this equivalence is what makes the packed format a pure
optimization.
"""

import pytest

from repro.core.xmemlib import XMemLib
from repro.cpu.trace import (
    MemAccess,
    META_COUNT_SHIFT,
    META_WORK_BIT,
    META_WRITE_BIT,
    PackedTrace,
    TraceBuilder,
    Work,
    XMemOp,
    count_events,
    strip_xmem,
)
from repro.sim.config import scaled_config
from repro.sim.system import build_baseline, build_xmem
from repro.testing.oracles import with_reference_engine
from repro.workloads.polybench import KERNELS

N = 16
TILE = 8


def mixed_events():
    """A small stream exercising every event shape and op position."""
    return [
        XMemOp("atom_map", 1, 0x1000, 64),        # leading op
        MemAccess(0x1000, False, 3),
        Work(7),
        XMemOp("atom_activate", 1),               # mid-stream op
        XMemOp("atom_deactivate", 1),             # consecutive ops
        MemAccess(0x1040, True, 0),
        Work(1),
        XMemOp("atom_unmap", 1, 0x1000, 64),      # trailing op
    ]


# ---------------------------------------------------------------------------
# Encoding / reconstruction
# ---------------------------------------------------------------------------

class TestBuilderEncoding:
    def test_flag_word_layout(self):
        b = TraceBuilder()
        b.access(0x40, is_write=True, work=5)
        b.work(9)
        b.access(0x80)
        assert list(b.vaddr) == [0x40, 0, 0x80]
        assert b.meta[0] == (5 << META_COUNT_SHIFT) | META_WRITE_BIT
        assert b.meta[1] == (9 << META_COUNT_SHIFT) | META_WORK_BIT
        assert b.meta[2] == 0

    def test_op_records_dense_position(self):
        b = TraceBuilder()
        op0 = XMemOp("atom_map", 1, 0, 64)
        b.op(op0)
        b.access(0x40)
        op1 = XMemOp("atom_activate", 1)
        b.op(op1)
        packed = b.build()
        assert packed.xmem == ((0, op0), (1, op1))
        assert len(packed) == 1
        assert packed.num_events == 3

    def test_events_roundtrip(self):
        events = mixed_events()
        packed = PackedTrace.from_events(events)
        assert list(packed.events()) == events
        # __iter__ is the same reconstruction.
        assert list(packed) == events

    def test_builder_len_and_build_reuse(self):
        b = TraceBuilder()
        b.extend(mixed_events())
        assert len(b) == len(mixed_events())
        first = b.build()
        assert first.num_events == len(mixed_events())
        # build() shares the builder's columns (zero-copy), so later
        # appends are visible through earlier builds.
        b.access(0xFF00)
        second = b.build()
        assert second.vaddr is first.vaddr
        assert len(second) == len(first) == 5

    def test_add_rejects_non_events(self):
        with pytest.raises(TypeError):
            TraceBuilder().add(object())

    def test_counts_match_object_path(self):
        events = mixed_events()
        packed = PackedTrace.from_events(events)
        assert packed.counts() == count_events(iter(events))
        assert count_events(packed) == packed.counts()


# ---------------------------------------------------------------------------
# Baseline view (side-table stripping)
# ---------------------------------------------------------------------------

class TestWithoutXmem:
    def test_shares_columns(self):
        packed = PackedTrace.from_events(mixed_events())
        bare = packed.without_xmem()
        assert bare.vaddr is packed.vaddr
        assert bare.meta is packed.meta
        assert bare.xmem == ()
        assert not any(isinstance(ev, XMemOp) for ev in bare.events())

    def test_identity_when_already_bare(self):
        packed = PackedTrace.from_events([MemAccess(0x40), Work(2)])
        assert packed.without_xmem() is packed

    def test_strip_xmem_dispatch(self):
        events = mixed_events()
        packed = PackedTrace.from_events(events)
        stripped = strip_xmem(packed)
        assert isinstance(stripped, PackedTrace)
        # Object streams still filter lazily to the same stream.
        assert (list(stripped.events())
                == list(strip_xmem(iter(events))))

    def test_equality_is_content_based(self):
        a = PackedTrace.from_events(mixed_events())
        b = PackedTrace.from_events(mixed_events())
        assert a == b
        assert a.without_xmem() != a


# ---------------------------------------------------------------------------
# Engine fast path == object-event reference, for every kernel
# ---------------------------------------------------------------------------

def _stats_pair(kernel, system_builder, with_lib):
    """(object-path, packed-path) (stats, full snapshot) pairs on fresh
    twin machines."""
    cfg = scaled_config(32)
    h_obj = with_reference_engine(system_builder(cfg))
    packed_a = kernel.build_packed(N, TILE, lib=h_obj.xmemlib)
    trace_a = packed_a if with_lib else packed_a.without_xmem()
    # The reference interprets the materialized event stream.
    obj_stats = h_obj.engine.run(list(trace_a.events()))

    h_pk = system_builder(cfg)
    packed_b = kernel.build_packed(N, TILE, lib=h_pk.xmemlib)
    pk_stats = h_pk.run(packed_b)
    return ((obj_stats, h_obj.stats_snapshot()),
            (pk_stats, h_pk.stats_snapshot()))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_packed_equals_object_baseline(name):
    obj_stats, pk_stats = _stats_pair(KERNELS[name], build_baseline,
                                      with_lib=False)
    assert obj_stats == pk_stats


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_packed_equals_object_xmem(name):
    obj_stats, pk_stats = _stats_pair(KERNELS[name], build_xmem,
                                      with_lib=True)
    assert obj_stats == pk_stats


def test_run_redirects_packed():
    """engine.run takes packed columns as they are and packs an object
    stream first: the same result either way."""
    cfg = scaled_config(32)
    kernel = KERNELS["gemm"]
    h1 = build_xmem(cfg)
    packed = kernel.build_packed(N, TILE, lib=h1.xmemlib)
    via_run = h1.engine.run(packed)
    h2 = build_xmem(cfg)
    kernel.build_packed(N, TILE, lib=h2.xmemlib)
    via_events = h2.engine.run(list(packed.events()))
    assert via_run == via_events


def test_side_table_applies_at_recorded_position():
    """An op between two accesses executes exactly between them."""
    calls = []

    class SpyLib:
        def atom_map(self, *args):
            calls.append(("atom_map", args))

    class NullMemory:
        def access(self, paddr, is_write, now):
            calls.append(("access", paddr))
            return now, False

    from repro.testing.oracles import ReferenceEngine
    b = TraceBuilder()
    b.access(0x40)
    b.op(XMemOp("atom_map", 7, 0x40, 64))
    b.access(0x80)
    engine = ReferenceEngine(NullMemory(), xmemlib=SpyLib())
    engine.run(b.build())
    assert calls == [("access", 0x40), ("atom_map", (7, 0x40, 64)),
                     ("access", 0x80)]


def test_build_trace_returns_packed():
    """The kernel entry point hands back the packed form."""
    trace = KERNELS["gemm"].build_packed(N, TILE, lib=XMemLib())
    assert isinstance(trace, PackedTrace)
    assert any(isinstance(ev, XMemOp) for ev in trace)
