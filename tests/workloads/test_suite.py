"""Tests for the 27-workload Use-Case-2 suite."""

import dataclasses
import random

import pytest

from repro.core.attributes import PatternType, RWChar
from repro.core.errors import ConfigurationError, TranslationError
from repro.cpu.trace import MemAccess, TraceBuilder
from repro.dram.mapping import DramGeometry
from repro.workloads.suite import (
    BY_NAME,
    LOW_HEADROOM,
    RANDOM_DOMINATED,
    SUITE,
    StructureSpec,
    SuiteWorkload,
    WORK_PER_ACCESS,
    graph,
    stream,
    table,
)
from repro.testing.oracles import reference_pack_row
from repro.workloads.polybench.common import Array, pack_row
from repro.xos.loader import OperatingSystem


class TestSpecs:
    def test_twenty_seven_workloads(self):
        assert len(SUITE) == 27
        assert len(BY_NAME) == 27

    def test_special_classes_present(self):
        for name in LOW_HEADROOM + RANDOM_DOMINATED:
            assert name in BY_NAME

    def test_structure_validation(self):
        with pytest.raises(ConfigurationError):
            StructureSpec("x", 16, PatternType.REGULAR)  # < one line
        with pytest.raises(ConfigurationError):
            StructureSpec("x", 1 << 20, PatternType.REGULAR, intensity=0)

    def test_workload_validation(self):
        with pytest.raises(ConfigurationError):
            SuiteWorkload("w", ())
        s = stream("dup", 1 << 20, 100)
        with pytest.raises(ConfigurationError):
            SuiteWorkload("w", (s, s))

    def test_helpers(self):
        assert stream("s", 1 << 20, 10).pattern is PatternType.REGULAR
        assert table("t", 1 << 20, 10).pattern is PatternType.NON_DET
        assert graph("g", 1 << 20, 10).pattern is PatternType.IRREGULAR

    def test_atom_stride_only_for_regular(self):
        assert stream("s", 1 << 20, 10).atom_stride == 64
        assert table("t", 1 << 20, 10).atom_stride is None

    def test_footprints_memory_intensive(self):
        # Every workload must dwarf the scaled LLC (128 KB).
        for w in SUITE:
            assert w.footprint >= 4 << 20, w.name


def synthetic_bases(workload):
    bases, cursor = {}, 0x100000
    for s in workload.structures:
        bases[s.name] = cursor
        cursor += s.size_bytes + 4096
    return bases


class TestTraceGeneration:
    def test_deterministic(self):
        w = BY_NAME["lbm"]
        bases = synthetic_bases(w)
        a = [(e.vaddr, e.is_write) for e in w.trace(bases)]
        b = [(e.vaddr, e.is_write) for e in w.trace(bases)]
        assert a == b

    def test_access_count(self):
        w = BY_NAME["sc"]
        assert sum(1 for _ in w.trace(synthetic_bases(w))) == w.accesses

    def test_addresses_inside_structures(self):
        w = BY_NAME["spmv"]
        bases = synthetic_bases(w)
        spans = {s.name: (bases[s.name], bases[s.name] + s.size_bytes)
                 for s in w.structures}
        for ev in w.trace(bases):
            assert any(lo <= ev.vaddr < hi for lo, hi in spans.values())

    def test_intensity_drives_mix(self):
        w = BY_NAME["mcf"]  # nodes 230 vs arcs 40
        bases = synthetic_bases(w)
        nodes_lo = bases["nodes"]
        nodes_hi = nodes_lo + w.structures[0].size_bytes
        in_nodes = sum(1 for e in w.trace(bases)
                       if nodes_lo <= e.vaddr < nodes_hi)
        frac = in_nodes / w.accesses
        assert 0.7 < frac < 0.95

    def test_read_only_structure_never_written(self):
        w = BY_NAME["kmeans"]  # features is READ_ONLY
        bases = synthetic_bases(w)
        lo = bases["features"]
        hi = lo + w.structures[0].size_bytes
        assert w.structures[0].rw is RWChar.READ_ONLY
        for ev in w.trace(bases):
            if lo <= ev.vaddr < hi:
                assert not ev.is_write

    def test_stream_structure_is_sequential(self):
        w = BY_NAME["sc"]  # single stream
        bases = synthetic_bases(w)
        addrs = [e.vaddr for e in w.trace(bases)]
        deltas = {b - a for a, b in zip(addrs, addrs[1:])}
        # Sequential modulo wraparound.
        size = w.structures[0].size_bytes
        assert deltas <= {64, 64 - size}

    def test_irregular_is_repeatable(self):
        w = BY_NAME["bfsRod"]
        bases = synthetic_bases(w)
        edges = [e.vaddr for e in w.trace(bases)
                 if bases["edges"] <= e.vaddr
                 < bases["edges"] + w.structures[0].size_bytes]
        n = len(edges)
        # The shuffled order cycles: the first visit sequence repeats.
        period = w.structures[0].size_bytes // 64
        if n > period:
            assert edges[0] == edges[period]

    def test_seed_override(self):
        w = BY_NAME["lbm"]
        bases = synthetic_bases(w)
        a = [e.vaddr for e in w.trace(bases, seed=1)]
        b = [e.vaddr for e in w.trace(bases, seed=2)]
        assert a != b


class TestInstantiation:
    def test_instantiate_maps_and_activates(self):
        osys = OperatingSystem(DramGeometry(capacity_bytes=1 << 26))
        proc = osys.create_process()
        w = BY_NAME["kmeans"]
        bases = w.instantiate(proc)
        assert set(bases) == {s.name for s in w.structures}
        active = proc.xmem.active_atoms()
        assert len(active) == len(w.structures)
        # Every structure's base VA resolves to its atom via the AMU.
        for s in w.structures:
            pa = proc.translate(bases[s.name])
            atom = proc.xmem.atom_for_paddr(pa)
            assert atom is not None
            assert atom.name == f"{w.name}.{s.name}"

    def test_instantiate_with_placement(self):
        osys = OperatingSystem(DramGeometry(capacity_bytes=1 << 26),
                               allocator="bank_target")
        proc = osys.create_process()
        w = BY_NAME["lbm"]  # two hot streams -> isolation expected
        w.instantiate(proc)
        assert proc.placement is not None
        assert proc.placement.isolated


def object_stream(w, bases, seed=None):
    """The suite stream as one object per access, restated from the
    per-structure-name generator the direct packer replaced (same
    draws in the same order): the oracle for :meth:`pack_into`."""
    rng = random.Random(seed if seed is not None else sum(
        (i + 1) * ord(ch) for i, ch in enumerate(w.name)))
    cursors = {s.name: 0 for s in w.structures}
    irregular = {}
    for s in w.structures:
        if s.pattern is PatternType.IRREGULAR:
            lines = list(range(s.size_bytes // 64))
            rng.shuffle(lines)
            irregular[s.name] = lines
    schedule = rng.choices(w.structures,
                           weights=[s.intensity for s in w.structures],
                           k=512)
    for i in range(w.accesses):
        s = schedule[i % len(schedule)]
        if s.pattern is PatternType.REGULAR:
            cursors[s.name] = (cursors[s.name] + s.stride_bytes) \
                % s.size_bytes
            addr = bases[s.name] + cursors[s.name]
        elif s.pattern is PatternType.IRREGULAR:
            order = irregular[s.name]
            addr = bases[s.name] + order[cursors[s.name] % len(order)] * 64
            cursors[s.name] += 1
        else:
            addr = bases[s.name] \
                + rng.randrange(s.size_bytes // 64) * 64
        is_write = (s.rw is not RWChar.READ_ONLY
                    and rng.random() < s.write_fraction)
        yield MemAccess(addr, is_write, work=WORK_PER_ACCESS)


def object_pack(events, translate=lambda va: va):
    out = TraceBuilder()
    for ev in events:
        out.access(translate(ev.vaddr), ev.is_write, ev.work)
    return out.build()


def columns(packed):
    return list(packed.vaddr), list(packed.meta), packed.xmem


class TestDirectPacking:
    """``pack_into`` appends exactly the object stream's pack."""

    ACCESSES = 3000

    @pytest.mark.parametrize("name", sorted(BY_NAME))
    def test_virtual_equals_object_pack(self, name):
        w = dataclasses.replace(BY_NAME[name], accesses=self.ACCESSES)
        bases = synthetic_bases(w)
        out = TraceBuilder()
        w.pack_into(out, bases)
        assert columns(out.build()) == columns(
            object_pack(object_stream(w, bases)))

    @pytest.mark.parametrize("name", sorted(BY_NAME))
    def test_physical_equals_translated_object_pack(self, name):
        w = dataclasses.replace(BY_NAME[name], accesses=self.ACCESSES)
        osys = OperatingSystem(DramGeometry(capacity_bytes=1 << 26),
                               allocator="bank_target", seed=17)
        proc = osys.create_process()
        bases = w.instantiate(proc)
        out = TraceBuilder()
        w.pack_into(out, bases, frames=dict(proc.page_table.items()),
                    page_bytes=proc.page_table.page_bytes)
        want = object_pack(object_stream(w, bases), proc.translate)
        assert columns(out.build()) == columns(want)

    def test_packs_after_pending_segments(self):
        """Row segments still pending in the builder stay ahead of the
        suite stream packed after them."""
        w = dataclasses.replace(BY_NAME["mcf"], accesses=500)
        bases = synthetic_bases(w)
        arr = Array("x", 0x7000_0008, 4, 21)
        out, want = TraceBuilder(), TraceBuilder()
        pack_row(out, arr, 1, 3, 17)
        assert out._seg_lines > 0   # pending, not yet expanded
        w.pack_into(out, bases)
        pack_row(out, arr, 2, 0, 9, write=True)
        reference_pack_row(want, arr, 1, 3, 17)
        w.pack_into(want, bases)
        reference_pack_row(want, arr, 2, 0, 9, write=True)
        assert columns(out.build()) == columns(want.build())

    def test_truncation_is_a_prefix(self):
        w = dataclasses.replace(BY_NAME["mcf"], accesses=2000)
        bases = synthetic_bases(w)
        full, head = TraceBuilder(), TraceBuilder()
        w.pack_into(full, bases)
        w.pack_into(head, bases, accesses=700)
        assert list(head.vaddr) == list(full.vaddr)[:700]
        assert list(head.meta) == list(full.meta)[:700]

    def test_seed_and_trace_agree(self):
        w = dataclasses.replace(BY_NAME["bfsRod"], accesses=2000)
        bases = synthetic_bases(w)
        want = list(object_stream(w, bases, seed=5))
        assert list(w.trace(bases, seed=5)) == want

    def test_unmapped_address_raises(self):
        w = dataclasses.replace(BY_NAME["lbm"], accesses=100)
        bases = synthetic_bases(w)
        with pytest.raises(TranslationError):
            w.pack_into(TraceBuilder(), bases, frames={})

    def test_negative_base_is_refused(self):
        w = dataclasses.replace(BY_NAME["sc"], accesses=10)
        with pytest.raises(ConfigurationError, match="negative"):
            w.pack_into(TraceBuilder(),
                        {s.name: -4096 for s in w.structures})
