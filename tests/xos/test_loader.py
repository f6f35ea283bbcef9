"""Unit tests for the OS process/loader layer (Section 3.5.2)."""

import pytest

from repro.core.attributes import PatternType, make_attributes
from repro.core.errors import ConfigurationError
from repro.core.segment import AtomSegment, summarize
from repro.xos.loader import OperatingSystem


def make_segment(count=2):
    return summarize([
        (i, make_attributes(name=f"a{i}", pattern=PatternType.REGULAR,
                            stride_bytes=8, reuse=100 + i))
        for i in range(count)
    ])


class TestOperatingSystem:
    def test_unknown_allocator_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown allocator"):
            OperatingSystem(allocator="bogus")

    def test_pids_are_consecutive_and_registered(self):
        os = OperatingSystem()
        a = os.create_process()
        b = os.create_process()
        assert (a.pid, b.pid) == (1, 2)
        assert os.processes == {1: a, 2: b}
        assert a.os is os and b.os is os

    def test_os_and_process_free_without_the_cycle_collector(self):
        """Neither the heap's page hook nor the OS's process map holds
        a process in a reference cycle: dropping the last references
        frees the OS and its processes at once, not whenever the
        cyclic collector next runs (a run's peak memory held every
        earlier run's OS until then)."""
        import gc
        import weakref

        gc.disable()
        try:
            os = OperatingSystem()
            proc = os.create_process()
            proc.malloc(os.page_bytes)
            refs = [weakref.ref(os), weakref.ref(proc)]
            del os, proc
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_processes_get_private_address_spaces(self):
        os = OperatingSystem()
        a = os.create_process()
        b = os.create_process()
        va_a = a.malloc(os.page_bytes)
        va_b = b.malloc(os.page_bytes)
        assert va_a == va_b                      # same heap base...
        assert a.translate(va_a) != b.translate(va_b)  # ...own frames


class TestProcessMalloc:
    def test_malloc_backs_every_page(self):
        proc = OperatingSystem().create_process()
        page = proc.heap.page_bytes
        base = proc.malloc(3 * page)
        frames = {proc.translate(base + i * page) // page
                  for i in range(3)}
        assert len(frames) == 3                  # three distinct frames

    def test_translate_preserves_page_offset(self):
        proc = OperatingSystem().create_process()
        base = proc.malloc(proc.heap.page_bytes)
        assert proc.translate(base + 123) == proc.translate(base) + 123

    def test_malloc_records_atom(self):
        proc = OperatingSystem().create_process()
        va = proc.malloc(64, atom_id=3)
        assert proc.heap.atom_of_range(va) == 3

    def test_malloc_mapped_maps_and_activates(self):
        proc = OperatingSystem().create_process()
        atom = proc.xmemlib.create_atom(
            "tile", pattern=PatternType.REGULAR, stride_bytes=8,
            reuse=200)
        size = 2 * proc.heap.page_bytes
        va = proc.malloc_mapped(size, atom)
        assert proc.heap.atom_of_range(va) == atom
        # The mapped range answers atom lookups through the XMem view
        # (the AMU is physically indexed: translate first).
        found = proc.xmem.atom_for_paddr(proc.translate(va))
        assert found is not None and found.atom_id == atom
        assert [a.atom_id for a in proc.xmem.active_atoms()] == [atom]


class TestLoadProgram:
    def test_fills_gat_and_counts(self):
        os = OperatingSystem()
        proc = os.create_process()
        assert os.load_program(proc, make_segment(2)) == 2
        loaded = {atom_id for atom_id, _ in proc.xmem.gat}
        assert loaded == {0, 1}

    def test_unknown_version_ignored(self):
        os = OperatingSystem()
        proc = os.create_process()
        segment = AtomSegment(version=99,
                              entries=make_segment(2).entries)
        assert os.load_program(proc, segment) == 0

    def test_placement_armed_for_bank_target(self):
        os = OperatingSystem(allocator="bank_target")
        proc = os.create_process()
        assert proc.placement is None
        os.load_program(proc, make_segment(3))
        assert proc.placement is not None

    def test_randomized_allocator_skips_placement(self):
        os = OperatingSystem(allocator="randomized")
        proc = os.create_process()
        os.load_program(proc, make_segment(2))
        assert proc.placement is None

    def test_apply_placement_requires_bank_target(self):
        os = OperatingSystem(allocator="randomized")
        proc = os.create_process()
        with pytest.raises(ConfigurationError, match="bank_target"):
            os.apply_placement(proc)
