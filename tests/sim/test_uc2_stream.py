"""Use Case 2's virtual stream: drawn once per process, translated per OS.

:func:`repro.sim.usecase2.virtual_stream` keeps each suite workload's
untranslated stream in the runner's in-process recording memo, and
:func:`repro.sim.usecase2.physical_stream` translates it through an
OS's page map, keeping the translation with the virtual stream
(:func:`repro.sim.usecase2.translated`).  These tests hold the
translated stream to the per-access translation that packing once did,
address by address, and a run over a stored translation to a run on an
emptied memo.
"""

import dataclasses
from array import array

import pytest

from repro.core.errors import ConfigurationError, TranslationError
from repro.cpu.trace import PackedTrace, TraceBuilder
from repro.sim import runner, usecase2
from repro.sim.usecase2 import (BASELINE_MAPPING_CANDIDATES,
                                mapping_probes, physical_stream,
                                pick_baseline_mapping, run_system,
                                virtual_stream)
from repro.workloads.suite import BY_NAME
from repro.workloads.suite.spec import SuiteWorkload, translate_stream


@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty recording memo for the test."""
    monkeypatch.setattr(runner, "_MEMO", {})
    return runner._MEMO


@pytest.fixture
def draws(monkeypatch):
    """Every draw of a suite stream, as its workload's name."""
    seen = []
    real = SuiteWorkload.pack_into

    def spy(workload, out, bases, **kw):
        seen.append(workload.name)
        return real(workload, out, bases, **kw)

    monkeypatch.setattr(SuiteWorkload, "pack_into", spy)
    return seen


def bases_of(workload):
    """Synthetic structure bases, 64 MB apart."""
    return {s.name: (i + 1) << 26 for i, s in enumerate(workload.structures)}


def per_access(workload, bases, frames, page, accesses):
    """The stream as packing once translated it: each address, as it
    was drawn, through one page-map lookup."""
    virtual = TraceBuilder()
    workload.pack_into(virtual, bases, accesses=accesses)
    return ([frames[va // page] * page + va % page for va in virtual.vaddr],
            list(virtual.meta))


class TestTranslatedStream:
    @pytest.mark.parametrize("accesses", [None, 1_000])
    @pytest.mark.parametrize("allocator", ["randomized", "bank_target"])
    @pytest.mark.parametrize("name", sorted(BY_NAME))
    def test_equals_per_access_translation(self, name, allocator,
                                           accesses):
        workload = BY_NAME[name]
        trace, proc = physical_stream(workload, allocator,
                                      usecase2.XMEM_MAPPING, accesses)
        page_table = proc.page_table
        frames = dict(page_table.items())
        bases = {s.name: a.start for s, a in zip(
            workload.structures, proc.heap.static_atom_map)}
        want = per_access(workload, bases, frames,
                          page_table.page_bytes, accesses)
        assert (list(trace.vaddr), list(trace.meta)) == want
        packed = TraceBuilder()
        workload.pack_into(packed, bases, frames=frames,
                           page_bytes=page_table.page_bytes,
                           accesses=accesses)
        assert list(packed.vaddr) == want[0]
        assert len(trace) == (accesses or workload.accesses)

    @pytest.mark.parametrize("chunk", [2, 8192])
    def test_unmapped_page_raises(self, monkeypatch, chunk):
        from repro.workloads.suite import spec
        monkeypatch.setattr(spec, "TRANSLATE_CHUNK", chunk)
        page = 4096
        stream = array("q", [5, page + 7, 3 * page + 9, 2, 5 * page])
        with pytest.raises(TranslationError) as err:
            translate_stream(stream, {0: 4, 1: 8}.get, page)
        assert err.value.vaddr == 3 * page + 9
        assert translate_stream(stream, {0: 4, 1: 8, 3: 1, 5: 0}.get,
                                page) == array("q", [
                                    4 * page + 5, 8 * page + 7, page + 9,
                                    4 * page + 2, 0])
        workload = BY_NAME["mcf"]
        bases = bases_of(workload)
        first = min(bases.values()) // page
        with pytest.raises(TranslationError):
            workload.pack_into(TraceBuilder(), bases,
                               frames={first: 1}, accesses=200)

    def test_empty_stream(self):
        assert translate_stream(array("q"), {}.get) == array("q")


class TestVirtualStreamStore:
    def test_drawn_once_and_shared(self, memo, draws):
        workload = BY_NAME["lbm"]
        bases = bases_of(workload)
        first = virtual_stream(workload, bases, 2_000)
        assert virtual_stream(workload, bases, 2_000) is first
        assert draws == ["lbm"]
        for system in usecase2.SYSTEMS:
            run_system(workload, system, accesses=500)
        assert draws == ["lbm", "lbm"]      # one draw for all three

    def test_renamed_or_resized_model_draws_its_own(self, memo, draws):
        workload = BY_NAME["mcf"]
        bases = bases_of(workload)
        head = workload.structures[0]
        renamed = dataclasses.replace(workload, name="mcf-s1")
        resized = dataclasses.replace(workload, structures=(
            dataclasses.replace(head, size_bytes=2 * head.size_bytes),
        ) + workload.structures[1:])
        streams = [virtual_stream(w, bases, 3_000)
                   for w in (workload, renamed, resized)]
        assert draws == ["mcf", "mcf-s1", "mcf"]
        assert streams[0] != streams[1] and streams[0] != streams[2]
        for w, stream in zip((workload, renamed, resized), streams):
            fresh = TraceBuilder()
            w.pack_into(fresh, bases, accesses=3_000)
            assert stream == fresh.build()

    def test_truncated_stream_is_its_own_entry(self, memo):
        workload = BY_NAME["mcf"]
        bases = bases_of(workload)
        whole = virtual_stream(workload, bases, 3_000)
        head = virtual_stream(workload, bases, 1_000)
        assert list(head.vaddr) == list(whole.vaddr[:1_000])
        assert virtual_stream(workload, bases, 10**9) \
            is virtual_stream(workload, bases)

    def test_store_holds_its_bound(self, memo):
        workload = BY_NAME["sc"]
        bases = bases_of(workload)
        for count in range(100, 100 * (runner._MEMO_LIMIT + 3), 100):
            last = virtual_stream(workload, bases, count)
            assert len(memo) <= runner._MEMO_LIMIT
        assert len(memo) == runner._MEMO_LIMIT
        assert virtual_stream(workload, bases, count) is last

    def test_checked_reuse_redraws_and_compares(self, memo, draws,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        workload = BY_NAME["lbm"]
        bases = bases_of(workload)
        stream = virtual_stream(workload, bases, 800)
        assert virtual_stream(workload, bases, 800) is stream
        assert draws == ["lbm", "lbm"]      # the reuse drew again
        stream.vaddr[300] += 64
        with pytest.raises(ConfigurationError, match="virtual stream"):
            virtual_stream(workload, bases, 800)
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert virtual_stream(workload, bases, 800) is stream


def page_table(frames, page=4096):
    """A page table mapping vpage -> frame as ``frames`` says."""
    from repro.xos.page_table import PageTable

    table = PageTable(page)
    for vpage, frame in frames.items():
        table.map_page(vpage, frame)
    return table


class TestTranslationStore:
    """A translation is kept with its virtual stream and served to
    every later page map that gives the stream's pages equal frames."""

    def test_equal_page_map_returns_the_same_column(self, memo):
        workload = BY_NAME["lbm"]
        first, _ = physical_stream(workload, "randomized",
                                   usecase2.XMEM_MAPPING, 2_000)
        again, _ = physical_stream(workload, "randomized",
                                   usecase2.XMEM_MAPPING, 2_000)
        # The randomized page map does not depend on the mapping.
        other, _ = physical_stream(workload, "randomized", "scheme5",
                                   2_000)
        assert again is first and other is first

    def test_bank_target_os_gets_its_own_column(self, memo):
        workload = BY_NAME["mcf"]
        randomized, _ = physical_stream(workload, "randomized",
                                        usecase2.XMEM_MAPPING, 2_000)
        targeted, proc = physical_stream(workload, "bank_target",
                                         usecase2.XMEM_MAPPING, 2_000)
        assert targeted.vaddr is not randomized.vaddr
        assert targeted.vaddr != randomized.vaddr
        assert targeted.meta is randomized.meta
        bases = {s.name: a.start for s, a in zip(
            workload.structures, proc.heap.static_atom_map)}
        want = per_access(workload, bases, dict(proc.page_table.items()),
                          proc.page_table.page_bytes, 2_000)
        assert list(targeted.vaddr) == want[0]
        for allocator, trace in (("randomized", randomized),
                                 ("bank_target", targeted)):
            assert physical_stream(workload, allocator,
                                   usecase2.XMEM_MAPPING,
                                   2_000)[0] is trace

    def test_only_the_touched_pages_key_a_translation(self):
        virtual = PackedTrace(array("q", [5, 4096 + 7, 5]),
                              array("q", [0, 0, 0]))
        first = usecase2.translated(virtual, page_table({0: 3, 1: 9}))
        same = usecase2.translated(virtual,
                                   page_table({0: 3, 1: 9, 2: 4}))
        moved = usecase2.translated(virtual, page_table({0: 3, 1: 2}))
        assert same is first and moved is not first
        assert list(first.vaddr) == [3 * 4096 + 5, 9 * 4096 + 7,
                                     3 * 4096 + 5]
        assert list(moved.vaddr) == [3 * 4096 + 5, 2 * 4096 + 7,
                                     3 * 4096 + 5]
        with pytest.raises(TranslationError):
            usecase2.translated(virtual, page_table({0: 3}))

    def test_translations_die_with_their_virtual_stream(self, memo):
        import gc
        import weakref

        workload = BY_NAME["sc"]
        trace, _ = physical_stream(workload, "randomized",
                                   usecase2.XMEM_MAPPING, 1_000)
        (virtual,) = memo.values()
        key = (id(virtual.packed.vaddr), 1_000, 4096)
        assert key in usecase2._TRANSLATED
        column = weakref.ref(trace.vaddr)
        del trace, virtual
        memo.clear()
        gc.collect()
        assert column() is None
        assert key not in usecase2._TRANSLATED

    def test_store_keeps_its_cap_per_stream(self):
        virtual = PackedTrace(array("q", [5, 4096 + 7]),
                              array("q", [0, 0]))
        tables = [page_table({0: k, 1: 20 + k}) for k in range(4)]
        traces = [usecase2.translated(virtual, t) for t in tables]
        key = (id(virtual.vaddr), 2, 4096)
        entries = usecase2._TRANSLATED[key][2]
        assert len(entries) == usecase2._TRANSLATIONS_PER_STREAM
        keep = traces[-usecase2._TRANSLATIONS_PER_STREAM:]
        assert [t for _, t in entries] == keep
        for table, trace in zip(tables[-len(keep):], keep):
            assert usecase2.translated(virtual, table) is trace
        assert usecase2.translated(virtual, tables[0]) is not traces[0]

    def test_checked_reuse_catches_a_corrupted_translation(self,
                                                           monkeypatch):
        virtual = PackedTrace(array("q", [5, 4096 + 7, 9]),
                              array("q", [0, 0, 0]))
        table = page_table({0: 3, 1: 9})
        trace = usecase2.translated(virtual, table)
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert usecase2.translated(virtual, table) is trace
        trace.vaddr[1] += 64
        with pytest.raises(ConfigurationError, match="stored translation"):
            usecase2.translated(virtual, table)
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert usecase2.translated(virtual, table) is trace

    def test_placement_operations_twice_equal_fresh_runs(self, memo,
                                                         monkeypatch):
        """The six (model, system) runs of a Figure 7/8 pair, in a
        shuffled order, twice in one process: every run -- replayed
        translation, replayed front-end -- snapshots as a run on an
        emptied memo does."""
        import random

        ops = [(name, system) for name in ("lbm", "mcf")
               for system in usecase2.SYSTEMS]
        random.Random(0).shuffle(ops)
        models = {name: dataclasses.replace(BY_NAME[name], accesses=2_000)
                  for name in ("lbm", "mcf")}

        def snapshot(name, system):
            return run_system(models[name], system,
                              mapping=usecase2.XMEM_MAPPING,
                              collect=True).stats

        from repro.cpu import vector_engine

        computed = []
        real = vector_engine._record

        def spy(*args):
            computed.append(id(args[4].vaddr))
            return real(*args)

        with monkeypatch.context() as mp:
            mp.setattr(vector_engine, "_record", spy)
            shared = [snapshot(*op) for op in ops + ops]
        # One front-end per (model, page map): 4 of the 12 runs.
        assert len(computed) == len(set(computed)) == 4
        for op, got in zip(ops + ops, shared):
            monkeypatch.setattr(runner, "_MEMO", {})
            assert got == snapshot(*op), op


class TestMappingProbes:
    def test_probes_match_separate_runs(self, memo):
        """The probes share one physical stream (and probes 2-4 replay
        the first's front-end); each one's cycles are a separate
        run's, and the pick is the first lowest."""
        workload = BY_NAME["sc"]
        cycles = mapping_probes(workload, 4_000)
        alone = {name: run_system(workload, "baseline", mapping=name,
                                  accesses=4_000).cycles
                 for name in BASELINE_MAPPING_CANDIDATES}
        assert cycles == alone
        # scheme5 and minimalist_open tie on sc; the first one wins.
        assert cycles["scheme5"] == cycles["minimalist_open"]
        assert pick_baseline_mapping(workload, 4_000) == "scheme5"
