"""The reference models agree with the optimized ones by construction.

These are directed unit tests of the oracles themselves -- the fuzz
lanes (:mod:`repro.testing.fuzz`) add randomized coverage on top.
"""

import dataclasses
import random

from repro.cpu import vector_engine
from repro.cpu.engine import TraceEngine
from repro.cpu.trace import MemAccess, PackedTrace, TraceBuilder
from repro.cpu.vector_engine import fold_ceiling
from repro.dram.system import DramSystem
from repro.mem.cache import Cache
from repro.sim import corun
from repro.sim.config import CpuConfig, scaled_config
from repro.sim.corun import CorunSystem
from repro.testing.generators import GenConfig, generate_lines, generate_trace
from repro.testing.oracles import (
    ReferenceCache,
    ReferenceCorun,
    ReferenceDram,
    ReferenceEngine,
    ToyMemory,
    with_reference_engine,
)


class TestReferenceCacheVsCache:
    def drive(self, seed, sets=4, ways=4, quota=0.75, ops=600):
        rng = random.Random(seed)
        cache = Cache("T", sets * ways * 64, ways, pin_quota=quota)
        ref = ReferenceCache(sets, ways, pin_quota=quota)
        addrs = generate_lines(GenConfig(seed=seed, region_bytes=1 << 12),
                               count=ops)
        for addr in addrs:
            roll = rng.random()
            if roll < 0.6:
                is_write = rng.random() < 0.3
                assert (cache.access(addr, is_write).hit
                        == ref.access(addr, is_write))
            elif roll < 0.9:
                dirty = rng.random() < 0.4
                pin = rng.random() < 0.2
                wb_c = cache.fill(addr, dirty=dirty, pinned=pin)
                wb_r = ref.fill(addr, dirty=dirty, pinned=pin)
                assert wb_c == wb_r
            else:
                assert cache.unpin_all() == ref.unpin_all()
        return cache, ref

    def test_counters_and_state_match(self):
        for seed in range(6):
            cache, ref = self.drive(seed)
            assert cache.stats.evictions == ref.evictions
            assert cache.stats.writebacks == ref.writebacks
            assert cache.stats.pin_refusals == ref.pin_refusals
            assert cache.pinned_lines == ref.pinned_lines()
            assert cache.resident_lines == len(ref.resident_set())
            for line in ref.resident_set():
                assert cache.probe(line)

    def test_full_quota_never_deadlocks(self):
        cache, ref = self.drive(99, ways=2, quota=1.0, ops=400)
        assert cache.stats.evictions == ref.evictions

    def test_resident_fill_keeps_recency(self):
        """A flag-merging fill must not promote: the victim order is
        decided by demand accesses only (both models agree)."""
        ref = ReferenceCache(1, 2)
        ref.fill(0)          # tag 0 (LRU after next fill)
        ref.fill(64)         # tag 1
        ref.fill(0, dirty=True)   # resident: merge, no promotion
        ref.fill(128)        # evicts tag 0, the still-oldest line
        assert ref.resident_set() == {64, 128}
        assert ref.writebacks == 1


class TestReferenceEngineVsTraceEngine:
    def build_trace(self, seed, length=300):
        events, packed = generate_trace(GenConfig(seed=seed, length=length))
        return events, packed

    def machines(self, count, window, issue_width=4):
        """``count`` identical baseline machines, the first one with a
        :class:`ReferenceEngine`."""
        from repro.sim.system import build_baseline

        cfg = dataclasses.replace(scaled_config(32), cpu=CpuConfig(
            issue_width=issue_width, window=window))
        handles = [build_baseline(cfg) for _ in range(count)]
        with_reference_engine(handles[0])
        return handles

    def test_bit_identical_stats(self):
        for seed in range(5):
            events, packed = self.build_trace(seed)
            ref, opt = self.machines(2, window=4)
            a = opt.run(list(events))
            b = ref.engine.run(list(events))
            assert a == b
            assert opt.stats_snapshot() == ref.stats_snapshot()

    def test_packed_three_way(self):
        events, packed = self.build_trace(21)
        ref, on_events, on_packed = self.machines(3, window=2)
        a = on_events.run(list(events))
        b = on_packed.run(packed)
        c = ref.engine.run(packed)
        assert a == b == c

    def test_mshr_counters_match(self):
        """Reservations and full stalls follow the MSHR file's rule."""
        for seed in range(4):
            events, _ = self.build_trace(seed)
            ref, opt = self.machines(2, window=1)
            opt.run(events)
            ref.engine.run(events)
            assert opt.engine.mshr.stats == ref.engine.mshr_stats
            assert ref.engine.mshr_stats.full_stalls > 0

    def test_swapped_into_a_machine_snapshot_matches(self):
        """A full machine with the reference engine snapshots the same
        tree -- engine, MSHR and every memory-side counter -- as its
        twin on the packed tier."""
        from repro.sim.system import build_xmem
        from repro.testing.generators import setup_atoms

        gen = GenConfig(seed=4, length=400, atoms=3, churn=0.3)
        events, packed = generate_trace(gen)
        machines = []
        for _ in range(2):
            handle = build_xmem(scaled_config(32))
            setup_atoms(handle.xmemlib, gen)
            machines.append(handle)
        ref, opt = machines
        with_reference_engine(ref).engine.run(events)
        opt.run(packed)
        assert ref.stats_snapshot() == opt.stats_snapshot()

    def test_reference_shares_no_production_memory_path(self, monkeypatch):
        """With the split interpreter's front-end, back-end and LLC
        builder unbuildable, the reference engine still runs -- it owns
        its memory path -- and still matches an unpatched twin's
        ``SystemHandle.run`` on an XMem machine (pins, prefetches)."""
        from repro.sim.system import build_xmem
        from repro.testing.generators import setup_atoms

        gen = GenConfig(seed=4, length=400, atoms=3, churn=0.3)
        events, packed = generate_trace(gen)
        ref, opt = (build_xmem(scaled_config(32)) for _ in range(2))
        for handle in (ref, opt):
            setup_atoms(handle.xmemlib, gen)

        def unbuildable(*args):
            raise AssertionError("production memory path used")

        with monkeypatch.context() as patch:
            for name in ("_front_end", "_back_end", "_llc_ops"):
                patch.setattr(vector_engine, name, unbuildable)
            stats_ref = with_reference_engine(ref).engine.run(events)
        assert stats_ref == opt.run(packed)
        assert ref.stats_snapshot() == opt.stats_snapshot()

    def test_window_one_serializes(self):
        events, _ = self.build_trace(8)
        one = ReferenceEngine(ToyMemory(8, miss_rate=1.0), window=1)
        wide = ReferenceEngine(ToyMemory(8, miss_rate=1.0), window=64)
        assert one.run(list(events)).cycles >= wide.run(list(events)).cycles


class TestReferenceDramVsDramSystem:
    def test_fifo_identical(self):
        for mapping in ("scheme1", "scheme2", "xmem_interleaved"):
            opt = DramSystem(mapping=mapping)
            ref = ReferenceDram(mapping=mapping)
            rng = random.Random(5)
            now = 0.0
            for _ in range(400):
                paddr = rng.randrange(1 << 26) & ~63
                is_write = rng.random() < 0.3
                res = opt.access(paddr, now, is_write)
                outcome, latency, done = ref.access(paddr, now, is_write)
                assert res.outcome.value == outcome
                assert res.latency == latency
                assert res.completes_at == done
                now += rng.randrange(0, 40) / 4.0
            assert opt.stats.reads == ref.reads
            assert opt.stats.writes == ref.writes
            assert opt.stats.read_latency_sum == ref.read_latency_sum
            assert opt.stats.row_hits == ref.row_hits
            assert opt.stats.row_conflicts == ref.row_conflicts


class TestToyMemory:
    def test_same_seed_same_stream(self):
        a, b = ToyMemory(4), ToyMemory(4)
        for i in range(200):
            assert a.access(i * 64, False, float(i)) \
                == b.access(i * 64, False, float(i))

    def test_misses_exceed_pipeline_threshold(self):
        mem = ToyMemory(1, miss_rate=1.0)
        completes, to_memory = mem.access(0, False, 0.0)
        assert to_memory
        assert completes > TraceEngine.PIPELINED_LATENCY


class TestReferenceCorunVsCorunSystem:
    def _system(self, issue_width=4):
        cfg = dataclasses.replace(scaled_config(16),
                                  cpu=CpuConfig(issue_width=issue_width))
        return CorunSystem(cfg, 2)

    def test_bit_identical(self):
        """Folded-time (width 4) and per-position-time (width 3) heap
        runs both match the per-event reference."""
        streams = [generate_trace(GenConfig(seed=s, length=300))[0]
                   for s in (1, 2)]
        for width in (3, 4):
            ref_sys, opt_sys = self._system(width), self._system(width)
            ceiling = fold_ceiling(width, opt_sys.dram.timing)
            assert (ceiling > 0) is (width == 4)
            assert ReferenceCorun(ref_sys).run(streams) \
                == opt_sys.run(streams)
            assert ref_sys.stats_snapshot() == opt_sys.stats_snapshot()

    def test_ties_go_to_the_lowest_core(self):
        reference = ReferenceCorun(self._system())
        order = []
        real = reference._access

        def spy(core, addr, is_write):
            order.append(core.index)
            return real(core, addr, is_write)

        reference._access = spy
        stream = [MemAccess(0x1000)]
        reference.run([stream, stream])
        assert order == [0, 1]

    def test_reference_shares_no_production_memory_path(self, monkeypatch):
        """With the shared front-end, the shared LLC builder and the
        yield-point body unbuildable, the reference still runs -- it
        owns its memory path -- and still matches an unpatched twin's
        ``CorunSystem.run``."""
        streams = [generate_trace(GenConfig(seed=s, length=300))[0]
                   for s in (3, 4)]
        for width in (3, 4):
            ref_sys, opt_sys = self._system(width), self._system(width)

            def unbuildable(*args):
                raise AssertionError("production memory path used")

            with monkeypatch.context() as patch:
                patch.setattr(CorunSystem, "_yield_body", unbuildable)
                patch.setattr(vector_engine, "_front_end", unbuildable)
                patch.setattr(corun, "recorded_front_end", unbuildable)
                patch.setattr(vector_engine, "_llc_ops", unbuildable)
                patch.setattr(corun, "_llc_ops", unbuildable)
                stats_ref = ReferenceCorun(ref_sys).run(streams)
            assert stats_ref == opt_sys.run(streams)
            assert ref_sys.stats_snapshot() == opt_sys.stats_snapshot()
