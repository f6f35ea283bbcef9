"""Tests for the DRAM system and FR-FCFS scheduler."""

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.dram.mapping import (
    ALL_SCHEMES,
    AddressMapping,
    DramGeometry,
    make_mapping,
)
from repro.dram.scheduler import FRFCFSScheduler, Request
from repro.dram.system import DramSystem, RowOutcome, check_compiled
from repro.dram.timing import ddr3_1066
from repro.testing.oracles import ReferenceDram, reference_decompose

T = ddr3_1066()


def small_system(**kw):
    kw.setdefault("geometry", DramGeometry(capacity_bytes=1 << 26))
    return DramSystem(**kw)


class TestBank:
    """One bank's row buffer, through :meth:`DramSystem.access`: an
    access's data is ready one channel burst before it completes."""

    @staticmethod
    def row(d, k):
        """An address in bank 0 of channel 0; each ``k`` its own row."""
        g = d.geometry
        return k * g.row_bytes * g.banks_per_rank * g.channels

    def test_classification(self):
        d = small_system()
        assert d.access(self.row(d, 5), 0.0).outcome is RowOutcome.CLOSED
        assert d.access(self.row(d, 5), 1000.0).outcome is RowOutcome.HIT
        assert d.access(self.row(d, 6), 2000.0).outcome is \
            RowOutcome.CONFLICT

    def test_latencies(self):
        d = small_system()
        r0 = d.access(self.row(d, 1), 0.0)       # closed
        assert r0.completes_at - T.t_burst == pytest.approx(
            T.t_rcd + T.t_cl)
        r1 = d.access(self.row(d, 1), 100.0)     # hit
        assert r1.completes_at - T.t_burst == pytest.approx(100 + T.t_cl)
        r2 = d.access(self.row(d, 2), 200.0)     # conflict
        assert r2.completes_at - T.t_burst == pytest.approx(
            200 + T.t_rp + T.t_rcd + T.t_cl)

    def test_force_hit(self):
        d = small_system()
        d.access(self.row(d, 1), 0.0)
        d.perfect_rbl = True
        r = d.access(self.row(d, 2), 100.0)
        assert r.completes_at - T.t_burst == pytest.approx(100 + T.t_cl)
        stats = d.bank_summary()
        assert stats["banks_touched"] == 1
        assert stats["row_hits"] == 1
        assert stats["row_closed"] == 1

    def test_stats(self):
        d = small_system()
        d.access(self.row(d, 1), 0.0)
        d.access(self.row(d, 1), 0.0)
        r = d.access(self.row(d, 2), 0.0)
        stats = d.bank_summary()
        assert stats["banks_touched"] == 1
        assert stats["accesses"] == 3
        assert d.bank_row_hit_rates()[r.address.bank_key] == \
            pytest.approx(1 / 3)


class TestDramSystem:
    def test_sequential_same_row_hits(self):
        d = small_system()
        first = d.access(0, 0.0)
        second = d.access(64, first.completes_at)
        assert first.outcome is RowOutcome.CLOSED
        assert second.outcome is RowOutcome.HIT
        assert second.latency < first.latency

    def test_row_conflict_costs_more(self):
        d = small_system()
        g = d.geometry
        r0 = d.access(0, 0.0)
        # Same bank, different row (scheme2: row above bank).
        conflict_addr = g.row_bytes * g.banks_per_rank * g.channels
        assert d.mapping.decompose(conflict_addr).bank_key == \
            r0.address.bank_key
        r1 = d.access(conflict_addr, 1000.0)
        assert r1.outcome is RowOutcome.CONFLICT
        assert r1.latency > r0.latency

    def test_bank_serialization_queues(self):
        d = small_system()
        # Two simultaneous requests to the same bank, different rows.
        g = d.geometry
        conflict_addr = g.row_bytes * g.banks_per_rank * g.channels
        a = d.access(0, 0.0)
        b = d.access(conflict_addr, 0.0)
        assert b.completes_at > a.completes_at
        assert b.latency > b.completes_at - a.completes_at

    def test_bank_parallelism_overlaps(self):
        d = small_system()
        # Simultaneous requests to different banks overlap except for
        # the shared channel burst.
        a = d.access(0, 0.0)
        b = d.access(d.geometry.row_bytes * d.geometry.channels, 0.0)
        assert d.mapping.decompose(0).bank_key != \
            d.mapping.decompose(d.geometry.row_bytes *
                                d.geometry.channels).bank_key
        assert b.completes_at - a.completes_at == pytest.approx(T.t_burst)

    def test_channel_bandwidth_serializes_bursts(self):
        d = small_system()
        g = d.geometry
        # Many banks, same channel, all at time 0.
        results = []
        for b in range(4):
            addr = b * g.row_bytes * g.channels
            results.append(d.access(addr, 0.0))
        times = sorted(r.completes_at for r in results)
        for t0, t1 in zip(times, times[1:]):
            assert t1 - t0 >= T.t_burst - 1e-9

    def test_frees_without_the_cycle_collector(self):
        """The compiled access path holds no reference to its system
        (``perfect_rbl`` lives in a cell the path reads), so dropping
        the last reference frees the DRAM at once, not whenever the
        cyclic collector next runs."""
        import gc
        import weakref

        gc.disable()
        try:
            d = small_system()
            d.perfect_rbl = True
            d.access(0, 0.0)
            ref = weakref.ref(d)
            del d
            assert ref() is None
        finally:
            gc.enable()

    def test_perfect_rbl_settable_both_ways(self):
        d = small_system()
        g = d.geometry
        conflict_addr = g.row_bytes * g.banks_per_rank * g.channels
        d.access(0, 0.0)
        d.perfect_rbl = True
        assert d.perfect_rbl is True
        assert d.access(conflict_addr, 1000.0).outcome is RowOutcome.HIT
        d.perfect_rbl = False
        assert d.access(0, 2000.0).outcome is RowOutcome.CONFLICT

    def test_perfect_rbl_flag(self):
        d = small_system(perfect_rbl=True)
        g = d.geometry
        conflict_addr = g.row_bytes * g.banks_per_rank * g.channels
        d.access(0, 0.0)
        r = d.access(conflict_addr, 1000.0)
        assert r.outcome is RowOutcome.HIT
        assert d.stats.row_hit_rate == 1.0

    def test_read_write_accounted_separately(self):
        d = small_system()
        d.access(0, 0.0, is_write=False)
        d.access(64, 1000.0, is_write=True)
        assert d.stats.reads == 1
        assert d.stats.writes == 1
        assert d.stats.avg_read_latency > 0
        assert d.stats.avg_write_latency > 0

    def test_banks_touched(self):
        d = small_system()
        d.access(0, 0.0)
        d.access(d.geometry.row_bytes * d.geometry.channels, 0.0)
        assert d.banks_touched() == 2

    def test_reset_time_keeps_stats(self):
        d = small_system()
        d.access(0, 0.0)
        d.reset_time()
        assert d.stats.accesses == 1
        r = d.access(64, 0.0)
        assert r.outcome is RowOutcome.HIT  # open row survives reset

    def test_bandwidth_scaling_increases_latency_under_load(self):
        fast = small_system()
        slow = small_system(timing=T.scaled_bandwidth(0.25))
        for i in range(64):
            fast.access(i * 64, 0.0)
            slow.access(i * 64, 0.0)
        assert slow.stats.avg_read_latency > fast.stats.avg_read_latency


class TestFRFCFS:
    def test_row_hit_jumps_queue(self):
        d = small_system()
        g = d.geometry
        sched = FRFCFSScheduler(d)
        same_bank_other_row = g.row_bytes * g.banks_per_rank * g.channels
        # Open row 0 of bank 0 first; then a conflicting request and a
        # row-hit request arrive together -- the younger row hit wins.
        reqs = [
            Request(paddr=0, arrival=0.0, req_id=0),
            Request(paddr=same_bank_other_row, arrival=200.0, req_id=1),
            Request(paddr=128, arrival=200.0, req_id=2),  # row hit
        ]
        completions = sched.service(reqs)
        served_ids = [c.request.req_id for c in completions]
        assert served_ids == [0, 2, 1]
        assert sched.reordered >= 1

    def test_fcfs_when_no_ready_row_hit(self):
        d = small_system()
        sched = FRFCFSScheduler(d)
        g = d.geometry
        reqs = [
            Request(paddr=0, arrival=0.0, req_id=0),
            Request(paddr=g.row_bytes * g.channels, arrival=0.0, req_id=1),
        ]
        completions = sched.service(reqs)
        assert [c.request.req_id for c in completions] == [0, 1]

    def test_all_requests_serviced_once(self):
        d = small_system()
        sched = FRFCFSScheduler(d)
        reqs = [Request(paddr=i * 4096, arrival=float(i), req_id=i)
                for i in range(50)]
        completions = sched.service(reqs)
        assert sorted(c.request.req_id for c in completions) == \
            list(range(50))

    def test_latency_positive(self):
        d = small_system()
        sched = FRFCFSScheduler(d)
        completions = sched.service(
            [Request(paddr=i * 64, arrival=0.0, req_id=i) for i in range(10)]
        )
        assert all(c.latency > 0 for c in completions)


class TestCompiledLayout:
    """The compiled access path, write-drain key and introspection on
    a 4-channel, 2-rank, 16-bank geometry, against the mapping's own
    decomposition and the naive ReferenceDram."""

    GEOMETRY = DramGeometry(channels=4, ranks_per_channel=2,
                            banks_per_rank=16, capacity_bytes=1 << 28)

    @staticmethod
    def lines(seed, count=3000):
        rng = random.Random(seed)
        # Beyond capacity too: aliased lines must tie with their twins.
        return [rng.randrange(1 << 30) // 64 * 64 for _ in range(count)]

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_order_key_orders_as_decompose(self, scheme):
        d = DramSystem(geometry=self.GEOMETRY, mapping=scheme)
        lines = self.lines(1)
        lines += [a + self.GEOMETRY.capacity_bytes for a in lines[:200]]
        assert sorted(lines, key=d.order_key) == \
            sorted(lines, key=d.mapping.decompose)
        keys = {d.order_key(a): d.mapping.decompose(a) for a in lines}
        assert len(keys) == len({d.mapping.decompose(a) for a in lines})

    @pytest.mark.parametrize("scheme", ["scheme2", "scheme5",
                                        "permutation"])
    def test_introspection_matches_reference(self, scheme):
        d = DramSystem(geometry=self.GEOMETRY, mapping=scheme)
        ref = ReferenceDram(geometry=self.GEOMETRY, mapping=scheme)
        rng = random.Random(2)
        hot = self.lines(3, 64)
        per_bank = {}
        now = 0.0

        def run(count):
            nonlocal now
            for _ in range(count):
                now += rng.randrange(0, 40) / 4.0
                paddr = rng.choice(hot)
                is_write = rng.random() < 0.3
                done = d.access_completes(paddr, now, is_write)
                outcome, _, want = ref.access(paddr, now, is_write)
                assert done == want
                key = reference_decompose(ref.mapping, paddr).bank_key
                n, hits = per_bank.get(key, (0, 0))
                per_bank[key] = (n + 1, hits + (outcome == "hit"))

        run(1500)
        d.reset_time()
        for bank in ref.banks.values():
            bank[1] = 0.0
        ref.channel_free = [0.0] * self.GEOMETRY.channels
        now = 0.0
        run(1500)
        summary = d.bank_summary()
        total = ref.reads + ref.writes
        assert summary == {
            "banks": len(ref.banks),
            "banks_touched": len(ref.banks),
            "accesses": total,
            "row_hits": ref.row_hits,
            "row_closed": ref.row_closed,
            "row_conflicts": ref.row_conflicts,
            "row_hit_rate": ref.row_hits / total,
        }
        assert d.banks_touched() == len(ref.banks)
        assert d.bank_row_hit_rates() == {
            key: hits / n for key, (n, hits) in per_bank.items()}

    def test_row_ready(self):
        d = small_system()
        g = d.geometry
        other_row = g.row_bytes * g.banks_per_rank * g.channels
        assert not d.row_ready(0, 0.0)              # bank closed
        done = d.access_completes(0, 0.0)
        assert not d.row_ready(64, 0.0)             # bank busy
        assert d.row_ready(64, done)                # open row, idle
        assert not d.row_ready(other_row, done)     # another row

    def test_swapped_mapping_is_refused(self):
        d = small_system()
        check_compiled(d, "test")
        d.mapping = make_mapping("scheme5", d.geometry)
        with pytest.raises(ConfigurationError, match="test: DRAM mapping"):
            check_compiled(d, "test")
        d.mapping = AddressMapping(d.geometry)
        with pytest.raises(ConfigurationError, match="field-order"):
            check_compiled(d, "test")
