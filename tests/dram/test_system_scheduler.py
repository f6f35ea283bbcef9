"""Tests for the DRAM system and FR-FCFS scheduler."""

import pytest

from repro.dram.bank import RowOutcome
from repro.dram.mapping import DramGeometry
from repro.dram.scheduler import FRFCFSScheduler, Request
from repro.dram.system import DramSystem
from repro.dram.timing import ddr3_1066

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
        stats = d.bank(r.address.bank_key).stats
        assert stats.row_hits == 1
        assert stats.row_closed == 1

    def test_stats(self):
        d = small_system()
        d.access(self.row(d, 1), 0.0)
        d.access(self.row(d, 1), 0.0)
        r = d.access(self.row(d, 2), 0.0)
        stats = d.bank(r.address.bank_key).stats
        assert stats.accesses == 3
        assert stats.row_hit_rate == pytest.approx(1 / 3)


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
