"""The DRAM system: banks + channels + timing + address mapping.

A trace-driven, cycle-approximate model.  Each access:

1. locates the physical address's bank and row through the configured
   mapping scheme's bit layout (:mod:`repro.dram.mapping`);
2. waits for its bank (serialization within a bank = limited MLP);
3. pays the row-buffer outcome latency (hit / closed / conflict);
4. waits for, then occupies, the channel data bus for one burst
   (serialization on the bus = finite bandwidth).

:meth:`DramSystem.access_completes` is the one place these steps are
computed: both engines' demand, prefetch and writeback traffic, the
memory system's write drain, the FR-FCFS scheduler and the hybrid
memory's DRAM tier all call it (:meth:`DramSystem.access` wraps it to
report the outcome).  It stays a method, so a span on it sees every
DRAM access; the work is a closure compiled from the mapping's
:class:`~repro.dram.mapping.BitLayout` over flat per-bank lists.

The access path keeps only what the next access needs -- the bank
state and per-bank row-outcome counters -- and appends each latency to
a per-direction ``array('d')`` log (8 bytes per access).  The system
statistics (:attr:`DramSystem.stats`) fold those logs in when they are
read: counts, latency sums and histogram buckets come out bit for bit
as if every access had updated them.

The same model serves reads and writes; read latency is what sits on
the critical path (Section 6.4), so reads and writes are accounted
separately for the Figure 8 experiment.

``perfect_rbl=True`` builds the paper's *Ideal* comparison point: every
access behaves as a row hit.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.stats import Histogram
from repro.dram.mapping import (
    AddressMapping,
    BitLayout,
    DramAddress,
    DramGeometry,
    make_mapping,
)
from repro.dram.timing import DramTiming, ddr3_1066


class RowOutcome(enum.Enum):
    """One access against its bank's row buffer (open-row policy)."""

    HIT = "hit"
    CLOSED = "closed"
    CONFLICT = "conflict"


@dataclass
class DramStats:
    """System-wide counters and latency accumulators.

    :attr:`DramSystem.stats` keeps one of these up to date: it folds
    the access path's latency logs in whenever it is read.
    """

    reads: int = 0
    writes: int = 0
    read_latency_sum: float = 0.0
    write_latency_sum: float = 0.0
    row_hits: int = 0
    row_closed: int = 0
    row_conflicts: int = 0
    #: Latency distributions (power-of-two buckets, CPU cycles).  The
    #: averages above give Figure 8; the histograms expose the tail.
    read_latency_hist: Histogram = field(default_factory=Histogram)
    write_latency_hist: Histogram = field(default_factory=Histogram)

    @property
    def accesses(self) -> int:
        """Total requests serviced."""
        return self.reads + self.writes

    @property
    def avg_read_latency(self) -> float:
        """Mean read latency in CPU cycles (the Figure 8 metric)."""
        return self.read_latency_sum / self.reads if self.reads else 0.0

    @property
    def avg_write_latency(self) -> float:
        """Mean write latency in CPU cycles."""
        return self.write_latency_sum / self.writes if self.writes else 0.0

    @property
    def row_hit_rate(self) -> float:
        """System row-buffer hit rate (RBL)."""
        total = self.row_hits + self.row_closed + self.row_conflicts
        return self.row_hits / total if total else 0.0


@dataclass(frozen=True)
class DramResult:
    """Outcome of one DRAM access."""

    latency: float
    completes_at: float
    outcome: RowOutcome
    address: DramAddress


def check_compiled(dram: "DramSystem", owner: str) -> None:
    """Refuse, naming ``owner``, a DRAM system whose mapping is not the
    bit layout its access path was compiled from: one swapped in after
    the system was built, or one with no field order at all."""
    if getattr(dram.mapping, "fields", None) != dram.fields:
        raise ConfigurationError(
            f"{owner}: DRAM mapping {dram.mapping.name!r} is not the "
            f"field-order layout the DRAM system was compiled from")


class DramSystem:
    """Banks, channels, and the access path."""

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        timing: Optional[DramTiming] = None,
        mapping: str = "scheme2",
        perfect_rbl: bool = False,
    ) -> None:
        self.geometry = g = geometry or DramGeometry()
        self.timing = timing or ddr3_1066()
        self.mapping: AddressMapping = make_mapping(mapping, g)
        #: The bit layout the access path is compiled from.
        self.fields: BitLayout = self.mapping.fields
        #: ``perfect_rbl``, in a cell the access path reads: the path
        #: holds no reference back to the system, which would make
        #: every DRAM a reference cycle.
        self._perfect = [perfect_rbl]
        n = g.total_banks
        #: Per-bank state, indexed by the flat bank id: open row (-1
        #: when closed), busy horizon and row-outcome counters.
        self._open_row, self._busy_until = [-1] * n, [0.0] * n
        self._bank_hits, self._bank_closed = [0] * n, [0] * n
        self._bank_conflicts = [0] * n
        self._channel_free = [0.0] * g.channels
        #: Latencies not yet folded into :attr:`stats`, in access order.
        self._read_log, self._write_log = array("d"), array("d")
        self._stats = DramStats()
        self.locate, self.order_key, self._access = self._compile()

    @property
    def perfect_rbl(self) -> bool:
        """Whether every access is a row hit (settable after build)."""
        return self._perfect[0]

    @perfect_rbl.setter
    def perfect_rbl(self, value: bool) -> None:
        self._perfect[0] = value

    def _compile(self) -> Tuple[Callable, Callable, Callable]:
        """Closures over the bit layout: ``locate(paddr) -> (bank id,
        row)``; the write-drain key ``order_key(paddr)``, the bank id,
        row and column packed into one int so that it orders exactly as
        :class:`DramAddress` does; and :meth:`access_completes`'s body.
        """
        line_shift, (ch_s, ch_m), (rk_s, rk_m), (bk_s, bk_m), \
            (rw_s, rw_m), (lo_s, lo_m), (hi_s, hi_m), bank_xor = self.fields
        rk_bits, bk_bits = rk_m.bit_length(), bk_m.bit_length()
        rw_bits, lo_bits = rw_m.bit_length(), lo_m.bit_length()
        col_bits = lo_bits + hi_m.bit_length()
        chan_shift = rk_bits + bk_bits

        def locate(paddr: int) -> Tuple[int, int]:
            line = paddr >> line_shift
            row = (line >> rw_s) & rw_m
            return ((((line >> ch_s) & ch_m) << rk_bits
                     | (line >> rk_s) & rk_m) << bk_bits
                    | (line >> bk_s) & bk_m) ^ (row & bank_xor), row

        def order_key(paddr: int) -> int:
            bank, row = locate(paddr)
            line = paddr >> line_shift
            return ((bank << rw_bits | row) << col_bits
                    | ((line >> hi_s) & hi_m) << lo_bits
                    | (line >> lo_s) & lo_m)

        t = self.timing
        t_burst, t_cl, t_rcd = t.t_burst, t.t_cl, t.t_rcd
        t_rp_rcd = t.t_rp + t.t_rcd
        open_row, busy_until = self._open_row, self._busy_until
        bank_hits, bank_closed = self._bank_hits, self._bank_closed
        bank_conflicts = self._bank_conflicts
        channel_free, perfect = self._channel_free, self._perfect
        read_log, write_log = self._read_log.append, self._write_log.append

        def access(paddr: int, now: float, is_write: bool) -> float:
            bank, row = locate(paddr)
            busy = busy_until[bank]
            start = now if now > busy else busy
            was = open_row[bank]
            if was == row or perfect[0]:
                bank_hits[bank] += 1
                overhead = 0.0
            elif was < 0:
                bank_closed[bank] += 1
                overhead = t_rcd
            else:
                bank_conflicts[bank] += 1
                overhead = t_rp_rcd
            open_row[bank] = row
            busy_until[bank] = start + overhead + t_burst
            data_ready = start + overhead + t_cl
            channel = bank >> chan_shift
            free_at = channel_free[channel]
            done = (data_ready if data_ready > free_at else free_at) \
                + t_burst
            channel_free[channel] = done
            (write_log if is_write else read_log)(done - now)
            return done

        return locate, order_key, access

    def access(self, paddr: int, now: float,
               is_write: bool = False) -> DramResult:
        """:meth:`access_completes`, reported as a :class:`DramResult`
        whose outcome is the one the access recorded."""
        bank = self.locate(paddr)[0]
        hits, closed = self._bank_hits[bank], self._bank_closed[bank]
        done = self.access_completes(paddr, now, is_write)
        outcome = (RowOutcome.HIT if self._bank_hits[bank] != hits
                   else RowOutcome.CLOSED if self._bank_closed[bank] != closed
                   else RowOutcome.CONFLICT)
        return DramResult(latency=done - now, completes_at=done,
                          outcome=outcome,
                          address=self.mapping.decompose(paddr))

    def access_completes(self, paddr: int, now: float,
                         is_write: bool = False) -> float:
        """Service one request arriving at time ``now``; returns when
        its data burst completes.

        The one computation of a DRAM access, for every caller: the
        bank wait, the row outcome (classified once; ``perfect_rbl``
        makes every access a hit), the bank's busy horizon, the channel
        burst, and the bank's row-outcome counter.  The latency goes
        to the direction's log; :attr:`stats` folds it into the system
        counters and histograms when read.  Consecutive CAS commands to
        an open row pipeline at burst intervals (tCCD), so the bank
        accepts its next command one burst after the access's row
        overhead: only activates and precharges serialize at full
        latency.
        """
        return self._access(paddr, now, is_write)

    def row_ready(self, paddr: int, t: float) -> bool:
        """Whether an access to ``paddr`` at time ``t`` would hit the
        open row of an idle bank (the FR-FCFS "first ready" test)."""
        bank, row = self.locate(paddr)
        return self._open_row[bank] == row and self._busy_until[bank] <= t

    # -- Introspection ------------------------------------------------------

    @property
    def stats(self) -> DramStats:
        """The system counters, with every access so far folded in."""
        return self._fold()

    def _fold(self) -> DramStats:
        """Fold the pending latency logs into the one :class:`DramStats`
        and return it: counts, sums and buckets from the logs, row
        outcomes from the per-bank counters."""
        s = self._stats
        for log, hist in ((self._read_log, s.read_latency_hist),
                          (self._write_log, s.write_latency_hist)):
            if log:
                hist.record_all(log)
                del log[:]
        s.reads, s.read_latency_sum = (s.read_latency_hist.count,
                                       s.read_latency_hist.total)
        s.writes, s.write_latency_sum = (s.write_latency_hist.count,
                                         s.write_latency_hist.total)
        s.row_hits = sum(self._bank_hits)
        s.row_closed = sum(self._bank_closed)
        s.row_conflicts = sum(self._bank_conflicts)
        return s

    def stat_groups(self):
        """StatGroup protocol: the system counters, folded whenever the
        group is read, plus a lazily aggregated per-bank view
        (bank-level parallelism)."""
        yield "dram", self._fold
        yield "dram.banks", self.bank_summary

    def bank_summary(self) -> Dict[str, float]:
        """Counters summed across banks, plus how many were touched.

        ``banks_touched`` (and ``banks``) is the run's bank-level
        parallelism; the summed row counters cross-check the system.
        """
        touched = self.banks_touched()
        hits, closed = sum(self._bank_hits), sum(self._bank_closed)
        conflicts = sum(self._bank_conflicts)
        accesses = hits + closed + conflicts
        return {
            "banks": touched,
            "banks_touched": touched,
            "accesses": accesses,
            "row_hits": hits,
            "row_closed": closed,
            "row_conflicts": conflicts,
            "row_hit_rate": hits / accesses if accesses else 0.0,
        }

    def bank_row_hit_rates(self) -> Dict[Tuple[int, int, int], float]:
        """Per-bank RBL of the touched banks, keyed by
        ``(channel, rank, bank)``, for placement diagnostics."""
        ranks = self.geometry.ranks_per_channel
        banks = self.geometry.banks_per_rank
        return {(i // banks // ranks, i // banks % ranks, i % banks):
                self._bank_hits[i] / n
                for i, n in enumerate(self._bank_accesses()) if n}

    def banks_touched(self) -> int:
        """Number of banks that serviced at least one request (MLP)."""
        return sum(1 for n in self._bank_accesses() if n)

    def _bank_accesses(self):
        """Requests each bank serviced: the sum of its row outcomes."""
        return map(sum, zip(self._bank_hits, self._bank_closed,
                            self._bank_conflicts))

    def reset_time(self) -> None:
        """Zero the busy horizons (new measurement interval)."""
        self._busy_until[:] = [0.0] * len(self._busy_until)
        self._channel_free[:] = [0.0] * len(self._channel_free)
