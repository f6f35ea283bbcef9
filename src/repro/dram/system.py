"""The DRAM system: banks + channels + timing + address mapping.

A trace-driven, cycle-approximate model.  Each access:

1. decomposes the physical address through the configured mapping
   scheme (:mod:`repro.dram.mapping`);
2. waits for its bank (serialization within a bank = limited MLP);
3. pays the row-buffer outcome latency (hit / closed / conflict);
4. waits for, then occupies, the channel data bus for one burst
   (serialization on the bus = finite bandwidth).

:meth:`DramSystem.access_completes` is the one place these steps are
computed: both engines' demand, prefetch and writeback traffic, the
memory system's write drain, the FR-FCFS scheduler and the hybrid
memory's DRAM tier all call it (:meth:`DramSystem.access` wraps it to
report the outcome).  It stays a method, so a span on it sees every
DRAM access.

The same model serves reads and writes; read latency is what sits on
the critical path (Section 6.4), so reads and writes are accounted
separately for the Figure 8 experiment.

``perfect_rbl=True`` builds the paper's *Ideal* comparison point: every
access behaves as a row hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.stats import Histogram
from repro.dram.bank import Bank, BankStats, RowOutcome
from repro.dram.mapping import (
    AddressMapping,
    DramAddress,
    DramGeometry,
    make_mapping,
)
from repro.dram.timing import DramTiming, ddr3_1066


@dataclass
class DramStats:
    """System-wide counters and latency accumulators."""

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


class DramSystem:
    """Banks, channels, and the access path."""

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        timing: Optional[DramTiming] = None,
        mapping: str = "scheme2",
        perfect_rbl: bool = False,
    ) -> None:
        self.geometry = geometry or DramGeometry()
        self.timing = timing or ddr3_1066()
        self.mapping: AddressMapping = make_mapping(mapping, self.geometry)
        self.perfect_rbl = perfect_rbl
        self._banks: Dict[Tuple[int, int, int], Bank] = {}
        self._channel_free: List[float] = [0.0] * self.geometry.channels
        #: paddr -> (DramAddress, Bank) memo.  The mapping is a pure
        #: function of the address and the bank dict only grows, so the
        #: pair can be cached; traces revisit a small working set of
        #: lines, making this the dominant saving of the access path.
        self._decomposed: Dict[int, Tuple[DramAddress, Bank]] = {}
        self.stats = DramStats()

    def bank(self, key: Tuple[int, int, int]) -> Bank:
        """The bank object for a (channel, rank, bank) triple."""
        b = self._banks.get(key)
        if b is None:
            b = self._banks[key] = Bank()
        return b

    def _addr_bank(self, paddr: int) -> Tuple[DramAddress, Bank]:
        ent = self._decomposed.get(paddr)
        if ent is None:
            addr = self.mapping.decompose(paddr)
            ent = (addr, self.bank(addr.bank_key))
            if len(self._decomposed) >= 1 << 20:
                self._decomposed.clear()
            self._decomposed[paddr] = ent
        return ent

    def decomposed(self, paddr: int) -> DramAddress:
        """Memoized :meth:`AddressMapping.decompose` for this system."""
        return self._addr_bank(paddr)[0]

    def access(self, paddr: int, now: float,
               is_write: bool = False) -> DramResult:
        """:meth:`access_completes`, reported as a :class:`DramResult`
        whose outcome is the one the access recorded."""
        addr, bank = self._addr_bank(paddr)
        bstats = bank.stats
        hits, closed = bstats.row_hits, bstats.row_closed
        done = self.access_completes(paddr, now, is_write)
        if bstats.row_hits != hits:
            outcome = RowOutcome.HIT
        elif bstats.row_closed != closed:
            outcome = RowOutcome.CLOSED
        else:
            outcome = RowOutcome.CONFLICT
        return DramResult(latency=done - now, completes_at=done,
                          outcome=outcome, address=addr)

    def access_completes(self, paddr: int, now: float,
                         is_write: bool = False) -> float:
        """Service one request arriving at time ``now``; returns when
        its data burst completes.

        The one computation of a DRAM access, for every caller: the
        bank wait, the row outcome (classified once; ``perfect_rbl``
        makes every access a hit), the bank's busy horizon, the channel
        burst, and the system, bank and latency-histogram counters.
        Consecutive CAS commands to an open row pipeline at burst
        intervals (tCCD), so the bank accepts its next command one
        burst after the access's row overhead: only activates and
        precharges serialize at full latency.
        """
        ent = self._decomposed.get(paddr)
        addr, bank = ent if ent is not None else self._addr_bank(paddr)
        timing = self.timing
        stats = self.stats
        bstats = bank.stats
        busy = bank.busy_until
        start = now if now > busy else busy
        row = addr.row
        open_row = bank.open_row
        bstats.accesses += 1
        if self.perfect_rbl or open_row == row:
            stats.row_hits += 1
            bstats.row_hits += 1
            overhead = 0.0
        elif open_row is None:
            stats.row_closed += 1
            bstats.row_closed += 1
            overhead = timing.t_rcd
        else:
            stats.row_conflicts += 1
            bstats.row_conflicts += 1
            overhead = timing.t_rp + timing.t_rcd
        bank.open_row = row
        bank.busy_until = start + overhead + timing.t_burst
        data_ready = start + overhead + timing.t_cl
        channel_free = self._channel_free
        channel = addr.channel
        free_at = channel_free[channel]
        done = (data_ready if data_ready > free_at else free_at) \
            + timing.t_burst
        channel_free[channel] = done
        latency = done - now
        if is_write:
            stats.writes += 1
            stats.write_latency_sum += latency
            stats.write_latency_hist.record(latency)
        else:
            stats.reads += 1
            stats.read_latency_sum += latency
            stats.read_latency_hist.record(latency)
        return done

    # -- Introspection ------------------------------------------------------

    def stat_groups(self):
        """StatGroup protocol: the system counters plus a lazily
        aggregated per-bank view (bank-level parallelism)."""
        yield "dram", self.stats
        yield "dram.banks", self.bank_summary

    def bank_summary(self) -> Dict[str, float]:
        """Counters summed across banks, plus how many were touched.

        ``banks_touched`` is the run's bank-level parallelism; the
        summed row counters cross-check the system totals.
        """
        agg = BankStats()
        touched = 0
        for bank in self._banks.values():
            if bank.stats.accesses:
                touched += 1
            agg.add(bank.stats)
        return {
            "banks": len(self._banks),
            "banks_touched": touched,
            "accesses": agg.accesses,
            "row_hits": agg.row_hits,
            "row_closed": agg.row_closed,
            "row_conflicts": agg.row_conflicts,
            "row_hit_rate": agg.row_hit_rate,
        }

    def bank_row_hit_rates(self) -> Dict[Tuple[int, int, int], float]:
        """Per-bank RBL, for placement diagnostics."""
        return {key: b.stats.row_hit_rate for key, b in self._banks.items()}

    def banks_touched(self) -> int:
        """Number of banks that serviced at least one request (MLP)."""
        return sum(1 for b in self._banks.values() if b.stats.accesses)

    def reset_time(self) -> None:
        """Zero the busy horizons (new measurement interval)."""
        for b in self._banks.values():
            b.busy_until = 0.0
        self._channel_free = [0.0] * self.geometry.channels
