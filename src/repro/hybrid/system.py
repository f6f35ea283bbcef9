"""The hybrid DRAM + NVM memory system.

The physical address space is split: frames below ``fast_bytes`` live
in DRAM (fast, symmetric), frames above in NVM (slower reads, much
slower writes).  *Where a data structure's pages land* is the whole
game -- which is exactly what the Table 1 row-8 use case steers with
atom semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.dram.mapping import DramGeometry
from repro.dram.system import DramSystem
from repro.dram.timing import DramTiming, ddr3_1066
from repro.hybrid.nvm import NvmDevice, NvmTiming, pcm_like


@dataclass
class HybridStats:
    """Traffic split between the two tiers."""

    fast_accesses: int = 0
    slow_accesses: int = 0

    @property
    def slow_share(self) -> float:
        """Fraction of traffic served by the NVM tier."""
        total = self.fast_accesses + self.slow_accesses
        return self.slow_accesses / total if total else 0.0


class HybridMemorySystem:
    """Route accesses by physical address to DRAM or NVM."""

    def __init__(
        self,
        fast_bytes: int,
        slow_bytes: int,
        dram_timing: Optional[DramTiming] = None,
        nvm_timing: Optional[NvmTiming] = None,
        mapping: str = "scheme2",
    ) -> None:
        if fast_bytes <= 0 or slow_bytes <= 0:
            raise ConfigurationError("both tiers need capacity")
        self.fast_bytes = fast_bytes
        self.slow_bytes = slow_bytes
        self.dram = DramSystem(
            geometry=DramGeometry(capacity_bytes=fast_bytes),
            timing=dram_timing or ddr3_1066(),
            mapping=mapping,
        )
        self.nvm = NvmDevice(nvm_timing or pcm_like())
        self.stats = HybridStats()

    @property
    def total_bytes(self) -> int:
        """Combined capacity of both tiers."""
        return self.fast_bytes + self.slow_bytes

    def is_fast(self, paddr: int) -> bool:
        """Whether an address lives in the DRAM tier."""
        return paddr < self.fast_bytes

    def access(self, paddr: int, now: float,
               is_write: bool = False) -> float:
        """Service a request at whichever tier owns the address."""
        if not 0 <= paddr < self.total_bytes:
            raise ConfigurationError(
                f"address {paddr:#x} outside hybrid space"
            )
        if self.is_fast(paddr):
            self.stats.fast_accesses += 1
            return self.dram.access_completes(paddr, now, is_write)
        self.stats.slow_accesses += 1
        return self.nvm.access(paddr - self.fast_bytes, now, is_write)

    @property
    def avg_read_latency(self) -> float:
        """Capacity-weighted mean read latency across tiers."""
        d, n = self.dram.stats, self.nvm.stats
        reads = d.reads + n.reads
        if not reads:
            return 0.0
        return (d.read_latency_sum + n.read_latency_sum) / reads

    @property
    def avg_write_latency(self) -> float:
        """Mean write latency across tiers."""
        d, n = self.dram.stats, self.nvm.stats
        writes = d.writes + n.writes
        if not writes:
            return 0.0
        return (d.write_latency_sum + n.write_latency_sum) / writes
