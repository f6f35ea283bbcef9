"""Simulation configurations (Table 3).

``table3_config()`` is the paper's machine: a 3.6 GHz Westmere-like
core with 32 KB L1 / 128 KB L2 / 1 MB-per-core L3 (DRRIP), a 16-stream
multi-stride prefetcher at L3, and DDR3-1066 with 2 channels and 8
banks per rank.

``scaled_config(factor)`` shrinks the caches and DRAM capacity while
preserving every ratio that drives the evaluated phenomena (tile size
vs. cache size, working set vs. cache size, bank count).  Tests and
fast experiments run scaled; benchmarks can run closer to full size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.core.errors import ConfigurationError
from repro.dram.mapping import DramGeometry
from repro.dram.timing import DramTiming, ddr3_1066
from repro.mem.cache import check_geometry
from repro.mem.hierarchy import LevelConfig


@dataclass(frozen=True)
class CpuConfig:
    """Core parameters (Table 3, CPU row)."""

    ghz: float = 3.6
    issue_width: int = 4
    #: Outstanding long-latency accesses the core can overlap -- the
    #: ROB/MSHR-limited window of the timing model.
    window: int = 32


@dataclass(frozen=True)
class PrefetcherConfig:
    """The baseline L3 prefetcher (multi-stride, 16 streams)."""

    enabled: bool = True
    streams: int = 16
    degree: int = 2


@dataclass(frozen=True)
class SimConfig:
    """One complete machine configuration."""

    cpu: CpuConfig = field(default_factory=CpuConfig)
    levels: List[LevelConfig] = field(default_factory=lambda: [
        LevelConfig("L1", 32 * 1024, 8, latency=4, policy="lru"),
        LevelConfig("L2", 128 * 1024, 8, latency=8, policy="drrip"),
        LevelConfig("L3", 1024 * 1024, 16, latency=27, policy="drrip"),
    ])
    line_bytes: int = 64
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    dram_geometry: DramGeometry = field(default_factory=DramGeometry)
    dram_timing: Optional[DramTiming] = None
    dram_mapping: str = "scheme2"
    #: Per-core memory bandwidth scale (1.0 = the Table 3 2.1 GB/s/core
    #: point).  Figure 6 sweeps roughly {1.0, 0.5, 0.25}.
    bandwidth_scale: float = 1.0

    def timing(self) -> DramTiming:
        """The effective DRAM timing (bandwidth scale applied)."""
        base = self.dram_timing or ddr3_1066(self.cpu.ghz)
        if self.bandwidth_scale == 1.0:
            return base
        return base.scaled_bandwidth(self.bandwidth_scale)

    @property
    def llc_bytes(self) -> int:
        """Capacity of the last-level cache."""
        return self.levels[-1].size_bytes

    def with_llc(self, size_bytes: int) -> "SimConfig":
        """A copy with the LLC resized (the Figure 5 portability sweep);
        :meth:`check_geometry` or the machine build refuses a size no
        cache can have."""
        levels = list(self.levels)
        levels[-1] = replace(levels[-1], size_bytes=size_bytes)
        return replace(self, levels=levels)

    def check_geometry(self) -> None:
        """Raise :class:`ConfigurationError` unless every cache level
        can be built, by the check each :class:`~repro.mem.cache.Cache`
        makes -- without building one."""
        for level in self.levels:
            check_geometry(level.name, level.size_bytes, level.ways,
                           self.line_bytes)

    def with_bandwidth(self, scale: float) -> "SimConfig":
        """A copy with scaled per-core DRAM bandwidth (Figure 6)."""
        return replace(self, bandwidth_scale=scale)


def table3_config() -> SimConfig:
    """The paper's evaluation machine (one core's slice)."""
    return SimConfig()


def scaled_config(factor: int = 8,
                  dram_capacity: int = 1 << 26) -> SimConfig:
    """A machine shrunk by ``factor`` for fast simulation.

    Cache sizes divide by ``factor``; associativities, latencies, the
    DRAM organization, and all policies are unchanged, so tile/cache
    and working-set/cache ratios reproduce the paper's regimes at a
    fraction of the trace length.
    """
    if factor <= 0:
        raise ConfigurationError(f"factor must be > 0: {factor}")
    base = table3_config()
    levels = [
        replace(lvl, size_bytes=max(lvl.size_bytes // factor,
                                    lvl.ways * base.line_bytes * 4))
        for lvl in base.levels
    ]
    # Keep set counts power-of-two.
    return replace(
        base,
        levels=levels,
        dram_geometry=DramGeometry(capacity_bytes=dram_capacity),
    )
