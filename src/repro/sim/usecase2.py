"""Use Case 2 experiment runner: OS page placement in DRAM (Section 6).

Composes the three systems Figure 7/8 compare, for one workload model:

* ``baseline`` -- the strengthened baseline of Section 6.3: the best-
  performing controller address mapping for the workload, randomized
  virtual-to-physical placement, prefetcher only if it helps (we keep
  it on; it never hurts these models).
* ``xmem``     -- the same machine, but the OS uses atom attributes to
  isolate high-RBL structures in dedicated banks and spread the rest
  (bank-targeting allocator fed by the Section 6.2 algorithm).
  Bank-granular placement requires a controller mapping in which a
  page maps into a single bank, so the XMem OS uses the row-interleaved
  scheme -- the baseline is still free to beat it with any scheme.
* ``ideal``    -- the baseline machine with a perfect row buffer
  (every access a row hit): the upper bound for any RBL optimization.

Every system runs on the exact ``packed`` engine tier
(:mod:`repro.cpu.tiers`).
The workload's pages are backed when it is instantiated, so address
translation during the run is a pure page-table lookup: the access
stream is translated once per access while it is packed, and the
engine runs on physical addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.core.errors import ConfigurationError
from repro.cpu.engine import TraceEngine
from repro.cpu.tiers import resolve_engine_tier, run_tier
from repro.cpu.trace import PackedTrace, TraceBuilder
from repro.dram.system import DramSystem
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.prefetch import MultiStridePrefetcher
from repro.sim.config import SimConfig, scaled_config
from repro.sim.stats import RunRecord, Snapshot, StatsRegistry
from repro.sim.system import MemorySystem
from repro.workloads.suite.spec import SuiteWorkload
from repro.xos.loader import OperatingSystem

#: Address-mapping candidates the strengthened baseline picks from:
#: the row-interleaved, channel-interleaved, and permutation corners of
#: the nine-scheme space (the rest fall between them; see the
#: Section 6.3 bench).
BASELINE_MAPPING_CANDIDATES = ("scheme2", "scheme5", "minimalist_open",
                               "permutation")

#: The mapping the Figure 7/8 comparison holds fixed for *all three*
#: systems: row-interleaved, page -> single bank.  This is the regime
#: where a single simulated core has row-buffer headroom at all; under
#: the channel-interleaved schemes the headroom on one core collapses
#: below 2% because fine-grained channel parallelism hides row
#: conflicts (see `test_sec63_mapping_choice`).  The paper's larger
#: headroom arises from eight cores interfering in DRAM, which this
#: substrate does not model; holding the mapping fixed isolates exactly
#: the effect the paper's OS policy controls (which banks data lives
#: in).  The ``xmem_interleaved`` scheme + FramePool.bank_groups()
#: provide the channel-interleaved variant for experimentation.
XMEM_MAPPING = "scheme2"


def usecase2_config(dram_capacity: int = 1 << 26) -> SimConfig:
    """The scaled Use-Case-2 machine (memory-intensive regime)."""
    cfg = scaled_config(8, dram_capacity=dram_capacity)
    return cfg


@dataclass
class UseCase2Result:
    """One (workload, system) measurement.

    ``stats`` is the machine's full registry snapshot, populated only
    on ``collect=True`` runs (the ``REPRO_STATS_JSON`` bench knob).
    """

    record: RunRecord
    mapping: str
    placement_report: Optional[str] = None
    stats: Optional[Snapshot] = None

    @property
    def cycles(self) -> float:
        """Execution time in CPU cycles."""
        return self.record.cycles


def run_system(
    workload: SuiteWorkload,
    system: str,
    config: Optional[SimConfig] = None,
    mapping: Optional[str] = None,
    accesses: Optional[int] = None,
    collect: bool = False,
    tier: Optional[str] = None,
) -> UseCase2Result:
    """Run one workload on one of the three systems.

    ``collect=True`` snapshots the full stats registry after the run
    (strictly post-run, so it never perturbs the measurement).
    The engine tier is ``tier``, or ``REPRO_ENGINE`` when None
    (default ``packed``); the estimating ``analytical`` tier is refused.
    """
    tier = resolve_engine_tier(tier)
    if tier == "analytical":
        raise ConfigurationError(
            "Use Case 2 runs on exact engine tiers only ('packed'), "
            "not 'analytical'")
    cfg = config or usecase2_config()
    if system == "baseline":
        mapping = mapping or XMEM_MAPPING
        allocator = "randomized"
        perfect_rbl = False
    elif system == "ideal":
        mapping = mapping or XMEM_MAPPING
        allocator = "randomized"
        perfect_rbl = True
    elif system == "xmem":
        mapping = XMEM_MAPPING
        allocator = "bank_target"
        perfect_rbl = False
    else:
        raise ConfigurationError(f"unknown system {system!r}")

    osys = OperatingSystem(cfg.dram_geometry, mapping=mapping,
                           allocator=allocator, seed=17)
    proc = osys.create_process()
    bases = workload.instantiate(proc)

    hierarchy = CacheHierarchy(cfg.levels, cfg.line_bytes)
    dram = DramSystem(geometry=cfg.dram_geometry, timing=cfg.timing(),
                      mapping=mapping, perfect_rbl=perfect_rbl)
    stride = MultiStridePrefetcher(streams=cfg.prefetcher.streams,
                                   degree=cfg.prefetcher.degree,
                                   line_bytes=cfg.line_bytes)
    memory = MemorySystem(hierarchy, dram, stride_prefetcher=stride)
    engine = TraceEngine(memory, xmemlib=None,
                         issue_width=cfg.cpu.issue_width,
                         window=cfg.cpu.window)

    trace = workload.trace(bases)
    if accesses is not None:
        trace = _truncate(trace, accesses)
    stats = run_tier(engine, _pack_physical(trace, proc.translate), tier)

    record = RunRecord(
        workload=workload.name,
        system=system,
        cycles=stats.cycles,
        instructions=stats.instructions,
        llc_miss_rate=hierarchy.llc.stats.miss_rate,
        dram_read_latency=dram.stats.avg_read_latency,
        dram_write_latency=dram.stats.avg_write_latency,
        dram_row_hit_rate=dram.stats.row_hit_rate,
        params={"mapping": mapping},
    )
    report = None
    if system == "xmem":
        from repro.policies.dram_placement import placement_report
        report = placement_report(proc)
    snapshot = None
    if collect:
        registry = StatsRegistry()
        registry.register_provider("engine", engine)
        registry.register_provider("", memory)
        snapshot = registry.snapshot()
    return UseCase2Result(record=record, mapping=mapping,
                          placement_report=report, stats=snapshot)


def pick_baseline_mapping(
    workload: SuiteWorkload,
    config: Optional[SimConfig] = None,
    probe_accesses: int = 20_000,
    candidates: Iterable[str] = BASELINE_MAPPING_CANDIDATES,
    tier: Optional[str] = None,
) -> str:
    """Choose the best-performing mapping for the baseline (Section 6.3).

    Probes each candidate with a truncated trace and returns the one
    with the lowest cycle count.
    """
    best_name, best_cycles = None, float("inf")
    for name in candidates:
        result = run_system(workload, "baseline", config=config,
                            mapping=name, accesses=probe_accesses,
                            tier=tier)
        if result.cycles < best_cycles:
            best_name, best_cycles = name, result.cycles
    return best_name


def run_figure7(
    workload: SuiteWorkload,
    config: Optional[SimConfig] = None,
    pick_mapping: bool = True,
    collect: bool = False,
    tier: Optional[str] = None,
) -> Dict[str, UseCase2Result]:
    """All three systems for one workload (one Figure 7/8 column)."""
    mapping = (pick_baseline_mapping(workload, config, tier=tier)
               if pick_mapping else XMEM_MAPPING)
    return {
        "baseline": run_system(workload, "baseline", config, mapping,
                               collect=collect, tier=tier),
        "xmem": run_system(workload, "xmem", config, collect=collect,
                           tier=tier),
        "ideal": run_system(workload, "ideal", config, mapping,
                            collect=collect, tier=tier),
    }


def _pack_physical(trace, translate) -> PackedTrace:
    """Pack a suite access stream, translating each address once."""
    out = TraceBuilder()
    access = out.access
    for ev in trace:
        access(translate(ev.vaddr), ev.is_write, ev.work)
    return out.build()


def _truncate(trace, limit: int):
    count = 0
    for ev in trace:
        yield ev
        count += 1
        if count >= limit:
            return
