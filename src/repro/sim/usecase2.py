"""Use Case 2 machines: OS page placement in DRAM (Section 6).

Builds the three systems Figure 7/8 compare, for one workload model:

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

Every system is :func:`~repro.sim.system.build_baseline` on
:func:`usecase2_config` with the system's controller mapping (``ideal``
then sets ``perfect_rbl`` on its DRAM): a single-core machine like any
other.  The workload's pages are backed when it is instantiated, and
the access stream is packed directly into the trace arrays
(:meth:`~repro.workloads.suite.spec.SuiteWorkload.pack_into`), each
address translated by one lookup in the process's page map as it is
appended, so the engine runs on physical addresses.  ``baseline`` and
``ideal`` run under the same OS (randomized allocator, seed 17, one
mapping), so :func:`build_systems` packs their stream once, and run
together (:class:`repro.sim.runner.UC2Point`) they share one front-end
pass.  :func:`run_system` runs one system alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.cpu.trace import PackedTrace, TraceBuilder
from repro.sim.config import SimConfig, scaled_config
from repro.sim.runner import SystemRun
from repro.sim.stats import Snapshot
from repro.sim.system import SystemHandle, build_baseline
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

#: Each Figure 7/8 system's page allocator, in table order.
_ALLOCATORS = {"baseline": "randomized", "xmem": "bank_target",
               "ideal": "randomized"}

#: The Figure 7/8 systems, in table order.
SYSTEMS = tuple(_ALLOCATORS)


def usecase2_config() -> SimConfig:
    """The scaled Use-Case-2 machine (memory-intensive regime)."""
    return scaled_config(8)


def build_systems(workload: SuiteWorkload, systems: Sequence[str],
                  mapping: str, accesses: Optional[int] = None
                  ) -> Tuple[List[SystemHandle], List[PackedTrace],
                             Dict[str, str], Optional[str]]:
    """One machine per system and the physical stream it runs (systems
    under one OS share it), each system's mapping -- ``mapping``, but
    :data:`XMEM_MAPPING` for ``xmem`` -- and the xmem placement report
    (None without ``xmem``).  ``accesses`` truncates the stream.
    """
    cfg = usecase2_config()
    handles: List[SystemHandle] = []
    traces: List[PackedTrace] = []
    mappings: Dict[str, str] = {}
    streams: Dict[Tuple[str, str], PackedTrace] = {}
    report = None
    for system in systems:
        if system not in _ALLOCATORS:
            raise ConfigurationError(f"unknown system {system!r}")
        allocator = _ALLOCATORS[system]
        mappings[system] = XMEM_MAPPING if system == "xmem" else mapping
        key = (allocator, mappings[system])
        if key not in streams:
            osys = OperatingSystem(cfg.dram_geometry, mapping=key[1],
                                   allocator=allocator, seed=17)
            proc = osys.create_process()
            bases = workload.instantiate(proc)
            builder = TraceBuilder()
            workload.pack_into(builder, bases,
                               frames=dict(proc.page_table.items()),
                               page_bytes=proc.page_table.page_bytes,
                               accesses=accesses)
            streams[key] = builder.build()
            if system == "xmem":
                from repro.policies.dram_placement import placement_report
                report = placement_report(proc)
        handle = build_baseline(dataclasses.replace(
            cfg, dram_mapping=mappings[system]))
        handle.dram.perfect_rbl = system == "ideal"
        handles.append(handle)
        traces.append(streams[key])
    return handles, traces, mappings, report


@dataclass
class UseCase2Result:
    """One (workload, system) measurement of :func:`run_system`.

    ``stats`` is the machine's full registry snapshot, populated only
    on ``collect=True`` runs.
    """

    run: SystemRun
    mapping: str
    placement_report: Optional[str] = None
    stats: Optional[Snapshot] = None

    @property
    def cycles(self) -> float:
        """Execution time in CPU cycles."""
        return self.run.cycles


def run_system(
    workload: SuiteWorkload,
    system: str,
    mapping: Optional[str] = None,
    accesses: Optional[int] = None,
    collect: bool = False,
) -> UseCase2Result:
    """Run one workload on one of the three systems, alone.

    ``collect=True`` snapshots the full stats registry after the run
    (strictly post-run, so it never perturbs the measurement).
    """
    (handle,), (trace,), mappings, report = build_systems(
        workload, (system,), mapping or XMEM_MAPPING, accesses)
    run = SystemRun.of(system, handle, handle.run(trace))
    return UseCase2Result(
        run=run, mapping=mappings[system], placement_report=report,
        stats=handle.stats_snapshot() if collect else None)


def pick_baseline_mapping(workload: SuiteWorkload,
                          probe_accesses: int = 20_000) -> str:
    """Choose the best-performing mapping for the baseline (Section 6.3).

    Probes each of :data:`BASELINE_MAPPING_CANDIDATES` with a truncated
    trace and returns the one with the lowest cycle count.
    """
    best_name, best_cycles = None, float("inf")
    for name in BASELINE_MAPPING_CANDIDATES:
        result = run_system(workload, "baseline", mapping=name,
                            accesses=probe_accesses)
        if result.cycles < best_cycles:
            best_name, best_cycles = name, result.cycles
    return best_name
