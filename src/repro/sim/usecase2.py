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
other.  The workload's pages are backed when it is instantiated.  Its
virtual access stream is drawn once per process
(:func:`virtual_stream`) and translated through each OS's page map, one
lookup per distinct page, so the engine runs on physical addresses.
The translation is kept with the virtual stream (:func:`translated`),
keyed on the frames of the pages it touches: every later OS with the
same frames there -- ``baseline`` and ``ideal`` (randomized allocator,
seed 17), a repeated run, the mapping probes of
:func:`pick_baseline_mapping` -- gets the same trace, and its run
replays the first one's front-end, whether the systems run together
(:class:`repro.sim.runner.UC2Point`) or each alone
(:func:`run_system`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import weakref
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.cpu.trace import PackedTrace, TraceBuilder
from repro.sim.config import SimConfig, scaled_config
from repro.sim.runner import (SystemRun, TraceCache, TraceRecording,
                              fetch_recording)
from repro.sim.stats import Snapshot
from repro.sim.system import SystemHandle, build_baseline
from repro.testing import checks as _checks
from repro.workloads.suite.spec import SuiteWorkload, translate_stream
from repro.xos.loader import OperatingSystem, Process
from repro.xos.page_table import PageTable

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


def virtual_stream(workload: SuiteWorkload, bases: Dict[str, int],
                   accesses: Optional[int] = None) -> PackedTrace:
    """``workload``'s virtual access stream over structure ``bases``
    (:meth:`~repro.workloads.suite.spec.SuiteWorkload.pack_into`,
    untranslated), drawn once per process and shared by every OS that
    runs it: the stream is a function of the workload's name (its
    seed), structures, ``bases`` and access count alone.

    Held in :mod:`repro.sim.runner`'s in-process recording memo (its
    bound and lock), never on disk: a trace-cache ``suite:`` entry is
    keyed by name and cannot tell a renamed or resized model from the
    catalog's.  Under ``REPRO_CHECK`` a reused stream is drawn again,
    and a difference raises :class:`ConfigurationError`.
    """
    count = workload.accesses if accesses is None \
        else min(accesses, workload.accesses)
    text = repr((workload.name, workload.structures,
                 sorted(bases.items()), count))
    key = "uc2-stream:" + hashlib.sha256(text.encode()).hexdigest()

    def draw() -> TraceRecording:
        builder = TraceBuilder()
        workload.pack_into(builder, bases, accesses=count)
        return TraceRecording(kernel=f"suite:{workload.name}", n=count,
                              tile=0, instrumented=False,
                              packed=builder.build())

    recording, source = fetch_recording(key, draw,
                                        TraceCache(disabled=True))
    if source == "memo" and _checks.enabled() \
            and draw().packed != recording.packed:
        raise ConfigurationError(
            f"{workload.name}: the stored virtual stream differs from a "
            f"fresh draw")
    return recording.packed


#: Translations kept per virtual stream (:func:`translated`): the
#: randomized OS's page map and the bank-targeting OS's.
_TRANSLATIONS_PER_STREAM = 2
#: Translated streams, per virtual stream ``(id(vaddr), len(vaddr),
#: page_bytes)``: the ``vaddr`` column's weak reference, the stream's
#: distinct pages, and its translations as ``(frames, trace)`` pairs.
_TRANSLATED: Dict[tuple, tuple] = {}
#: Serve runs points on threads: lookups and inserts hold the lock.
_TRANSLATED_LOCK = threading.Lock()


def translated(virtual: PackedTrace, page_table: PageTable) -> PackedTrace:
    """``virtual`` translated through ``page_table``
    (:func:`~repro.workloads.suite.spec.translate_stream`; the meta
    column is shared), kept with the virtual stream: a later page
    table that gives every page the stream touches the same frame gets
    the same trace object, so a run over it replays the stored
    front-end (:func:`~repro.cpu.vector_engine.recorded_front_end`).

    A translation is keyed on the frames of the stream's distinct
    pages, in page order: equal frames give an equal column, whatever
    allocator or seed drew them.  Translations die with the virtual
    ``vaddr`` column (so with its :func:`virtual_stream` memo entry),
    and a stream keeps at most :data:`_TRANSLATIONS_PER_STREAM`.
    Under ``REPRO_CHECK`` a reused translation is translated again,
    and a difference raises :class:`ConfigurationError`.
    """
    vaddr, page = virtual.vaddr, page_table.page_bytes

    def translate() -> PackedTrace:
        return PackedTrace(translate_stream(vaddr, page_table.frame_of,
                                            page), virtual.meta)

    key = (id(vaddr), len(vaddr), page)
    with _TRANSLATED_LOCK:
        stored = _TRANSLATED.get(key)
    if stored is None:
        # The column's death drops its translations.
        def forget(_ref):
            _TRANSLATED.pop(key, None)
        pages = np.unique(np.frombuffer(vaddr, dtype=np.int64) // page)
        with _TRANSLATED_LOCK:
            stored = _TRANSLATED.setdefault(
                key, (weakref.ref(vaddr, forget), pages, []))
    _, pages, entries = stored
    frames = [page_table.frame_of(p) for p in pages.tolist()]
    if None in frames:
        return translate()      # raises TranslationError
    frames = array("q", frames).tobytes()
    with _TRANSLATED_LOCK:
        trace = next((t for f, t in entries if f == frames), None)
    if trace is None:
        trace = translate()
        with _TRANSLATED_LOCK:
            if all(f != frames for f, _ in entries):
                entries.append((frames, trace))
                del entries[:-_TRANSLATIONS_PER_STREAM]
    elif _checks.enabled() and translate().vaddr != trace.vaddr:
        raise ConfigurationError(
            "the stored translation of a Use Case 2 stream differs from "
            "a fresh one")
    return trace


def physical_stream(workload: SuiteWorkload, allocator: str, mapping: str,
                    accesses: Optional[int] = None
                    ) -> Tuple[PackedTrace, Process]:
    """The stream ``workload`` runs under a fresh OS (``allocator``,
    controller ``mapping``, seed 17), and the process it is loaded in:
    :func:`virtual_stream` :func:`translated` through the process's
    page map."""
    osys = OperatingSystem(usecase2_config().dram_geometry,
                           mapping=mapping, allocator=allocator, seed=17)
    proc = osys.create_process()
    virtual = virtual_stream(workload, workload.instantiate(proc),
                             accesses)
    return translated(virtual, proc.page_table), proc


def _machine(mapping: str, ideal: bool = False) -> SystemHandle:
    """A Use Case 2 machine with controller ``mapping``; ``ideal``
    sets its perfect row buffer."""
    handle = build_baseline(dataclasses.replace(usecase2_config(),
                                                dram_mapping=mapping))
    handle.dram.perfect_rbl = ideal
    return handle


def build_systems(workload: SuiteWorkload, systems: Sequence[str],
                  mapping: str, accesses: Optional[int] = None
                  ) -> Tuple[List[SystemHandle], List[PackedTrace],
                             Dict[str, str], Optional[str]]:
    """One machine per system and the physical stream it runs (systems
    under one allocator share it: a randomized page map does not depend
    on the controller mapping), each system's mapping -- ``mapping``,
    but :data:`XMEM_MAPPING` for ``xmem`` -- and the xmem placement
    report (None without ``xmem``).  ``accesses`` truncates the stream.
    """
    handles: List[SystemHandle] = []
    traces: List[PackedTrace] = []
    mappings: Dict[str, str] = {}
    streams: Dict[str, PackedTrace] = {}
    report = None
    for system in systems:
        if system not in _ALLOCATORS:
            raise ConfigurationError(f"unknown system {system!r}")
        allocator = _ALLOCATORS[system]
        mappings[system] = XMEM_MAPPING if system == "xmem" else mapping
        if allocator not in streams:
            streams[allocator], proc = physical_stream(
                workload, allocator, mappings[system], accesses)
            if system == "xmem":
                from repro.policies.dram_placement import placement_report
                report = placement_report(proc)
        handles.append(_machine(mappings[system], system == "ideal"))
        traces.append(streams[allocator])
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


def mapping_probes(workload: SuiteWorkload,
                   probe_accesses: int = 20_000) -> Dict[str, float]:
    """The baseline's cycles under each of
    :data:`BASELINE_MAPPING_CANDIDATES`, over a truncated stream.

    The randomized page map does not depend on the controller mapping,
    so every probe runs one physical stream, and probes after the
    first replay the first's front-end.
    """
    trace, _ = physical_stream(workload, _ALLOCATORS["baseline"],
                               BASELINE_MAPPING_CANDIDATES[0],
                               probe_accesses)
    return {name: _machine(name).run(trace).cycles
            for name in BASELINE_MAPPING_CANDIDATES}


def pick_baseline_mapping(workload: SuiteWorkload,
                          probe_accesses: int = 20_000) -> str:
    """Choose the best-performing mapping for the baseline (Section 6.3):
    the first of :func:`mapping_probes`' candidates with the lowest
    cycle count."""
    cycles = mapping_probes(workload, probe_accesses)
    return min(cycles, key=cycles.get)
