"""The window-limited trace-driven timing engine.

This is the reproduction's stand-in for the paper's zsim OOO core
(Table 3: 4-wide issue, 128-entry ROB, Westmere-like).  The model:

* non-memory instructions retire at ``issue_width`` per cycle;
* cache hits cost their lookup latency, but first-level hits are
  pipelined (1 issue slot) -- an OOO core hides them;
* misses to memory are issued into a bounded window of outstanding
  misses (ROB/MSHR-limited).  While the window has room, the core runs
  ahead and misses overlap (memory-level parallelism); when it fills,
  the core stalls until the oldest miss completes -- exactly the
  first-order behaviour that makes thrashing (Use Case 1) and bank
  conflicts (Use Case 2) expensive.

The engine owns no policy: it forwards the trace's accesses to a
memory system (see :class:`repro.sim.system.MemorySystem`).  Traces
carry the addresses the memory system sees; callers that model an MMU
translate the stream before the run (see
:func:`repro.sim.usecase2.physical_stream`).

:class:`TraceEngine` holds the machine's core-side state (issue
width, MSHR file, last run's statistics); the interpreter is the split
interpreter of :mod:`repro.cpu.vector_engine`, which
:meth:`TraceEngine.run` calls.  The model's textbook statement is the
oracle :class:`repro.testing.oracles.ReferenceEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError
from repro.cpu.trace import PackedTrace, Trace
from repro.mem.mshr import MSHRFile


@dataclass
class EngineStats:
    """What one run measured."""

    cycles: float = 0.0
    instructions: int = 0
    mem_accesses: int = 0
    xmem_instructions: int = 0
    misses_to_memory: int = 0
    stall_cycles: float = 0.0

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def xmem_instruction_overhead(self) -> float:
        """XMem ISA instructions / total instructions (Section 4.4)."""
        if not self.instructions:
            return 0.0
        return self.xmem_instructions / self.instructions


class TraceEngine:
    """Interprets a trace against a memory system.

    ``memory`` is a :class:`repro.sim.system.MemorySystem` of the shape
    :func:`repro.cpu.vector_engine.check_shape` accepts (a run raises
    :class:`ConfigurationError` otherwise); ``xmemlib`` receives
    :class:`XMemOp` events (skipped when absent -- the baseline
    machine).
    """

    def __init__(
        self,
        memory,
        xmemlib=None,
        issue_width: int = 4,
        window: int = 32,
    ) -> None:
        if issue_width <= 0:
            raise ConfigurationError(f"issue_width must be > 0: {issue_width}")
        self.memory = memory
        self.xmemlib = xmemlib
        self.issue_width = issue_width
        self.mshr = MSHRFile(window)
        #: Statistics of the most recent :meth:`run` (zeroed until one
        #: completes) -- what the engine contributes to the stats tree.
        self.last_stats = EngineStats()

    def stat_groups(self):
        """StatGroup protocol: the engine and its MSHR file."""
        # Read when the group is: each run replaces ``last_stats``.
        yield "", lambda: self.last_stats
        yield "mshr", self.mshr.stats

    #: Accesses at most this many cycles long are considered hidden by
    #: the pipeline (first-level cache hits).
    PIPELINED_LATENCY = 4.0

    def run(self, trace: Trace) -> EngineStats:
        """Execute ``trace`` to completion; returns the statistics.

        Object event streams are packed first
        (:meth:`PackedTrace.from_events`, which rejects anything that
        is not a trace event with ``TypeError``); the run is
        :func:`repro.cpu.vector_engine.run_trace`.
        """
        from repro.cpu import vector_engine
        if type(trace) is not PackedTrace:
            trace = PackedTrace.from_events(trace)
        return vector_engine.run_trace(self, trace)

    def run_packed(self, trace: PackedTrace) -> EngineStats:
        """:meth:`run` under the name the perf harness's spans wrap."""
        return self.run(trace)
