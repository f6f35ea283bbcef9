"""Running traces on single-core machines.

Every single-core run goes through
:func:`repro.cpu.vector_engine.run_trace`, the split interpreter: a
front-end over L1, L2 and stride training, computed once per dense
stream and pre-run private state and replayed by every later run that
starts from the same state (:func:`repro.cpu.vector_engine.recorded_front_end`,
the store co-run cores use too), and the machine's own back-end over
the LLC, DRAM, prefetch issue, the MSHR file and time.  So the second
machine of a point -- XMem after Baseline, another LLC size or
bandwidth -- replays the first one's front-end.  A machine outside the
shape the interpreter is written for
(:func:`repro.cpu.vector_engine.check_shape`) is refused with
:class:`~repro.core.errors.ConfigurationError`.  The interpreter is
pinned against the textbook
:class:`repro.testing.oracles.ReferenceEngine`.

:func:`run_tier` runs one machine (:meth:`SystemHandle.run`); object
event streams are packed first.
"""

from __future__ import annotations

from repro.cpu.engine import EngineStats, TraceEngine


def run_tier(engine: TraceEngine, trace) -> EngineStats:
    """Execute ``trace`` (packed columns or an event iterable) on
    ``engine``: :meth:`TraceEngine.run`."""
    return engine.run(trace)
