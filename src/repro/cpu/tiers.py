"""Running traces on single-core machines.

Every single-core run goes through
:func:`repro.cpu.vector_engine.run_shared`, the split interpreter: a
front-end over L1, L2 and stride training, run once for every machine
of a point whose private levels are equal, and a per-machine back-end
over the LLC, DRAM, prefetch issue, the MSHR file and time.  A machine
outside the shape it is written for
(:func:`repro.cpu.vector_engine.check_shape`) is refused with
:class:`~repro.core.errors.ConfigurationError`.  The interpreter is
pinned against the textbook
:class:`repro.testing.oracles.ReferenceEngine`.

:func:`run_tier` runs one machine (:meth:`SystemHandle.run`);
:func:`run_tiers` runs the machines of one point in one
call (:func:`repro.sim.system.run_machines`).  Object event streams are
packed first.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cpu.engine import EngineStats, TraceEngine
from repro.cpu.trace import PackedTrace


def run_tier(engine: TraceEngine, trace) -> EngineStats:
    """Execute ``trace`` (packed columns or an event iterable) on
    ``engine``: :meth:`TraceEngine.run`."""
    return engine.run(trace)


def run_tiers(engines: Sequence[TraceEngine], traces: Sequence,
              seconds: Optional[List[float]] = None) -> List[EngineStats]:
    """Execute ``traces[k]`` on ``engines[k]`` for every ``k``: the
    machines of one point, in one
    :func:`repro.cpu.vector_engine.run_shared` call, so machines that
    share their private levels share one pass over them; each result
    equals ``run_tier(engines[k], traces[k])``.  ``seconds``
    (optional, ``len(engines) + 1`` floats) accumulates each machine's
    own wall seconds and, last, the shared front-end's.
    """
    from repro.cpu.vector_engine import run_shared
    traces = [t if isinstance(t, PackedTrace) else PackedTrace.from_events(t)
              for t in traces]
    return run_shared(engines, traces, seconds)
